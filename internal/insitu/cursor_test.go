package insitu

import (
	"math/rand"
	"sort"
	"testing"

	"rottnest/internal/parquet"
)

// TestColValuesCursorMatchesBinarySearch checks the run walker's
// per-column page cursor against a binary search: over page sets with
// gaps, runs started at rows in ascending order with skips (the run
// loop), rows in no order at all, and rows before, between and after
// the pages, both give the same value for every row the walker's span
// covers.
func TestColValuesCursorMatchesBinarySearch(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		var pages []parquet.Page
		row := int64(rng.Intn(5))
		for p := 0; p < 1+rng.Intn(8); p++ {
			n := 1 + rng.Intn(6)
			vals := make([][]byte, n)
			for i := range vals {
				vals[i] = []byte{byte(p), byte(i)}
			}
			pages = append(pages, parquet.Page{
				Info:   parquet.PageInfo{Ordinal: p, FirstRow: row, NumValues: n},
				Values: parquet.ColumnValues{Bytes: vals},
			})
			row += int64(n + rng.Intn(2)*rng.Intn(9)) // half the pages leave a gap
		}
		search := func(row int64) []byte {
			i := sort.Search(len(pages), func(i int) bool { return pageEnd(&pages[i]) > row })
			if i == len(pages) || row < pages[i].Info.FirstRow {
				return nil
			}
			return pages[i].Values.Bytes[row-pages[i].Info.FirstRow]
		}
		end := row + 5
		// check asks the walker for the span at r and compares each
		// row it covers with the search.
		check := func(c *colValues, order string, r int64) {
			vals, stop := c.span(r, end+2)
			if stop <= r || stop > end+2 || (vals != nil && int64(len(vals)) != stop-r) {
				t.Fatalf("trial %d %s row %d: span of %d values ends at %d", trial, order, r, len(vals), stop)
			}
			for q := r; q < stop; q++ {
				var got []byte
				if vals != nil {
					got = vals[q-r]
				}
				if want := search(q); string(got) != string(want) || (got == nil) != (want == nil) {
					t.Fatalf("trial %d %s span at %d, row %d = %v, want %v", trial, order, r, q, got, want)
				}
			}
		}
		ascending := &colValues{pages: pages}
		for r := int64(-2); r < end; r += int64(1 + rng.Intn(3)) {
			check(ascending, "ascending", r)
		}
		anyOrder := &colValues{pages: pages}
		for i := 0; i < 60; i++ {
			check(anyOrder, "unordered", int64(rng.Intn(int(end)+4))-2)
		}
	}
}
