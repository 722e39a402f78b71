package insitu

import (
	"math/rand"
	"sort"
	"testing"

	"rottnest/internal/parquet"
)

// TestColValuesCursorMatchesBinarySearch checks the per-column page
// cursor against the binary search it replaced: over page sets with
// gaps, rows asked in ascending order with skips (the row loop), rows
// in no order at all, and rows before, between and after the pages,
// both return the same value.
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
		ascending := &colValues{pages: pages}
		for r := int64(-2); r < end; r += int64(1 + rng.Intn(3)) {
			if got, want := ascending.at(r), search(r); string(got) != string(want) || (got == nil) != (want == nil) {
				t.Fatalf("trial %d ascending row %d = %v, want %v", trial, r, got, want)
			}
		}
		anyOrder := &colValues{pages: pages}
		for i := 0; i < 60; i++ {
			r := int64(rng.Intn(int(end)+4)) - 2
			if got, want := anyOrder.at(r), search(r); string(got) != string(want) || (got == nil) != (want == nil) {
				t.Fatalf("trial %d unordered row %d = %v, want %v", trial, r, got, want)
			}
		}
	}
}
