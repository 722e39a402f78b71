package insitu

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"rottnest/internal/lake"
	"rottnest/internal/objectstore"
	"rottnest/internal/parquet"
	"rottnest/internal/postings"
)

var twoColSchema = parquet.MustSchema(
	parquet.Column{Name: "id", Type: parquet.TypeFixedLenByteArray, TypeLen: 16},
	parquet.Column{Name: "body", Type: parquet.TypeByteArray},
)

func writeTwoCol(t *testing.T, store objectstore.Store, key string, n int) (ids [][]byte, bodies [][]byte, tables []parquet.PageTable) {
	t.Helper()
	b := parquet.NewBatch(twoColSchema)
	ids = make([][]byte, n)
	bodies = make([][]byte, n)
	for i := 0; i < n; i++ {
		id := make([]byte, 16)
		id[0], id[1] = byte(i>>8), byte(i)
		ids[i] = id
		bodies[i] = []byte(fmt.Sprintf("row %04d body text", i))
	}
	b.Cols[0] = parquet.ColumnValues{Bytes: ids}
	b.Cols[1] = parquet.ColumnValues{Bytes: bodies}
	_, tables, err := parquet.WriteFile(context.Background(), store, key, b, parquet.WriterOptions{RowGroupRows: 64, PageBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	return ids, bodies, tables
}

// TestEvalPagesMultiColumn drives the compound evaluator over two
// columns with different page boundaries: a page-driven body column
// intersected with a page-driven id column, restricted to a surviving
// row set, with a deletion vector applied.
func TestEvalPagesMultiColumn(t *testing.T) {
	ctx := context.Background()
	store := objectstore.NewMemStore(nil)
	ids, _, tables := writeTwoCol(t, store, "f.rpq", 300)

	dv := lake.NewDeletionVector()
	dv.Add(41)

	rows := []postings.RowRange{{Lo: 40, Hi: 44}, {Lo: 100, Hi: 101}}
	pagesFor := func(tbl parquet.PageTable) []parquet.PageInfo {
		var out []parquet.PageInfo
		for _, p := range tbl {
			if postings.RangesOverlap(rows, p.FirstRow, p.FirstRow+int64(p.NumValues)) {
				out = append(out, p)
			}
		}
		return out
	}
	cols := []ColumnRead{
		{Name: "id", Col: twoColSchema.Columns[0], ColIdx: 0, Pages: pagesFor(tables[0])},
		{Name: "body", Col: twoColSchema.Columns[1], ColIdx: 1, Pages: pagesFor(tables[1])},
	}
	eval := func(row int64, vals [][]byte) (bool, float64) {
		// id matches rows 40..43 and 100; body predicate excludes 42.
		if vals[0] == nil || vals[1] == nil {
			t.Fatalf("row %d: missing value (%v, %v)", row, vals[0], vals[1])
		}
		return bytes.Equal(vals[0][:2], ids[row][:2]) && !bytes.Contains(vals[1], []byte("0042")), 0
	}
	got, pages, err := EvalPages(ctx, store, "f.rpq", "f.rpq", cols, rows, dv, eval, 1)
	if err != nil {
		t.Fatal(err)
	}
	if pages == 0 {
		t.Fatal("no pages fetched; scenario not exercised")
	}
	// Surviving rows 40,42,43,100 minus deleted 41 minus predicate-excluded 42.
	wantRows := []int64{40, 43, 100}
	if len(got) != len(wantRows) {
		t.Fatalf("got %d matches %v, want rows %v", len(got), got, wantRows)
	}
	for i, m := range got {
		if m.Row != wantRows[i] {
			t.Fatalf("match %d row = %d, want %d", i, m.Row, wantRows[i])
		}
		if want := fmt.Sprintf("row %04d body text", m.Row); string(m.Value) != want {
			t.Fatalf("match %d value = %q, want %q", i, m.Value, want)
		}
	}
}

// TestEvalPagesScanFallback mixes a page-driven column with a
// full-scan column and checks each page is fetched once.
func TestEvalPagesScanFallback(t *testing.T) {
	ctx := context.Background()
	inner := objectstore.NewMemStore(nil)
	_, _, tables := writeTwoCol(t, inner, "f.rpq", 200)
	store, metrics := objectstore.Instrument(inner, objectstore.DefaultS3Model())

	rows := []postings.RowRange{{Lo: 0, Hi: 200}}
	// Duplicate page infos: the fetch must dedup by ordinal.
	idPages := append(append([]parquet.PageInfo(nil), tables[0]...), tables[0]...)
	cols := []ColumnRead{
		{Name: "id", Col: twoColSchema.Columns[0], ColIdx: 0, Pages: idPages},
		{Name: "body", ColIdx: 1, Scan: true},
	}
	before := metrics.Snapshot()
	got, pages, err := EvalPages(ctx, store, "f.rpq", "f.rpq", cols, rows, nil, func(row int64, vals [][]byte) (bool, float64) {
		return bytes.Contains(vals[1], []byte("0007")), 0
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Row != 7 {
		t.Fatalf("got = %v, want one match at row 7", got)
	}
	if pages != len(tables[0]) {
		t.Fatalf("pagesFetched = %d, want %d (dedup)", pages, len(tables[0]))
	}
	delta := metrics.Snapshot().Sub(before)
	if delta.Gets == 0 {
		t.Fatal("no GETs observed")
	}

	// Empty surviving rows with only page-driven columns: no reads.
	before = metrics.Snapshot()
	got, pages, err = EvalPages(ctx, store, "f.rpq", "f.rpq", cols[:1], nil, nil, func(int64, [][]byte) (bool, float64) { return true, 0 }, 0)
	if err != nil || len(got) != 0 || pages != 0 {
		t.Fatalf("empty rows: got %v pages %d err %v", got, pages, err)
	}
	if delta := metrics.Snapshot().Sub(before); delta.Gets != 0 {
		t.Fatalf("empty rows issued %d GETs", delta.Gets)
	}
}

// refColValues and referenceEvalRows are the row-at-a-time evaluator
// the run loop replaced: a page cursor walked once per row and the
// compound verdict asked once per row. They are kept as the oracle of
// the differential tests below.
type refColValues struct {
	scan  parquet.ColumnValues
	pages []parquet.Page
	cur   int
}

func (c *refColValues) at(row int64) []byte {
	if c.scan.Bytes != nil || c.pages == nil {
		if row < 0 || row >= int64(len(c.scan.Bytes)) {
			return nil
		}
		return c.scan.Bytes[row]
	}
	i := c.cur
	if i > 0 && row < pageEnd(&c.pages[i-1]) {
		i = 0
	}
	for i < len(c.pages) && row >= pageEnd(&c.pages[i]) {
		i++
	}
	c.cur = i
	if i == len(c.pages) {
		return nil
	}
	p := &c.pages[i]
	off := row - p.Info.FirstRow
	if off < 0 || off >= int64(len(p.Values.Bytes)) {
		return nil
	}
	return p.Values.Bytes[off]
}

func referenceEvalRows(path string, vals []*refColValues, rows []postings.RowRange, dv *lake.DeletionVector, eval RowEval, output int) []Match {
	rowVals := make([][]byte, len(vals))
	var out []Match
	for _, r := range rows {
		for row := r.Lo; row < r.Hi; row++ {
			if dv.Contains(uint32(row)) {
				continue
			}
			for i := range vals {
				rowVals[i] = vals[i].at(row)
			}
			if keep, score := eval(row, rowVals); keep {
				out = append(out, Match{Path: path, Row: row, Value: rowVals[output], Score: score})
			}
		}
	}
	return out
}

// chooser draws a scenario's choices from bytes, zero once they run
// out, so a fuzzer's mutations map onto the scenario's shape.
type chooser []byte

func (c *chooser) intn(n int) int {
	if n <= 1 || len(*c) == 0 {
		return 0
	}
	v := int((*c)[0])
	*c = (*c)[1:]
	return v % n
}

// evalValues is the pool a scenario's values come from: absent and
// empty values, two keys of UUID width, and short strings.
var evalValues = [][]byte{
	nil, {},
	[]byte("0123456789abcdef"), []byte("fedcba9876543210"),
	[]byte("a"), []byte("ab"), []byte("ba"), []byte("aab"), []byte("bbb"),
}

// evalScore is the ranker of a scenario: any pure function of the
// value serves.
func evalScore(v []byte) float64 {
	s := float64(len(v)) / 3
	for i, b := range v {
		s += float64(b) / float64(i+7)
	}
	return s
}

// evalPred is a compound predicate built twice: as kernels for the run
// loop and as a per-row verdict for the reference.
type evalPred struct {
	kernel Kernel
	row    func(vals [][]byte) bool
}

func genPred(c *chooser, ncols, depth int) evalPred {
	if op := c.intn(4); depth < 2 && op >= 2 {
		kids := make([]evalPred, 2+c.intn(2))
		ks := make([]Kernel, len(kids))
		for i := range kids {
			kids[i] = genPred(c, ncols, depth+1)
			ks[i] = kids[i].kernel
		}
		if op == 2 {
			return evalPred{AndKernel(ks...), func(vals [][]byte) bool {
				for _, k := range kids {
					if !k.row(vals) {
						return false
					}
				}
				return true
			}}
		}
		return evalPred{OrKernel(ks...), func(vals [][]byte) bool {
			for _, k := range kids {
				if k.row(vals) {
					return true
				}
			}
			return false
		}}
	}
	col := c.intn(ncols)
	var kernel Kernel
	var match func(v []byte) bool
	switch c.intn(3) {
	case 0:
		var key [16]byte
		copy(key[:], evalValues[2+c.intn(2)])
		kernel, match = UUIDKernel(col, key), func(v []byte) bool { return bytes.Equal(v, key[:]) }
	case 1:
		pat := []byte([]string{"", "a", "b", "ab", "ba"}[c.intn(5)])
		kernel, match = SubstringKernel(col, pat), func(v []byte) bool { return bytes.Contains(v, pat) }
	default:
		match = func(v []byte) bool { return len(v)%2 == 0 }
		kernel = MatchKernel(col, match)
	}
	return evalPred{kernel, func(vals [][]byte) bool { return vals[col] != nil && match(vals[col]) }}
}

// genColumn makes one column over about rows rows: a scan, which may
// be shorter than the ranges asked for, or pages that start at other
// rows than other columns' pages, leave gaps, and may decode to fewer
// values than they declare (or more).
func genColumn(c *chooser, rows int) (colValues, *refColValues) {
	value := func() []byte { return evalValues[c.intn(len(evalValues))] }
	if c.intn(3) == 0 {
		vals := make([][]byte, c.intn(rows+1))
		for i := range vals {
			vals[i] = value()
		}
		if len(vals) == 0 && c.intn(2) == 0 {
			vals = nil
		}
		return colValues{scan: vals}, &refColValues{scan: parquet.ColumnValues{Bytes: vals}}
	}
	pages := []parquet.Page{}
	for row, ord := int64(c.intn(4)), 0; row < int64(rows); ord++ {
		n := c.intn(7)
		decoded := n
		switch c.intn(6) {
		case 0:
			decoded = c.intn(n + 1)
		case 1:
			decoded = n + 1
		}
		vals := make([][]byte, decoded)
		for i := range vals {
			vals[i] = value()
		}
		pages = append(pages, parquet.Page{
			Info:   parquet.PageInfo{Ordinal: ord, FirstRow: row, NumValues: n},
			Values: parquet.ColumnValues{Bytes: vals},
		})
		row += int64(max(n, 1) + c.intn(2)*c.intn(5))
	}
	return colValues{pages: pages}, &refColValues{pages: pages}
}

// checkEvalRuns builds a scenario from data and checks that the run
// loop, under compiled kernels and under the RowEval adapter, returns
// what the reference row loop returns: the same rows in the same
// order, Values equal and equally nil, Scores bit for bit.
func checkEvalRuns(t *testing.T, data []byte) {
	c := chooser(data)
	rows, ncols := 1+c.intn(40), 1+c.intn(3)
	cols := make([]colValues, ncols)
	refs := make([]*refColValues, ncols)
	for i := range cols {
		cols[i], refs[i] = genColumn(&c, rows)
	}
	var ranges []postings.RowRange
	for i := c.intn(5); i > 0; i-- {
		lo := int64(c.intn(rows + 4))
		ranges = append(ranges, postings.RowRange{Lo: lo, Hi: lo + int64(c.intn(rows+2))})
	}
	var dv *lake.DeletionVector
	if c.intn(2) == 0 {
		dv = lake.NewDeletionVector()
		for i := c.intn(6); i > 0; i-- {
			dv.Add(uint32(c.intn(rows + 4)))
		}
	}
	pred := genPred(&c, ncols, 0)
	kernel, row := pred.kernel, func(_ int64, vals [][]byte) (bool, float64) { return pred.row(vals), 0 }
	if c.intn(3) == 0 {
		// A ranked plan: an optional filter, then a score for every row
		// with a value in the ranker's column.
		vec := c.intn(ncols)
		filter, check := pred.kernel, pred.row
		if c.intn(3) == 0 {
			filter, check = nil, func([][]byte) bool { return true }
		}
		kernel = RankKernel(filter, vec, evalScore)
		row = func(_ int64, vals [][]byte) (bool, float64) {
			if vals[vec] == nil || !check(vals) {
				return false, 0
			}
			return true, evalScore(vals[vec])
		}
	}
	for output := 0; output < ncols; output++ {
		for i := range refs {
			refs[i].cur = 0
		}
		want := referenceEvalRows("f", refs, ranges, dv, row, output)
		for _, via := range []struct {
			name   string
			kernel Kernel
		}{{"kernels", kernel}, {"RowEval", RowEval(row).kernel(ncols)}} {
			for i := range cols {
				cols[i].cur = 0
			}
			got := evalRuns("f", cols, ranges, dv, via.kernel, output)
			if len(got) != len(want) {
				t.Fatalf("%s, output %d: %d matches %v, want %d %v", via.name, output, len(got), got, len(want), want)
			}
			for i := range got {
				g, w := got[i], want[i]
				if g.Path != w.Path || g.Row != w.Row || !bytes.Equal(g.Value, w.Value) || (g.Value == nil) != (w.Value == nil) ||
					math.Float64bits(g.Score) != math.Float64bits(w.Score) {
					t.Fatalf("%s, output %d: match %d = %+v, want %+v", via.name, output, i, g, w)
				}
			}
		}
	}
}

// TestEvalRunsMatchesRowLoop is the differential test of the run loop
// and its kernels against the row loop they replaced, over random
// columns, row ranges (empty, overlapping and past the data),
// deletion vectors, AND/OR trees, rankers and every output column.
func TestEvalRunsMatchesRowLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, 512)
	for trial := 0; trial < 5000; trial++ {
		rng.Read(data)
		checkEvalRuns(t, data)
	}
}

func FuzzEvalRuns(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x27\x02\x01\x05\x03\x00\x02\x01\x04\x06\x02\x03\x01\x00\x02\x03\x01\x03\x02\x01\x00\x04"))
	f.Fuzz(checkEvalRuns)
}
