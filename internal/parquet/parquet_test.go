package parquet

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"rottnest/internal/objectstore"
)

var testSchema = MustSchema(
	Column{Name: "ts", Type: TypeInt64},
	Column{Name: "score", Type: TypeDouble},
	Column{Name: "ok", Type: TypeBool},
	Column{Name: "body", Type: TypeByteArray},
	Column{Name: "id", Type: TypeFixedLenByteArray, TypeLen: 16},
)

func testBatch(t *testing.T, n int, seed int64) *Batch {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := NewBatch(testSchema)
	ints := make([]int64, n)
	doubles := make([]float64, n)
	bools := make([]bool, n)
	bodies := make([][]byte, n)
	ids := make([][]byte, n)
	for i := 0; i < n; i++ {
		ints[i] = 1700000000 + int64(i)
		doubles[i] = rng.NormFloat64()
		bools[i] = rng.Intn(2) == 0
		bodies[i] = []byte(fmt.Sprintf("row-%d-%x", i, rng.Uint64()))
		id := make([]byte, 16)
		rng.Read(id)
		ids[i] = id
	}
	b.Cols[0] = ColumnValues{Ints: ints}
	b.Cols[1] = ColumnValues{Doubles: doubles}
	b.Cols[2] = ColumnValues{Bools: bools}
	b.Cols[3] = ColumnValues{Bytes: bodies}
	b.Cols[4] = ColumnValues{Bytes: ids}
	return b
}

func colsEqual(t *testing.T, col Column, got, want ColumnValues) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("column %s: got %d values, want %d", col.Name, got.Len(), want.Len())
	}
	for i := 0; i < got.Len(); i++ {
		switch col.Type {
		case TypeBool:
			if got.Bools[i] != want.Bools[i] {
				t.Fatalf("column %s row %d: %v != %v", col.Name, i, got.Bools[i], want.Bools[i])
			}
		case TypeInt64:
			if got.Ints[i] != want.Ints[i] {
				t.Fatalf("column %s row %d: %v != %v", col.Name, i, got.Ints[i], want.Ints[i])
			}
		case TypeDouble:
			if got.Doubles[i] != want.Doubles[i] {
				t.Fatalf("column %s row %d: %v != %v", col.Name, i, got.Doubles[i], want.Doubles[i])
			}
		default:
			if !bytes.Equal(got.Bytes[i], want.Bytes[i]) {
				t.Fatalf("column %s row %d: %q != %q", col.Name, i, got.Bytes[i], want.Bytes[i])
			}
		}
	}
}

func TestWriteReadRoundTripAllTypes(t *testing.T) {
	for _, codec := range []Codec{CodecNone, CodecFlate} {
		t.Run(fmt.Sprintf("codec=%d", codec), func(t *testing.T) {
			ctx := context.Background()
			store := objectstore.NewMemStore(nil)
			batch := testBatch(t, 500, 1)
			// Small groups/pages to force multiple of each.
			opts := WriterOptions{RowGroupRows: 120, PageBytes: 512, Codec: codec}
			meta, tables, err := WriteFile(ctx, store, "f.rpq", batch, opts)
			if err != nil {
				t.Fatal(err)
			}
			if meta.NumRows != 500 {
				t.Fatalf("NumRows = %d", meta.NumRows)
			}
			if len(meta.RowGroups) != 5 { // 4x120 + 20
				t.Fatalf("row groups = %d", len(meta.RowGroups))
			}
			if len(tables) != len(testSchema.Columns) {
				t.Fatalf("page tables = %d", len(tables))
			}

			// Traditional path: footer + chunks.
			got, err := ReadFileMeta(ctx, store, "f.rpq")
			if err != nil {
				t.Fatal(err)
			}
			for ci, col := range testSchema.Columns {
				var all ColumnValues
				for gi := range got.RowGroups {
					vals, err := ReadColumnChunk(ctx, store, "f.rpq", got, gi, ci)
					if err != nil {
						t.Fatalf("chunk %d/%d: %v", gi, ci, err)
					}
					all = all.Append(vals)
				}
				colsEqual(t, col, all, batch.Cols[ci])
			}
		})
	}
}

func TestScanColumnMatchesWriterPageTable(t *testing.T) {
	ctx := context.Background()
	store := objectstore.NewMemStore(nil)
	batch := testBatch(t, 777, 2)
	opts := WriterOptions{RowGroupRows: 200, PageBytes: 1024}
	_, writerTables, err := WriteFile(ctx, store, "f.rpq", batch, opts)
	if err != nil {
		t.Fatal(err)
	}
	for ci, col := range testSchema.Columns {
		vals, table, _, err := ScanColumn(ctx, store, "f.rpq", ci)
		if err != nil {
			t.Fatalf("ScanColumn(%d): %v", ci, err)
		}
		colsEqual(t, col, vals, batch.Cols[ci])
		wt := writerTables[ci]
		if len(table) != len(wt) {
			t.Fatalf("column %s: scanned %d pages, writer recorded %d", col.Name, len(table), len(wt))
		}
		for i := range table {
			if table[i] != wt[i] {
				t.Fatalf("column %s page %d: scan %+v != writer %+v", col.Name, i, table[i], wt[i])
			}
		}
		if table.TotalRows() != 777 {
			t.Fatalf("column %s: TotalRows = %d", col.Name, table.TotalRows())
		}
	}
}

func TestOptimizedPageReadsMatchChunkReads(t *testing.T) {
	ctx := context.Background()
	store := objectstore.NewMemStore(nil)
	batch := testBatch(t, 1000, 3)
	opts := WriterOptions{RowGroupRows: 300, PageBytes: 2048}
	_, tables, err := WriteFile(ctx, store, "f.rpq", batch, opts)
	if err != nil {
		t.Fatal(err)
	}
	bodyCol := testSchema.ColumnIndex("body")
	table := tables[bodyCol]
	if len(table) < 4 {
		t.Fatalf("want several pages, got %d", len(table))
	}
	// Read a scattered subset of pages directly.
	subset := []PageInfo{table[0], table[2], table[len(table)-1]}
	pages, err := ReadPages(ctx, store, "f.rpq", testSchema.Columns[bodyCol], subset)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pages {
		for i := 0; i < p.Values.Len(); i++ {
			row := p.Info.FirstRow + int64(i)
			want := batch.Cols[bodyCol].Bytes[row]
			if !bytes.Equal(p.Values.Bytes[i], want) {
				t.Fatalf("page %d row %d: %q != %q", p.Info.Ordinal, row, p.Values.Bytes[i], want)
			}
		}
	}
}

func TestOptimizedReaderBypassesFooter(t *testing.T) {
	ctx := context.Background()
	inner := objectstore.NewMemStore(nil)
	batch := testBatch(t, 400, 4)
	_, tables, err := WriteFile(ctx, inner, "f.rpq", batch, WriterOptions{RowGroupRows: 100, PageBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	store, metrics := objectstore.Instrument(inner, objectstore.DefaultS3Model())
	// One page read = exactly one GET (no footer, no tail probe).
	before := metrics.Snapshot()
	if _, err := ReadPages(ctx, store, "f.rpq", testSchema.Columns[3], tables[3][:1]); err != nil {
		t.Fatal(err)
	}
	delta := metrics.Snapshot().Sub(before)
	if delta.Gets != 1 {
		t.Fatalf("optimized page read issued %d GETs, want 1", delta.Gets)
	}
	// Traditional path needs footer requests first.
	before = metrics.Snapshot()
	meta, err := ReadFileMeta(ctx, store, "f.rpq")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReadColumnChunk(ctx, store, "f.rpq", meta, 0, 3); err != nil {
		t.Fatal(err)
	}
	delta = metrics.Snapshot().Sub(before)
	if delta.Gets < 2 {
		t.Fatalf("traditional read issued %d GETs, want >= 2", delta.Gets)
	}
}

func TestPageTableFindRow(t *testing.T) {
	table := PageTable{
		{Ordinal: 0, FirstRow: 0, NumValues: 10},
		{Ordinal: 1, FirstRow: 10, NumValues: 5},
		{Ordinal: 2, FirstRow: 15, NumValues: 20},
	}
	cases := []struct {
		row  int64
		want int
	}{{0, 0}, {9, 0}, {10, 1}, {14, 1}, {15, 2}, {34, 2}, {35, -1}, {-1, -1}}
	for _, tc := range cases {
		if got := table.FindRow(tc.row); got != tc.want {
			t.Fatalf("FindRow(%d) = %d, want %d", tc.row, got, tc.want)
		}
	}
	if table.TotalRows() != 35 {
		t.Fatalf("TotalRows = %d", table.TotalRows())
	}
	var empty PageTable
	if empty.TotalRows() != 0 || empty.FindRow(0) != -1 {
		t.Fatal("empty table behavior")
	}
}

func TestChunkStatsPruning(t *testing.T) {
	ctx := context.Background()
	store := objectstore.NewMemStore(nil)
	schema := MustSchema(Column{Name: "v", Type: TypeInt64})
	b := NewBatch(schema)
	// Sorted data: stats are useful.
	ints := make([]int64, 300)
	for i := range ints {
		ints[i] = int64(i)
	}
	b.Cols[0] = ColumnValues{Ints: ints}
	meta, _, err := WriteFile(ctx, store, "sorted.rpq", b, WriterOptions{RowGroupRows: 100})
	if err != nil {
		t.Fatal(err)
	}
	// Value 250 can only be in the third group.
	key := orderableInt64(250)
	var candidates int
	for _, g := range meta.RowGroups {
		if StatsMayContain(g.Chunks[0].Min, g.Chunks[0].Max, key) {
			candidates++
		}
	}
	if candidates != 1 {
		t.Fatalf("sorted pruning kept %d groups, want 1", candidates)
	}
	if got := decodeOrderableInt64(meta.RowGroups[0].Chunks[0].Min); got != 0 {
		t.Fatalf("group 0 min = %d", got)
	}
	if got := decodeOrderableInt64(meta.RowGroups[2].Chunks[0].Max); got != 299 {
		t.Fatalf("group 2 max = %d", got)
	}
}

func TestStatsUselessForUnsortedUUIDs(t *testing.T) {
	// Section II-B: on unsorted high-cardinality data, min-max stats
	// prune nothing — every chunk spans nearly the full key space.
	ctx := context.Background()
	store := objectstore.NewMemStore(nil)
	schema := MustSchema(Column{Name: "id", Type: TypeFixedLenByteArray, TypeLen: 16})
	rng := rand.New(rand.NewSource(9))
	b := NewBatch(schema)
	ids := make([][]byte, 1000)
	for i := range ids {
		id := make([]byte, 16)
		rng.Read(id)
		ids[i] = id
	}
	b.Cols[0] = ColumnValues{Bytes: ids}
	meta, _, err := WriteFile(ctx, store, "uuids.rpq", b, WriterOptions{RowGroupRows: 100})
	if err != nil {
		t.Fatal(err)
	}
	probe := make([]byte, 16)
	rng.Read(probe)
	pruned := 0
	for _, g := range meta.RowGroups {
		if !StatsMayContain(g.Chunks[0].Min, g.Chunks[0].Max, probe) {
			pruned++
		}
	}
	if pruned > 2 { // overwhelmingly nothing is pruned
		t.Fatalf("unsorted uuid stats pruned %d of %d groups", pruned, len(meta.RowGroups))
	}
}

func TestTruncatedStatsAreBounds(t *testing.T) {
	long := bytes.Repeat([]byte("z"), 100)
	min := truncateMin(long)
	max := truncateMax(long)
	if bytes.Compare(min, long) > 0 {
		t.Fatal("truncated min exceeds value")
	}
	if bytes.Compare(max, long) < 0 {
		t.Fatal("truncated max below value")
	}
	if len(min) > statTruncate || len(max) > statTruncate+1 {
		t.Fatalf("stat lengths %d/%d", len(min), len(max))
	}
	// All-0xFF prefix cannot be rounded up.
	ff := bytes.Repeat([]byte{0xFF}, 100)
	if got := truncateMax(ff); !bytes.Equal(got, ff) {
		t.Fatal("all-FF max must fall back to the full value")
	}
}

func TestOrderableEncodings(t *testing.T) {
	ints := []int64{-1 << 62, -5, -1, 0, 1, 7, 1 << 40}
	for i := 1; i < len(ints); i++ {
		a, b := orderableInt64(ints[i-1]), orderableInt64(ints[i])
		if bytes.Compare(a, b) >= 0 {
			t.Fatalf("int64 order broken at %d,%d", ints[i-1], ints[i])
		}
		if decodeOrderableInt64(b) != ints[i] {
			t.Fatalf("int64 round trip %d", ints[i])
		}
	}
	doubles := []float64{-1e300, -1.5, -0.0, 0.5, 2.5, 1e300}
	for i := 1; i < len(doubles); i++ {
		a, b := orderableDouble(doubles[i-1]), orderableDouble(doubles[i])
		if bytes.Compare(a, b) >= 0 {
			t.Fatalf("double order broken at %v,%v", doubles[i-1], doubles[i])
		}
		if decodeOrderableDouble(b) != doubles[i] {
			t.Fatalf("double round trip %v", doubles[i])
		}
	}
}

func TestEncodingRoundTripsProperty(t *testing.T) {
	col := Column{Name: "b", Type: TypeByteArray}
	f := func(vals [][]byte) bool {
		for i, v := range vals {
			if v == nil {
				vals[i] = []byte{}
			}
		}
		for _, enc := range []Encoding{EncodingPlain, EncodingDict} {
			body, err := encodeValues(nil, col, enc, ColumnValues{Bytes: vals})
			if err != nil {
				return false
			}
			got, err := decodeValues(col, enc, body, len(vals))
			if err != nil || got.Len() != len(vals) {
				return false
			}
			for i := range vals {
				if !bytes.Equal(got.Bytes[i], vals[i]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDeltaEncodingRoundTripProperty(t *testing.T) {
	col := Column{Name: "i", Type: TypeInt64}
	f := func(vals []int64) bool {
		body, err := encodeValues(nil, col, EncodingDelta, ColumnValues{Ints: vals})
		if err != nil {
			return false
		}
		got, err := decodeValues(col, EncodingDelta, body, len(vals))
		if err != nil {
			return false
		}
		for i := range vals {
			if got.Ints[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDictEncodingCompact(t *testing.T) {
	// Highly repetitive values should dict-encode far smaller than plain.
	vals := make([][]byte, 10000)
	for i := range vals {
		vals[i] = []byte(fmt.Sprintf("level-%d", i%4))
	}
	col := Column{Name: "b", Type: TypeByteArray}
	plain, err := encodeValues(nil, col, EncodingPlain, ColumnValues{Bytes: vals})
	if err != nil {
		t.Fatal(err)
	}
	dict, err := encodeValues(nil, col, EncodingDict, ColumnValues{Bytes: vals})
	if err != nil {
		t.Fatal(err)
	}
	if len(dict)*3 > len(plain) {
		t.Fatalf("dict %d bytes vs plain %d bytes", len(dict), len(plain))
	}
}

func TestWriterEncodingSelection(t *testing.T) {
	w := NewFileWriter(testSchema, WriterOptions{})
	// Repetitive byte arrays -> dict.
	rep := make([][]byte, 2000)
	for i := range rep {
		rep[i] = []byte(fmt.Sprintf("v%d", i%3))
	}
	if got := w.chooseEncoding(Column{Name: "b", Type: TypeByteArray}, ColumnValues{Bytes: rep}); got != EncodingDict {
		t.Fatalf("repetitive -> %v, want dict", got)
	}
	// Unique byte arrays -> plain.
	uniq := make([][]byte, 2000)
	for i := range uniq {
		uniq[i] = []byte(fmt.Sprintf("unique-%d", i))
	}
	if got := w.chooseEncoding(Column{Name: "b", Type: TypeByteArray}, ColumnValues{Bytes: uniq}); got != EncodingPlain {
		t.Fatalf("unique -> %v, want plain", got)
	}
	if got := w.chooseEncoding(Column{Name: "i", Type: TypeInt64}, ColumnValues{}); got != EncodingDelta {
		t.Fatalf("int64 -> %v, want delta", got)
	}
}

func TestSchemaValidation(t *testing.T) {
	if _, err := NewSchema(Column{Name: "", Type: TypeInt64}); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := NewSchema(Column{Name: "a", Type: TypeInt64}, Column{Name: "a", Type: TypeBool}); err == nil {
		t.Fatal("duplicate name accepted")
	}
	if _, err := NewSchema(Column{Name: "f", Type: TypeFixedLenByteArray}); err == nil {
		t.Fatal("fixed-len without TypeLen accepted")
	}
	if _, err := NewSchema(Column{Name: "x", Type: Type(99)}); err == nil {
		t.Fatal("unknown type accepted")
	}
	s := MustSchema(Column{Name: "a", Type: TypeInt64})
	if s.ColumnIndex("a") != 0 || s.ColumnIndex("zz") != -1 {
		t.Fatal("ColumnIndex")
	}
}

func TestBatchValidation(t *testing.T) {
	schema := MustSchema(
		Column{Name: "i", Type: TypeInt64},
		Column{Name: "id", Type: TypeFixedLenByteArray, TypeLen: 4},
	)
	b := NewBatch(schema)
	b.Cols[0] = ColumnValues{Ints: []int64{1, 2}}
	b.Cols[1] = ColumnValues{Bytes: [][]byte{[]byte("abcd")}}
	if err := b.Validate(); err == nil {
		t.Fatal("row count mismatch accepted")
	}
	b.Cols[1] = ColumnValues{Bytes: [][]byte{[]byte("abcd"), []byte("toolong!")}}
	if err := b.Validate(); err == nil {
		t.Fatal("wrong fixed width accepted")
	}
	b.Cols[1] = ColumnValues{Bytes: [][]byte{[]byte("abcd"), []byte("wxyz")}}
	if err := b.Validate(); err != nil {
		t.Fatalf("valid batch rejected: %v", err)
	}
	if b.NumRows() != 2 {
		t.Fatalf("NumRows = %d", b.NumRows())
	}
}

func TestWriterErrors(t *testing.T) {
	w := NewFileWriter(testSchema, WriterOptions{})
	if _, _, err := w.Close(); err != nil {
		t.Fatalf("close empty: %v", err)
	}
	if _, _, err := w.Close(); err == nil {
		t.Fatal("double close accepted")
	}
	if err := w.Append(testBatch(t, 1, 0)); err == nil {
		t.Fatal("append after close accepted")
	}
}

func TestParseFileMetaErrors(t *testing.T) {
	if _, err := ParseFileMeta([]byte("short")); err == nil {
		t.Fatal("short file accepted")
	}
	if _, err := ParseFileMeta(append(make([]byte, 100), []byte("XXXX")...)); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestMultipleAppendsAcrossGroupBoundary(t *testing.T) {
	ctx := context.Background()
	store := objectstore.NewMemStore(nil)
	w := NewFileWriter(testSchema, WriterOptions{RowGroupRows: 150, PageBytes: 600})
	var want *Batch
	for i := 0; i < 7; i++ {
		b := testBatch(t, 60, int64(100+i))
		if want == nil {
			want = b
		} else {
			for ci := range want.Cols {
				want.Cols[ci] = want.Cols[ci].Append(b.Cols[ci])
			}
		}
		if err := w.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	data, meta, err := w.Close()
	if err != nil {
		t.Fatal(err)
	}
	if meta.NumRows != 420 {
		t.Fatalf("NumRows = %d", meta.NumRows)
	}
	if err := store.Put(ctx, "f.rpq", data); err != nil {
		t.Fatal(err)
	}
	for ci, col := range testSchema.Columns {
		vals, _, _, err := ScanColumn(ctx, store, "f.rpq", ci)
		if err != nil {
			t.Fatal(err)
		}
		colsEqual(t, col, vals, want.Cols[ci])
	}
}

// TestIncompressiblePageStoredRaw: a page the codec cannot shrink by an
// eighth — random ids — is written with CodecNone, a text page is
// written with flate, and both read back through the page path and
// the chunk path.
func TestIncompressiblePageStoredRaw(t *testing.T) {
	ctx := context.Background()
	store := objectstore.NewMemStore(nil)
	schema := MustSchema(
		Column{Name: "id", Type: TypeFixedLenByteArray, TypeLen: 16},
		Column{Name: "body", Type: TypeByteArray},
	)
	rng := rand.New(rand.NewSource(5))
	b := NewBatch(schema)
	const n = 2048
	ids, bodies := make([][]byte, n), make([][]byte, n)
	for i := range n {
		ids[i] = make([]byte, 16)
		rng.Read(ids[i])
		bodies[i] = []byte(fmt.Sprintf("the quick brown fox %d jumps over the lazy dog", i%37))
	}
	b.Cols[0], b.Cols[1] = ColumnValues{Bytes: ids}, ColumnValues{Bytes: bodies}
	_, tables, err := WriteFile(ctx, store, "f.rpq", b, WriterOptions{RowGroupRows: n, PageBytes: 64 << 10, DisableDict: true})
	if err != nil {
		t.Fatal(err)
	}
	for ci, want := range []Codec{CodecNone, CodecFlate} {
		col := schema.Columns[ci]
		pages, err := ReadPages(ctx, store, "f.rpq", col, tables[ci])
		if err != nil {
			t.Fatal(err)
		}
		var all ColumnValues
		for pi, p := range pages {
			raw, err := store.GetRange(ctx, "f.rpq", p.Info.Offset, p.Info.Size)
			if err != nil {
				t.Fatal(err)
			}
			h, _, err := parsePageHeader(raw)
			if err != nil {
				t.Fatal(err)
			}
			if h.Codec != want {
				t.Errorf("column %s page %d: codec %d (%d of %d B), want %d", col.Name, pi, h.Codec, h.CompressedSize, h.UncompressedSize, want)
			}
			all = all.Append(p.Values)
		}
		colsEqual(t, col, all, b.Cols[ci])
		meta, err := ReadFileMeta(ctx, store, "f.rpq")
		if err != nil {
			t.Fatal(err)
		}
		chunk, err := ReadColumnChunk(ctx, store, "f.rpq", meta, 0, ci)
		if err != nil {
			t.Fatal(err)
		}
		colsEqual(t, col, chunk, b.Cols[ci])
	}
}
