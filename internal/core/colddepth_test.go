package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"rottnest/internal/component"
	"rottnest/internal/lake"
	"rottnest/internal/meta"
	"rottnest/internal/objectstore"
	"rottnest/internal/parquet"
	"rottnest/internal/simtime"
	"rottnest/internal/workload"
)

// coldWorld is a fixed-seed lake of three indexed columns — id/trie,
// body/fm, emb/ivfpq, one index file each — on the S3 latency model,
// shaped like the wall-clock benchmark's search world.
type coldWorld struct {
	clock   *simtime.VirtualClock
	store   *objectstore.Stack
	metrics *objectstore.Metrics
	keys    [][16]byte
	vecs    [][]float32
	needle  string
	// needleRow is a row of the first file holding the needle.
	needleRow int
	// docs is the first file's body column.
	docs []string

	// The generators and the handle files are appended through; the
	// maintenance depth tests grow the lake with more of the same.
	table  *lake.Table
	ids    *workload.UUIDGen
	text   *workload.TextGen
	vecGen *workload.VectorGen
}

const (
	coldDim  = 32
	coldRows = 2048
)

var coldSchema = parquet.MustSchema(
	parquet.Column{Name: "id", Type: parquet.TypeFixedLenByteArray, TypeLen: 16},
	parquet.Column{Name: "body", Type: parquet.TypeByteArray},
	parquet.Column{Name: "emb", Type: parquet.TypeFixedLenByteArray, TypeLen: 4 * coldDim},
)

func newColdWorld(t *testing.T) *coldWorld {
	t.Helper()
	ctx := context.Background()
	w := &coldWorld{
		clock:     simtime.NewVirtualClock(),
		needle:    "Ndl0Xq",
		needleRow: coldRows / 3,
		ids:       workload.NewUUIDGen(7),
		text:      workload.NewTextGen(workload.DefaultTextConfig(1)),
		vecGen:    workload.NewVectorGen(workload.VectorConfig{Seed: 7, Dim: coldDim, Clusters: 64, Spread: 0.18}),
	}
	model := objectstore.DefaultS3Model()
	w.store = objectstore.NewStack(objectstore.NewMemStore(w.clock), objectstore.StackOptions{Latency: &model, CacheBytes: -1})
	w.metrics = w.store.Metrics
	var err error
	if w.table, err = lake.CreateWith(ctx, w.store, "lake", coldSchema, lake.OpenOptions{Clock: w.clock}); err != nil {
		t.Fatal(err)
	}
	w.appendFile(t)
	w.appendFile(t)
	cli := NewClient(w.table, Config{IndexDir: "rottnest", Clock: w.clock})
	for _, spec := range []IndexSpec{{"id", component.KindTrie}, {"body", component.KindFM}, {"emb", component.KindIVFPQ}} {
		if _, err := cli.Index(ctx, spec.Column, spec.Kind); err != nil {
			t.Fatal(err)
		}
	}
	return w
}

// compactVectors appends ten more files, indexes their vectors and
// merges all twelve files' IVF-PQ indexes into one file, which lies
// between component.DefaultTailBytes and component.WholeFileBytes.
func (w *coldWorld) compactVectors(t *testing.T) meta.IndexEntry {
	t.Helper()
	ctx := context.Background()
	for range 10 {
		w.appendFile(t)
	}
	cli := NewClient(w.table, Config{IndexDir: "rottnest", Clock: w.clock})
	if _, err := cli.Index(ctx, "emb", component.KindIVFPQ); err != nil {
		t.Fatal(err)
	}
	merged, err := cli.Compact(ctx, "emb", component.KindIVFPQ, CompactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(merged) != 1 || merged[0].SizeBytes <= component.DefaultTailBytes || merged[0].SizeBytes > component.WholeFileBytes {
		t.Fatalf("compacted IVF-PQ index %+v, want one file of (256 KiB, 1 MiB]", merged)
	}
	return merged[0]
}

// appendFile appends the generators' next coldRows rows as one data
// file; the first file carries the needle and keeps its keys and
// vectors for the queries.
func (w *coldWorld) appendFile(t *testing.T) {
	t.Helper()
	keys, embs := w.ids.Batch(coldRows), w.vecGen.Batch(coldRows)
	docs := w.text.Docs(coldRows)
	if w.keys == nil {
		docs = workload.PlantNeedle(docs, w.needle, []int{w.needleRow, 2 * coldRows / 3})
		w.keys, w.vecs, w.docs = keys, embs, docs
	}
	b := parquet.NewBatch(coldSchema)
	cols := [3][][]byte{}
	for i := 0; i < coldRows; i++ {
		cols[0] = append(cols[0], keys[i][:])
		cols[1] = append(cols[1], []byte(docs[i]))
		cols[2] = append(cols[2], workload.Float32sToBytes(embs[i]))
	}
	for c := range cols {
		b.Cols[c] = parquet.ColumnValues{Bytes: cols[c]}
	}
	if _, err := w.table.Append(context.Background(), b, parquet.WriterOptions{RowGroupRows: 2048, PageBytes: 64 << 10}); err != nil {
		t.Fatal(err)
	}
}

// cold runs one query the way a stateless searcher does — a fresh
// table handle and a fresh default client — and returns its virtual
// latency and the requests it issued.
func (w *coldWorld) cold(t *testing.T, cq CompoundQuery) (*Result, time.Duration, objectstore.Snapshot) {
	t.Helper()
	session := simtime.NewSession()
	ctx := simtime.With(context.Background(), session)
	before := w.metrics.Snapshot()
	table, err := lake.OpenWith(ctx, w.store, "lake", lake.OpenOptions{Clock: w.clock})
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewClient(table, Config{IndexDir: "rottnest", Clock: w.clock}).SearchCompound(ctx, cq)
	if err != nil {
		t.Fatal(err)
	}
	return res, session.Elapsed(), w.metrics.Snapshot().Sub(before)
}

// TestColdPathDepth pins how deep a cold query is, per class: the
// requests it issues and the dependent levels it waits through, each
// level named. A level is one round trip nothing earlier could have
// issued — 60 ms for the LIST, 30 ms for each GET fan — so the virtual
// latency is their sum (plus the model's per-prefix queueing of a wide
// fan, a millisecond at most). An FM probe predicts its walk from the
// root's checkpoints and fetches the BWT blocks and page-map blocks it
// predicts in one fan beside the manifest: a pattern whose prediction
// completes costs one level after the FM tail however long it is,
// where this world's needle once waited on three walk steps and the
// page map. The misses pin what prediction costs when there is little
// to find: a needle with a symbol the text lacks reads no block and
// waits only on the manifest, a common word is one fan like the
// needle, and an absent run of present symbols, which the checkpoints
// cannot prove empty, pays one GET for the page-map block of the rows
// its bounds allow, and no level. An AND whose trie stage rules out
// every file reads nothing of the FM index. An index file of at most
// 1 MiB is read whole at open, so a vector query on an IVF-PQ file past
// the 256 KiB tail waits on no manifest or list fan after it.
func TestColdPathDepth(t *testing.T) {
	w := newColdWorld(t)
	rng := rand.New(rand.NewSource(3))
	vec := append([]float32(nil), w.vecs[100]...)
	for i := range vec {
		vec[i] += float32(rng.NormFloat64() * 0.09)
	}
	needle := PredSubstring("body", []byte(w.needle))
	walk := func(fans int) []string {
		out := []string{"fm tail"}
		for range fans {
			out = append(out, "walk fan")
		}
		return out
	}
	levels := func(parts ...[]string) []string {
		out := []string{"LIST lake log + meta log", "log fans"}
		for _, p := range parts {
			out = append(out, p...)
		}
		return append(out, "data pages")
	}
	miss := func(last ...string) []string {
		return append([]string{"LIST lake log + meta log", "log fans", "fm tail"}, last...)
	}
	for _, tc := range []struct {
		name    string
		expr    *Expr
		output  string
		levels  []string
		gets    int64
		bytes   int64
		matches int
	}{
		{"uuid", PredUUID("id", w.keys[5]), "id", levels([]string{"trie tail"}), 8, 54_860, 1},
		{"substring", needle, "body", levels(walk(1)), 12, 581_310, 2},
		{"vector", PredVector("emb", vec, 8, 40), "emb", levels([]string{"ivfpq tail"}), 9, 571_200, 10},
		{"and(uuid,substring)", And(PredUUID("id", w.keys[w.needleRow]), needle), "id",
			levels([]string{"trie tail"}, walk(1)), 14, 634_135, 1},
		// A third leaf on a column already planned is one more pattern in
		// the same walk and nothing more in the plan.
		{"and(uuid,substring,substring)", And(PredUUID("id", w.keys[w.needleRow]), needle, PredSubstring("body", []byte("Xq"))), "id",
			levels([]string{"trie tail"}, walk(1)), 14, 634_135, 1},
		// An absent key rules out every file at the trie stage, so the
		// FM index is never opened.
		{"and(absent uuid,substring)", And(PredUUID("id", [16]byte{0xff, 1, 2, 3}), needle), "id",
			[]string{"LIST lake log + meta log", "log fans", "trie tail"}, 7, 22_027, 0},
		{"substring miss", PredSubstring("body", []byte("Ndl9Xq")), "body", miss("manifest"), 8, 264_965, 0},
		{"common word", PredSubstring("body", []byte("the")), "body", levels(walk(1)), 13, 805_350, 10},
		{"absent run", PredSubstring("body", []byte("qqqq")), "body", miss("walk fan"), 10, 327_670, 0},
		{"32-byte match", PredSubstring("body", []byte(w.docs[100][:32])), "body", levels(walk(5)), 19, 1_108_580, 1},
		{"32-byte miss", PredSubstring("body", []byte(w.docs[100][:18]+w.docs[200][:14])), "body", miss("walk fan", "walk fan", "walk fan"), 12, 1_074_470, 0},
	} {
		res, elapsed, reqs := w.cold(t, CompoundQuery{Expr: tc.expr, K: 10, Snapshot: -1, Output: tc.output})
		if len(res.Matches) != tc.matches {
			t.Errorf("%s: %d matches, want %d", tc.name, len(res.Matches), tc.matches)
		}
		if reqs.Heads != 0 || reqs.Lists != 2 || reqs.Gets != tc.gets {
			t.Errorf("%s: issued %d HEADs, %d LISTs, %d GETs; want 0, 2, %d", tc.name, reqs.Heads, reqs.Lists, reqs.Gets, tc.gets)
		}
		// Object names are random, and the index files and log records
		// that carry them compress a few bytes shorter or longer from
		// run to run.
		if d := reqs.BytesRead - tc.bytes; d < -512 || d > 512 {
			t.Errorf("%s: read %d B, want %d ± 512", tc.name, reqs.BytesRead, tc.bytes)
		}
		want := 60*time.Millisecond + time.Duration(len(tc.levels)-1)*30*time.Millisecond
		if elapsed < want || elapsed >= want+3*time.Millisecond {
			t.Errorf("%s: %v of virtual time, want %v: %d levels %q", tc.name, elapsed, want, len(tc.levels), tc.levels)
		}
	}

	// An IVF-PQ file past the 256 KiB tail, like the wall-clock
	// benchmark's: its manifest and the lists the query probes sit
	// outside a tail read, and were one fan after it.
	merged := w.compactVectors(t)
	res, elapsed, reqs := w.cold(t, CompoundQuery{Expr: PredVector("emb", vec, 8, 40), K: 10, Snapshot: -1, Output: "emb"})
	// The merge orders its file table by the sources' random names, so
	// which data pages the candidates land on, and how a fan merges
	// them, varies run to run: the row pins levels, not GETs or bytes.
	if len(res.Matches) != 10 || reqs.Lists != 2 {
		t.Errorf("vector over %d B of IVF-PQ: %d matches, %d LISTs; want 10, 2", merged.SizeBytes, len(res.Matches), reqs.Lists)
	}
	// LIST lake log + meta log, log fans, the whole IVF-PQ file, data pages.
	if want := 60*time.Millisecond + 3*30*time.Millisecond; elapsed < want || elapsed >= want+3*time.Millisecond {
		t.Errorf("vector over %d B of IVF-PQ: %v of virtual time, want %v", merged.SizeBytes, elapsed, want)
	}
}

// TestMissingTableSurfacesAtFirstRead: opening is free, so a root with
// no table says so from the search, with the lake's own error.
func TestMissingTableSurfacesAtFirstRead(t *testing.T) {
	w := newColdWorld(t)
	ctx := context.Background()
	table, err := lake.OpenWith(ctx, w.store, "nowhere", lake.OpenOptions{Clock: w.clock})
	if err != nil {
		t.Fatal(err)
	}
	cli := NewClient(table, Config{IndexDir: "rottnest", Clock: w.clock})
	if _, err := cli.SearchCompound(ctx, CompoundQuery{Expr: PredUUID("id", w.keys[0]), K: 1, Snapshot: -1}); !errors.Is(err, lake.ErrNoTable) {
		t.Fatalf("search on a missing table: %v", err)
	}
	if _, err := cli.Status(ctx); !errors.Is(err, lake.ErrNoTable) {
		t.Fatalf("status on a missing table: %v", err)
	}
}
