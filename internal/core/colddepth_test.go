package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"rottnest/internal/component"
	"rottnest/internal/lake"
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

// appendFile appends the generators' next coldRows rows as one data
// file; the first file carries the needle and keeps its keys and
// vectors for the queries.
func (w *coldWorld) appendFile(t *testing.T) {
	t.Helper()
	keys, embs := w.ids.Batch(coldRows), w.vecGen.Batch(coldRows)
	docs := w.text.Docs(coldRows)
	if w.keys == nil {
		docs = workload.PlantNeedle(docs, w.needle, []int{w.needleRow, 2 * coldRows / 3})
		w.keys, w.vecs = keys, embs
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
// fan, a millisecond at most). Which walk steps find their block
// already fetched depends on the data; this world's needle takes three
// of its four fetched steps to the store. What does not depend on the
// data is the distance from the path that HEADed the log on open,
// fetched the last BWT block for occ(c, n) and two more for the second
// step, and listed the meta table once per (column, kind): one level
// more for uuid and vector, three more for a substring and for
// AND(uuid, substring), one HEAD more everywhere, and one LIST more per
// extra distinct leaf.
func TestColdPathDepth(t *testing.T) {
	w := newColdWorld(t)
	rng := rand.New(rand.NewSource(3))
	vec := append([]float32(nil), w.vecs[100]...)
	for i := range vec {
		vec[i] += float32(rng.NormFloat64() * 0.09)
	}
	needle := PredSubstring("body", []byte(w.needle))
	walk := []string{"fm tail", "walk step", "walk step", "walk step", "page map"}
	levels := func(parts ...[]string) []string {
		out := []string{"LIST lake log + meta log", "log fans"}
		for _, p := range parts {
			out = append(out, p...)
		}
		return append(out, "data pages")
	}
	for _, tc := range []struct {
		name    string
		expr    *Expr
		output  string
		levels  []string
		gets    int64
		matches int
	}{
		{"uuid", PredUUID("id", w.keys[5]), "id", levels([]string{"trie tail"}), 8, 1},
		{"substring", needle, "body", levels(walk), 14, 2},
		{"vector", PredVector("emb", vec, 8, 40), "emb", levels([]string{"ivfpq tail"}), 9, 10},
		{"and(uuid,substring)", And(PredUUID("id", w.keys[w.needleRow]), needle), "id",
			levels([]string{"trie tail"}, walk), 16, 1},
		// A third leaf on a column already planned is one more pattern in
		// the same walk and nothing more in the plan.
		{"and(uuid,substring,substring)", And(PredUUID("id", w.keys[w.needleRow]), needle, PredSubstring("body", []byte("Xq"))), "id",
			levels([]string{"trie tail"}, walk), 16, 1},
	} {
		res, elapsed, reqs := w.cold(t, CompoundQuery{Expr: tc.expr, K: 10, Snapshot: -1, Output: tc.output})
		if len(res.Matches) != tc.matches {
			t.Errorf("%s: %d matches, want %d", tc.name, len(res.Matches), tc.matches)
		}
		if reqs.Heads != 0 || reqs.Lists != 2 || reqs.Gets != tc.gets {
			t.Errorf("%s: issued %d HEADs, %d LISTs, %d GETs; want 0, 2, %d", tc.name, reqs.Heads, reqs.Lists, reqs.Gets, tc.gets)
		}
		want := 60*time.Millisecond + time.Duration(len(tc.levels)-1)*30*time.Millisecond
		if elapsed < want || elapsed >= want+3*time.Millisecond {
			t.Errorf("%s: %v of virtual time, want %v: %d levels %q", tc.name, elapsed, want, len(tc.levels), tc.levels)
		}
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
