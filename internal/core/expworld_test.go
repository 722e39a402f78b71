package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"rottnest/internal/component"
	"rottnest/internal/objectstore"
	"rottnest/internal/parquet"
	"rottnest/internal/simtime"
	"rottnest/internal/workload"
)

// The request-count tests of the serving, multi-predicate and planner
// workloads (requests_test.go) and of maintenance on a unit-latency
// store (maintdepth_test.go) run on the deployments below, at seed 13
// and the sizes rottnest-bench -quick uses for its experiments: the
// counts they pin are exact for that world, so a change that moves
// one re-pins it like a golden hash.

// expSeed is the seed every pinned experiment world is built from.
const expSeed = 13

// newExpWorld is newEnvOn with the client's caches and probe batching
// off unless cfg turns them on: the paper's uncached read path.
func newExpWorld(t testing.TB, model objectstore.LatencyModel, schema *parquet.Schema, cfg Config) *env {
	t.Helper()
	for _, knob := range []*int64{&cfg.CacheBytes, &cfg.DecodedCacheBytes} {
		if *knob == 0 {
			*knob = -1
		}
	}
	if cfg.PlanCacheTTLVersions == 0 {
		cfg.PlanCacheTTLVersions = -1
	}
	return newEnvOn(t, model, schema, cfg)
}

// appendColumns appends one data file whose column c holds cols[c].
func (e *env) appendColumns(t testing.TB, opts parquet.WriterOptions, cols ...[][]byte) {
	t.Helper()
	b := parquet.NewBatch(e.schema)
	for c, vals := range cols {
		b.Cols[c] = parquet.ColumnValues{Bytes: vals}
	}
	if _, err := e.table.Append(context.Background(), b, opts); err != nil {
		t.Fatal(err)
	}
}

// indexAndCompact brings the (column, kind) index up to date, merges
// it into one file and vacuums what the merge replaced.
func (e *env) indexAndCompact(t testing.TB, column string, kind component.Kind) {
	t.Helper()
	ctx := session(context.Background())
	if _, err := e.cli.Index(ctx, column, kind); err != nil {
		t.Fatal(err)
	}
	if _, err := e.cli.Compact(ctx, column, kind, CompactOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.cli.Vacuum(ctx, VacuumOptions{}); err != nil {
		t.Fatal(err)
	}
}

// gets runs fn and returns the GETs it issued, on its own tally.
func gets(t testing.TB, fn func(ctx context.Context) error) int64 {
	t.Helper()
	var m objectstore.Metrics
	if err := fn(objectstore.WithTally(context.Background(), &m)); err != nil {
		t.Fatal(err)
	}
	return m.Snapshot().Gets
}

// session is ctx under a fresh virtual-time session: one query's.
func session(ctx context.Context) context.Context {
	return simtime.With(ctx, simtime.NewSession())
}

// keyBytes is keys as column values.
func keyBytes(keys [][16]byte) [][]byte {
	vals := make([][]byte, len(keys))
	for i := range keys {
		vals[i] = keys[i][:]
	}
	return vals
}

// strBytes is strs as column values.
func strBytes(strs []string) [][]byte {
	vals := make([][]byte, len(strs))
	for i, s := range strs {
		vals[i] = []byte(s)
	}
	return vals
}

// zipfStream replays a Zipf(1.2) query stream the way concurrent
// serving clients do: `clients` goroutines share the deployment,
// client c draws perClient ranks over [0, universe) from its own
// source (seed + c·7919), and each query runs under a fresh
// virtual-time session. do runs rank q; a client stops at its first
// error.
func zipfStream(ctx context.Context, clients, perClient, universe int, seed int64, do func(ctx context.Context, q int) error) error {
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			zipf := rand.NewZipf(rand.New(rand.NewSource(seed+int64(c)*7919)), 1.2, 1, uint64(universe-1))
			for i := 0; i < perClient && errs[c] == nil; i++ {
				errs[c] = do(session(ctx), int(zipf.Uint64()))
			}
		}(c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

var (
	expUUIDSchema = parquet.MustSchema(parquet.Column{Name: "id", Type: parquet.TypeFixedLenByteArray, TypeLen: 16})
	expPairSchema = parquet.MustSchema(
		parquet.Column{Name: "id", Type: parquet.TypeFixedLenByteArray, TypeLen: 16},
		parquet.Column{Name: "body", Type: parquet.TypeByteArray},
	)
)

// expUUIDWorld is batches files of rows keys each under a compacted
// trie, and n point lookups of keys it holds.
func expUUIDWorld(t testing.TB, batches, rows, n int, cfg Config) (*env, []Query) {
	t.Helper()
	w := newExpWorld(t, objectstore.DefaultS3Model(), expUUIDSchema, cfg)
	gen := workload.NewUUIDGen(expSeed)
	var keys [][16]byte
	for b := 0; b < batches; b++ {
		ks := gen.Batch(rows)
		keys = append(keys, ks...)
		w.appendColumns(t, parquet.WriterOptions{RowGroupRows: 1024, PageBytes: 16 << 10}, keyBytes(ks))
	}
	w.indexAndCompact(t, "id", component.KindTrie)
	qs := make([]Query, n)
	for i := range qs {
		k := keys[(i*7919)%len(keys)]
		qs[i] = Query{Column: "id", UUID: &k, K: 10, Snapshot: -1}
	}
	return w, qs
}

// expTextWorld is batches files of docs documents each, file b
// carrying the needle "Ndl<b>Xq" twice, under a compacted FM index,
// and n substring searches for the needles.
func expTextWorld(t testing.TB, batches, docs, n int, cfg Config) (*env, []Query) {
	t.Helper()
	w := newExpWorld(t, objectstore.DefaultS3Model(), textSchema, cfg)
	gen := workload.NewTextGen(workload.DefaultTextConfig(expSeed))
	var needles []string
	for b := 0; b < batches; b++ {
		needle := fmt.Sprintf("Ndl%dXq", b)
		needles = append(needles, needle)
		d := workload.PlantNeedle(gen.Docs(docs), needle, []int{docs / 3, 2 * docs / 3})
		w.appendColumns(t, parquet.WriterOptions{RowGroupRows: 256, PageBytes: 32 << 10}, strBytes(d))
	}
	w.indexAndCompact(t, "body", component.KindFM)
	qs := make([]Query, n)
	for i := range qs {
		qs[i] = Query{Column: "body", Substring: []byte(needles[i%len(needles)]), K: 10, Snapshot: -1}
	}
	return w, qs
}

// expVectorWorld is one file of rows dim-wide vectors from a 64-cluster
// mixture under an IVF-PQ index, and n top-10 queries near it.
func expVectorWorld(t testing.TB, rows, dim, n int, cfg Config) (*env, []Query) {
	t.Helper()
	w := newExpWorld(t, objectstore.DefaultS3Model(), vecSchema(dim), cfg)
	gen := workload.NewVectorGen(workload.VectorConfig{Seed: expSeed, Dim: dim, Clusters: 64, Spread: 0.18})
	vecs := gen.Batch(rows)
	vals := make([][]byte, rows)
	for i, v := range vecs {
		vals[i] = workload.Float32sToBytes(v)
	}
	w.appendColumns(t, parquet.WriterOptions{RowGroupRows: 512, PageBytes: 64 << 10}, vals)
	w.indexAndCompact(t, "emb", component.KindIVFPQ)
	qs := make([]Query, n)
	for i, qv := range gen.Queries(n) {
		qs[i] = Query{Column: "emb", Vector: qv, K: 10, NProbe: 4, Refine: 2, Snapshot: -1}
	}
	return w, qs
}

// pairWorld is two indexed columns over the same rows: unique keys
// under a trie and documents under an FM index, batch b's documents
// carrying the needle "Ndl<b>Xq" at a quarter, half and three quarters
// of the batch.
type pairWorld struct {
	*env
	rows    int
	keys    [][16]byte
	needles []string
}

func newPairWorld(t testing.TB, seed int64, batches, rows int, cfg Config) *pairWorld {
	t.Helper()
	w := &pairWorld{env: newExpWorld(t, objectstore.DefaultS3Model(), expPairSchema, cfg), rows: rows}
	ids := workload.NewUUIDGen(seed)
	text := workload.NewTextGen(workload.DefaultTextConfig(seed))
	for b := 0; b < batches; b++ {
		ks, docs := ids.Batch(rows), text.Docs(rows)
		needle := fmt.Sprintf("Ndl%dXq", b)
		docs = workload.PlantNeedle(docs, needle, w.needleRows())
		w.keys = append(w.keys, ks...)
		w.needles = append(w.needles, needle)
		w.appendColumns(t, parquet.WriterOptions{RowGroupRows: 256, PageBytes: 4 << 10}, keyBytes(ks), strBytes(docs))
	}
	w.indexAndCompact(t, "id", component.KindTrie)
	w.indexAndCompact(t, "body", component.KindFM)
	return w
}

// needleRows are the rows of each batch that carry its needle.
func (w *pairWorld) needleRows() []int { return []int{w.rows / 4, w.rows / 2, 3 * w.rows / 4} }

// pair is the i-th (key, needle) pair: a needled row's key and its
// batch's needle, so their AND is nonempty.
func (w *pairWorld) pair(i int) ([16]byte, []byte) {
	b := i % len(w.needles)
	rows := w.needleRows()
	return w.keys[b*w.rows+rows[i%len(rows)]], []byte(w.needles[b])
}

// and is the AND(uuid, substring) query of the i-th pair.
func (w *pairWorld) and(i int) CompoundQuery {
	key, needle := w.pair(i)
	return CompoundQuery{Expr: And(PredUUID("id", key), PredSubstring("body", needle)), Snapshot: -1, Output: "body"}
}
