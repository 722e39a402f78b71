package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"rottnest/internal/component"
	"rottnest/internal/lake"
	"rottnest/internal/objectstore"
	"rottnest/internal/parquet"
	"rottnest/internal/simtime"
	"rottnest/internal/workload"
)

// env bundles a simulated world: clock, store, lake table, client.
// The store is a MemStore metered on the S3 latency model, so searches
// run inside simtime sessions accumulate realistic virtual latency.
type env struct {
	clock *simtime.VirtualClock
	mem   *objectstore.MemStore
	store *objectstore.Stack
	table *lake.Table
	cli   *Client
}

var uuidSchema = parquet.MustSchema(
	parquet.Column{Name: "id", Type: parquet.TypeFixedLenByteArray, TypeLen: 16},
	parquet.Column{Name: "payload", Type: parquet.TypeByteArray},
)

var textSchema = parquet.MustSchema(
	parquet.Column{Name: "body", Type: parquet.TypeByteArray},
)

func vecSchema(dim int) *parquet.Schema {
	return parquet.MustSchema(
		parquet.Column{Name: "emb", Type: parquet.TypeFixedLenByteArray, TypeLen: 4 * dim},
	)
}

func newEnv(t testing.TB, schema *parquet.Schema, cfg Config) *env {
	t.Helper()
	clock := simtime.NewVirtualClock()
	mem := objectstore.NewMemStore(clock)
	model := objectstore.DefaultS3Model()
	store := objectstore.NewStack(mem, objectstore.StackOptions{Latency: &model, CacheBytes: -1})
	table, err := lake.CreateWith(context.Background(), store, "lake", schema, lake.OpenOptions{Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.IndexDir == "" {
		cfg.IndexDir = "rottnest"
	}
	cfg.Clock = clock
	return &env{clock: clock, mem: mem, store: store, table: table, cli: NewClient(table, cfg)}
}

// appendUUIDs appends a batch of uuid rows and returns the keys.
func (e *env) appendUUIDs(t testing.TB, gen *workload.UUIDGen, n int) ([][16]byte, string) {
	t.Helper()
	keys := gen.Batch(n)
	b := parquet.NewBatch(uuidSchema)
	ids := make([][]byte, n)
	payloads := make([][]byte, n)
	for i, k := range keys {
		kk := k
		ids[i] = kk[:]
		payloads[i] = []byte(fmt.Sprintf("payload-%d", i))
	}
	b.Cols[0] = parquet.ColumnValues{Bytes: ids}
	b.Cols[1] = parquet.ColumnValues{Bytes: payloads}
	path, err := e.table.Append(context.Background(), b, parquet.WriterOptions{RowGroupRows: 512, PageBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	return keys, path
}

func (e *env) appendDocs(t testing.TB, docs []string) string {
	t.Helper()
	b := parquet.NewBatch(textSchema)
	vals := make([][]byte, len(docs))
	for i, d := range docs {
		vals[i] = []byte(d)
	}
	b.Cols[0] = parquet.ColumnValues{Bytes: vals}
	path, err := e.table.Append(context.Background(), b, parquet.WriterOptions{RowGroupRows: 256, PageBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	return path
}

func (e *env) appendVectors(t testing.TB, vecs [][]float32) string {
	t.Helper()
	schema := vecSchema(len(vecs[0]))
	b := parquet.NewBatch(schema)
	vals := make([][]byte, len(vecs))
	for i, v := range vecs {
		vals[i] = workload.Float32sToBytes(v)
	}
	b.Cols[0] = parquet.ColumnValues{Bytes: vals}
	path, err := e.table.Append(context.Background(), b, parquet.WriterOptions{RowGroupRows: 512, PageBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	return path
}

func uuidQuery(k [16]byte) Query {
	kk := k
	return Query{Column: "id", UUID: &kk, K: 10, Snapshot: -1}
}

func TestUUIDIndexAndSearchEndToEnd(t *testing.T) {
	ctx := context.Background()
	e := newEnv(t, uuidSchema, Config{})
	gen := workload.NewUUIDGen(1)
	keys1, _ := e.appendUUIDs(t, gen, 2000)
	keys2, _ := e.appendUUIDs(t, gen, 2000)

	entry, err := e.cli.Index(ctx, "id", component.KindTrie)
	if err != nil {
		t.Fatal(err)
	}
	if entry == nil || len(entry.Files) != 2 || entry.Rows != 4000 {
		t.Fatalf("entry = %+v", entry)
	}
	// Idempotent: nothing new.
	again, err := e.cli.Index(ctx, "id", component.KindTrie)
	if err != nil || again != nil {
		t.Fatalf("re-index = %+v, %v", again, err)
	}

	for _, k := range append(keys1[:50:50], keys2[:50]...) {
		res, err := e.cli.Search(ctx, uuidQuery(k))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Matches) != 1 {
			t.Fatalf("matches = %d for key %x", len(res.Matches), k)
		}
		if !bytes.Equal(res.Matches[0].Value, k[:]) {
			t.Fatalf("wrong value returned")
		}
		if res.Stats.IndexFiles != 1 || res.Stats.UnindexedFiles != 0 || res.Stats.FilesScanned != 0 {
			t.Fatalf("stats = %+v", res.Stats)
		}
	}
	// A missing key finds nothing and doesn't scan.
	miss := workload.NewUUIDGen(999).Next()
	res, err := e.cli.Search(ctx, uuidQuery(miss))
	if err != nil {
		t.Fatal(err)
	}
	// With K=10 and <K matches, unindexed files would be scanned —
	// but everything is indexed, so no scans.
	if len(res.Matches) != 0 || res.Stats.FilesScanned != 0 {
		t.Fatalf("miss: %+v", res.Stats)
	}
}

func TestSearchFindsUnindexedViaScan(t *testing.T) {
	ctx := context.Background()
	e := newEnv(t, uuidSchema, Config{})
	gen := workload.NewUUIDGen(2)
	keysOld, _ := e.appendUUIDs(t, gen, 1000)
	if _, err := e.cli.Index(ctx, "id", component.KindTrie); err != nil {
		t.Fatal(err)
	}
	// New data arrives after indexing — the RocksDB-like "newest data
	// unindexed" state.
	keysNew, _ := e.appendUUIDs(t, gen, 1000)

	res, err := e.cli.Search(ctx, uuidQuery(keysNew[42]))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 1 {
		t.Fatalf("unindexed key not found: %+v", res.Stats)
	}
	if res.Stats.FilesScanned != 1 || res.Stats.UnindexedFiles != 1 {
		t.Fatalf("stats = %+v", res.Stats)
	}
	// Indexed keys are still found via the index; the unindexed file
	// is scanned only because matches < K.
	res, err = e.cli.Search(ctx, uuidQuery(keysOld[7]))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 1 {
		t.Fatal("indexed key lost")
	}
}

func TestSearchHonorsSnapshotTimeTravel(t *testing.T) {
	ctx := context.Background()
	e := newEnv(t, uuidSchema, Config{})
	gen := workload.NewUUIDGen(3)
	keys1, _ := e.appendUUIDs(t, gen, 500) // snapshot v2
	keys2, _ := e.appendUUIDs(t, gen, 500) // snapshot v3
	if _, err := e.cli.Index(ctx, "id", component.KindTrie); err != nil {
		t.Fatal(err)
	}
	// Searching snapshot v2 must not see keys2.
	q := uuidQuery(keys2[0])
	q.Snapshot = 2
	res, err := e.cli.Search(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 0 {
		t.Fatal("time travel leaked future rows")
	}
	q = uuidQuery(keys1[0])
	q.Snapshot = 2
	res, err = e.cli.Search(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 1 {
		t.Fatal("time travel lost past rows")
	}
}

func TestDeletionVectorsMaskResults(t *testing.T) {
	ctx := context.Background()
	e := newEnv(t, uuidSchema, Config{})
	gen := workload.NewUUIDGen(4)
	keys, path := e.appendUUIDs(t, gen, 300)
	if _, err := e.cli.Index(ctx, "id", component.KindTrie); err != nil {
		t.Fatal(err)
	}
	// Delete row 42 from the lake; the index still points at it.
	if err := e.table.DeleteRows(ctx, path, []uint32{42}); err != nil {
		t.Fatal(err)
	}
	res, err := e.cli.Search(ctx, uuidQuery(keys[42]))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 0 {
		t.Fatal("deleted row returned")
	}
	// Neighbors survive.
	res, err = e.cli.Search(ctx, uuidQuery(keys[41]))
	if err != nil || len(res.Matches) != 1 {
		t.Fatalf("neighbor lost: %d, %v", len(res.Matches), err)
	}
}

func TestLakeCompactionInvalidatesAndReindexes(t *testing.T) {
	ctx := context.Background()
	e := newEnv(t, uuidSchema, Config{})
	gen := workload.NewUUIDGen(5)
	keys1, _ := e.appendUUIDs(t, gen, 400)
	keys2, _ := e.appendUUIDs(t, gen, 400)
	if _, err := e.cli.Index(ctx, "id", component.KindTrie); err != nil {
		t.Fatal(err)
	}
	// Lake compaction rewrites both files into one new file.
	newPaths, err := e.table.Compact(ctx, 1<<30, 0)
	if err != nil || len(newPaths) == 0 {
		t.Fatalf("lake compact: %v, %v", newPaths, err)
	}
	// The old index now covers zero snapshot files; search must fall
	// back to scanning and still find everything.
	res, err := e.cli.Search(ctx, uuidQuery(keys1[5]))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 1 {
		t.Fatal("row lost after lake compaction")
	}
	if res.Stats.FilesScanned == 0 {
		t.Fatalf("expected scan fallback, stats = %+v", res.Stats)
	}
	// Re-index covers the new files; search uses the index again.
	entry, err := e.cli.Index(ctx, "id", component.KindTrie)
	if err != nil || entry == nil {
		t.Fatalf("re-index: %+v, %v", entry, err)
	}
	res, err = e.cli.Search(ctx, uuidQuery(keys2[7]))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 1 || res.Stats.FilesScanned != 0 {
		t.Fatalf("post-reindex search: %d matches, stats %+v", len(res.Matches), res.Stats)
	}
	if err := e.cli.CheckExistence(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestSubstringIndexAndSearch(t *testing.T) {
	ctx := context.Background()
	e := newEnv(t, textSchema, Config{})
	gen := workload.NewTextGen(workload.DefaultTextConfig(6))
	docs := workload.PlantNeedle(gen.Docs(400), "KlaatuBarada", []int{11, 222})
	e.appendDocs(t, docs)
	e.appendDocs(t, workload.PlantNeedle(gen.Docs(400), "KlaatuBarada", []int{300}))

	if _, err := e.cli.Index(ctx, "body", component.KindFM); err != nil {
		t.Fatal(err)
	}
	res, err := e.cli.Search(ctx, Query{Column: "body", Substring: []byte("KlaatuBarada"), K: 0, Snapshot: -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 3 {
		t.Fatalf("matches = %d, want 3", len(res.Matches))
	}
	for _, m := range res.Matches {
		if !bytes.Contains(m.Value, []byte("KlaatuBarada")) {
			t.Fatal("false positive survived probing")
		}
	}
	// Top-K stops early.
	res, err = e.cli.Search(ctx, Query{Column: "body", Substring: []byte("KlaatuBarada"), K: 1, Snapshot: -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 1 {
		t.Fatalf("K=1 returned %d", len(res.Matches))
	}
	// Absent needle.
	res, err = e.cli.Search(ctx, Query{Column: "body", Substring: []byte("NoSuchNeedleAnywhere"), K: 0, Snapshot: -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 0 {
		t.Fatal("phantom matches")
	}
}

func TestVectorIndexAndSearch(t *testing.T) {
	ctx := context.Background()
	gen := workload.NewVectorGen(workload.VectorConfig{Seed: 7, Dim: 16, Clusters: 16, Spread: 0.15})
	const n = 3000
	vecs := gen.Batch(n)
	e := newEnv(t, vecSchema(16), Config{})
	e.appendVectors(t, vecs)

	if _, err := e.cli.Index(ctx, "emb", component.KindIVFPQ); err != nil {
		t.Fatal(err)
	}
	queries := gen.Queries(20)
	const k = 10
	var recallSum float64
	for _, q := range queries {
		res, err := e.cli.Search(ctx, Query{Column: "emb", Vector: q, K: k, NProbe: 16, Refine: 80, Snapshot: -1})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Matches) != k {
			t.Fatalf("matches = %d", len(res.Matches))
		}
		got := make([]int, len(res.Matches))
		for i, m := range res.Matches {
			got[i] = int(m.Row)
		}
		recallSum += workload.Recall(got, workload.ExactNearest(vecs, q, k))
	}
	if recall := recallSum / float64(len(queries)); recall < 0.75 {
		t.Fatalf("recall@10 = %.3f", recall)
	}
}

func TestVectorSearchMergesUnindexedExactly(t *testing.T) {
	ctx := context.Background()
	gen := workload.NewVectorGen(workload.VectorConfig{Seed: 8, Dim: 8, Clusters: 8, Spread: 0.2})
	e := newEnv(t, vecSchema(8), Config{})
	vecs1 := gen.Batch(1500)
	e.appendVectors(t, vecs1)
	if _, err := e.cli.Index(ctx, "emb", component.KindIVFPQ); err != nil {
		t.Fatal(err)
	}
	// New unindexed vectors, one of which is planted to be the exact
	// query — it must win via the exhaustive scan of unindexed files.
	q := gen.Queries(1)[0]
	vecs2 := gen.Batch(99)
	vecs2 = append(vecs2, q)
	e.appendVectors(t, vecs2)

	res, err := e.cli.Search(ctx, Query{Column: "emb", Vector: q, K: 1, NProbe: 8, Snapshot: -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 1 || res.Matches[0].Score != 0 {
		t.Fatalf("planted exact match lost: %+v", res.Matches)
	}
	if res.Stats.FilesScanned != 1 {
		t.Fatalf("stats = %+v", res.Stats)
	}
}

func TestIndexValidation(t *testing.T) {
	ctx := context.Background()
	e := newEnv(t, uuidSchema, Config{})
	gen := workload.NewUUIDGen(9)
	e.appendUUIDs(t, gen, 100)
	// Wrong column type for kind.
	if _, err := e.cli.Index(ctx, "payload", component.KindTrie); !errors.Is(err, ErrBadColumn) {
		t.Fatalf("trie on byte-array: %v", err)
	}
	if _, err := e.cli.Index(ctx, "id", component.KindFM); !errors.Is(err, ErrBadColumn) {
		t.Fatalf("fm on fixed-len: %v", err)
	}
	if _, err := e.cli.Index(ctx, "missing", component.KindTrie); !errors.Is(err, ErrBadColumn) {
		t.Fatalf("missing column: %v", err)
	}
	// Vector min-rows gate.
	e2 := newEnv(t, vecSchema(8), Config{MinVectorRows: 1000})
	e2.appendVectors(t, workload.NewVectorGen(workload.VectorConfig{Seed: 10, Dim: 8, Clusters: 2}).Batch(100))
	if _, err := e2.cli.Index(ctx, "emb", component.KindIVFPQ); !errors.Is(err, ErrBelowMinRows) {
		t.Fatalf("min rows gate: %v", err)
	}
}

func TestQueryValidation(t *testing.T) {
	ctx := context.Background()
	e := newEnv(t, uuidSchema, Config{})
	gen := workload.NewUUIDGen(11)
	e.appendUUIDs(t, gen, 10)
	if _, err := e.cli.Search(ctx, Query{Column: "id"}); err == nil {
		t.Fatal("query with no predicate accepted")
	}
	k := gen.Next()
	if _, err := e.cli.Search(ctx, Query{Column: "id", UUID: &k, Substring: []byte("x")}); err == nil {
		t.Fatal("query with two predicates accepted")
	}
	if _, err := e.cli.Search(ctx, Query{Column: "id", Vector: []float32{1}, K: 0}); err == nil {
		t.Fatal("vector query without K accepted")
	}
}

func TestCompactMergesIndexFiles(t *testing.T) {
	ctx := context.Background()
	e := newEnv(t, uuidSchema, Config{})
	gen := workload.NewUUIDGen(12)
	var allKeys [][16]byte
	// Five appends, each indexed separately -> five small index files.
	for i := 0; i < 5; i++ {
		keys, _ := e.appendUUIDs(t, gen, 300)
		allKeys = append(allKeys, keys...)
		if _, err := e.cli.Index(ctx, "id", component.KindTrie); err != nil {
			t.Fatal(err)
		}
	}
	entries, _ := e.cli.Meta().ListFor(ctx, "id", component.KindTrie)
	if len(entries) != 5 {
		t.Fatalf("entries = %d", len(entries))
	}

	merged, err := e.cli.Compact(ctx, "id", component.KindTrie, CompactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(merged) != 1 || len(merged[0].Files) != 5 {
		t.Fatalf("merged = %+v", merged)
	}
	// Old entries remain until vacuum; search planning prefers the
	// merged entry (max coverage) and touches one index file.
	res, err := e.cli.Search(ctx, uuidQuery(allKeys[100]))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 1 {
		t.Fatal("key lost after compaction")
	}
	if res.Stats.IndexFiles != 1 {
		t.Fatalf("compacted search touched %d index files", res.Stats.IndexFiles)
	}
	if err := e.cli.CheckExistence(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestVacuumDropsRedundantAndOrphans(t *testing.T) {
	ctx := context.Background()
	e := newEnv(t, uuidSchema, Config{Timeout: time.Hour})
	gen := workload.NewUUIDGen(13)
	var allKeys [][16]byte
	for i := 0; i < 3; i++ {
		keys, _ := e.appendUUIDs(t, gen, 200)
		allKeys = append(allKeys, keys...)
		if _, err := e.cli.Index(ctx, "id", component.KindTrie); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.cli.Compact(ctx, "id", component.KindTrie, CompactOptions{}); err != nil {
		t.Fatal(err)
	}
	// Plant an orphan upload (indexer that died before commit).
	orphan := e.cli.cfg.IndexDir + indexFilePrefix + "deadbeef.index"
	if err := e.store.Put(ctx, orphan, []byte("orphan")); err != nil {
		t.Fatal(err)
	}

	// Young orphan + fresh entries: vacuum drops redundant metadata
	// rows but must keep the young orphan object.
	report, err := e.cli.Vacuum(ctx, VacuumOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(report.DroppedEntries) != 3 || report.KeptEntries != 1 {
		t.Fatalf("report = %+v", report)
	}
	if _, err := e.store.Head(ctx, orphan); err != nil {
		t.Fatal("young orphan deleted before timeout")
	}
	if err := e.cli.CheckExistence(ctx); err != nil {
		t.Fatal(err)
	}

	// After the timeout, physical removal happens.
	e.clock.Advance(2 * time.Hour)
	report, err = e.cli.Vacuum(ctx, VacuumOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(report.RemovedObjects) != 4 { // 3 pre-compaction files + orphan
		t.Fatalf("removed = %v", report.RemovedObjects)
	}
	if _, err := e.store.Head(ctx, orphan); !errors.Is(err, objectstore.ErrNotFound) {
		t.Fatal("orphan survived post-timeout vacuum")
	}
	// Searches still work off the single compacted index.
	res, err := e.cli.Search(ctx, uuidQuery(allKeys[42]))
	if err != nil || len(res.Matches) != 1 {
		t.Fatalf("post-vacuum search: %d, %v", len(res.Matches), err)
	}
	if err := e.cli.CheckExistence(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestIndexAbortsWhenInputVanishes(t *testing.T) {
	ctx := context.Background()
	e := newEnv(t, uuidSchema, Config{})
	gen := workload.NewUUIDGen(16)
	_, path := e.appendUUIDs(t, gen, 100)
	// Simulate lake GC racing the indexer: the file is deleted from
	// under it (still in the snapshot manifest).
	if err := e.store.Delete(ctx, e.table.Root()+path); err != nil {
		t.Fatal(err)
	}
	if _, err := e.cli.Index(ctx, "id", component.KindTrie); !errors.Is(err, ErrAborted) {
		t.Fatalf("err = %v, want ErrAborted", err)
	}
	entries, _ := e.cli.Meta().List(ctx)
	if len(entries) != 0 {
		t.Fatal("aborted index committed metadata")
	}
}

func TestFailedCommitLeavesOrphanNotCorruption(t *testing.T) {
	ctx := context.Background()
	clock := simtime.NewVirtualClock()
	mem := objectstore.NewMemStore(clock)
	// Fail the FIRST meta-table commit PUT (the one after the index
	// file upload), modelling an indexer that dies between upload and
	// commit; subsequent attempts succeed.
	var fired bool
	fs := objectstore.NewFaultStore(mem, func(op objectstore.Op, key string, _ int64) bool {
		if fired || op != objectstore.OpPut || !bytes.Contains([]byte(key), []byte("rottnest/_meta/")) {
			return false
		}
		fired = true
		return true
	})
	table, err := lake.CreateWith(ctx, fs, "lake", uuidSchema, lake.OpenOptions{Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	cli := NewClient(table, Config{Clock: clock, IndexDir: "rottnest"})
	gen := workload.NewUUIDGen(17)
	keys := gen.Batch(50)
	b := parquet.NewBatch(uuidSchema)
	ids := make([][]byte, len(keys))
	pay := make([][]byte, len(keys))
	for i := range keys {
		k := keys[i]
		ids[i] = k[:]
		pay[i] = []byte("x")
	}
	b.Cols[0] = parquet.ColumnValues{Bytes: ids}
	b.Cols[1] = parquet.ColumnValues{Bytes: pay}
	if _, err := table.Append(ctx, b, parquet.WriterOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Index(ctx, "id", component.KindTrie); !errors.Is(err, objectstore.ErrInjected) {
		t.Fatalf("err = %v", err)
	}
	// Existence holds (metadata is empty); the orphan index file sits
	// in the bucket awaiting vacuum, and a retry succeeds.
	if err := cli.CheckExistence(ctx); err != nil {
		t.Fatal(err)
	}
	infos, _ := mem.List(ctx, "rottnest/files/")
	if len(infos) != 1 {
		t.Fatalf("orphans = %d", len(infos))
	}
	// The fault fired once; the retry succeeds (the orphan stays
	// behind for vacuum) and search works.
	if _, err := cli.Index(ctx, "id", component.KindTrie); err != nil {
		t.Fatal(err)
	}
	infos, _ = mem.List(ctx, "rottnest/files/")
	if len(infos) != 2 {
		t.Fatalf("index files = %d, want committed + orphan", len(infos))
	}
	res, err := cli.Search(ctx, uuidQuery(keys[0]))
	if err != nil || len(res.Matches) != 1 {
		t.Fatalf("post-retry search: %d, %v", len(res.Matches), err)
	}
	if err := cli.CheckExistence(ctx); err != nil {
		t.Fatal(err)
	}
}
