package core

import (
	"context"
	"fmt"
	"testing"
	"time"

	"rottnest/internal/component"
	"rottnest/internal/meta"
	"rottnest/internal/parquet"
	"rottnest/internal/simtime"
	"rottnest/internal/workload"
)

var multiSchema = parquet.MustSchema(
	parquet.Column{Name: "id", Type: parquet.TypeFixedLenByteArray, TypeLen: 16},
	parquet.Column{Name: "body", Type: parquet.TypeByteArray},
	parquet.Column{Name: "emb", Type: parquet.TypeFixedLenByteArray, TypeLen: 4 * 8},
)

// appendMulti adds n rows across all three searchable columns.
func appendMulti(t *testing.T, e *env, n int, seed int64) ([][16]byte, []string, [][]float32) {
	t.Helper()
	uuids := workload.NewUUIDGen(seed)
	texts := workload.NewTextGen(workload.DefaultTextConfig(seed))
	vgen := workload.NewVectorGen(workload.VectorConfig{Seed: seed, Dim: 8, Clusters: 8})
	keys := uuids.Batch(n)
	docs := texts.Docs(n)
	vecs := vgen.Batch(n)
	b := parquet.NewBatch(multiSchema)
	ids := make([][]byte, n)
	bodies := make([][]byte, n)
	embs := make([][]byte, n)
	for i := 0; i < n; i++ {
		k := keys[i]
		ids[i] = k[:]
		bodies[i] = []byte(docs[i])
		embs[i] = workload.Float32sToBytes(vecs[i])
	}
	b.Cols[0] = parquet.ColumnValues{Bytes: ids}
	b.Cols[1] = parquet.ColumnValues{Bytes: bodies}
	b.Cols[2] = parquet.ColumnValues{Bytes: embs}
	if _, err := e.table.Append(context.Background(), b, parquet.WriterOptions{RowGroupRows: 256, PageBytes: 2048}); err != nil {
		t.Fatal(err)
	}
	return keys, docs, vecs
}

func TestMultipleIndexKindsCoexist(t *testing.T) {
	ctx := context.Background()
	e := newEnv(t, multiSchema, Config{})
	keys, docs, vecs := appendMulti(t, e, 600, 21)

	for _, spec := range []struct {
		column string
		kind   component.Kind
	}{{"id", component.KindTrie}, {"body", component.KindFM}, {"emb", component.KindIVFPQ}} {
		if _, err := e.cli.Index(ctx, spec.column, spec.kind); err != nil {
			t.Fatalf("index %s: %v", spec.column, err)
		}
	}
	entries, err := e.cli.Meta().List(ctx)
	if err != nil || len(entries) != 3 {
		t.Fatalf("entries = %d, %v", len(entries), err)
	}

	// Each kind answers from its own index without cross-talk.
	res, err := e.cli.Search(ctx, uuidQuery(keys[5]))
	if err != nil || len(res.Matches) != 1 {
		t.Fatalf("uuid: %d, %v", len(res.Matches), err)
	}
	res, err = e.cli.Search(ctx, Query{Column: "body", Substring: []byte(docs[10][:12]), K: 5, Snapshot: -1})
	if err != nil || len(res.Matches) == 0 {
		t.Fatalf("substring: %d, %v", len(res.Matches), err)
	}
	res, err = e.cli.Search(ctx, Query{Column: "emb", Vector: vecs[20], K: 1, NProbe: 8, Snapshot: -1})
	if err != nil || len(res.Matches) != 1 {
		t.Fatalf("vector: %d, %v", len(res.Matches), err)
	}
	if res.Matches[0].Score != 0 {
		t.Fatalf("self-query should find itself at distance 0, got %v", res.Matches[0].Score)
	}
	// Vacuum keeps all three (different groups).
	report, err := e.cli.Vacuum(ctx, VacuumOptions{})
	if err != nil || report.KeptEntries != 3 {
		t.Fatalf("vacuum kept %d, %v", report.KeptEntries, err)
	}
}

func TestVectorSearchHonorsDeletionVectors(t *testing.T) {
	ctx := context.Background()
	e := newEnv(t, multiSchema, Config{})
	_, _, vecs := appendMulti(t, e, 500, 22)
	if _, err := e.cli.Index(ctx, "emb", component.KindIVFPQ); err != nil {
		t.Fatal(err)
	}
	// The exact nearest neighbor of vecs[7] is itself; delete row 7
	// and it must vanish from results.
	snap, _ := e.table.Snapshot(ctx)
	if err := e.table.DeleteRows(ctx, snap.Files[0].Path, []uint32{7}); err != nil {
		t.Fatal(err)
	}
	res, err := e.cli.Search(ctx, Query{Column: "emb", Vector: vecs[7], K: 3, NProbe: 8, Snapshot: -1})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range res.Matches {
		if m.Row == 7 {
			t.Fatal("deleted vector returned")
		}
	}
	if len(res.Matches) != 3 {
		t.Fatalf("matches = %d", len(res.Matches))
	}
}

func TestSearchStaleIndexLocationsFiltered(t *testing.T) {
	// An index covering files that left the snapshot must contribute
	// nothing — its physical locations are filtered at search time.
	ctx := context.Background()
	e := newEnv(t, uuidSchema, Config{})
	gen := workload.NewUUIDGen(23)
	keys, _ := e.appendUUIDs(t, gen, 300)
	if _, err := e.cli.Index(ctx, "id", component.KindTrie); err != nil {
		t.Fatal(err)
	}
	e.appendUUIDs(t, gen, 300)
	if _, err := e.table.Compact(ctx, 1<<30, 0); err != nil {
		t.Fatal(err)
	}
	// All indexed files are gone from the snapshot.
	res, err := e.cli.Search(ctx, uuidQuery(keys[0]))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 1 {
		t.Fatalf("matches = %d", len(res.Matches))
	}
	// The match must come from the scan of the new file, not from a
	// stale pointer into a removed file.
	snap, _ := e.table.Snapshot(ctx)
	if _, ok := snap.File(res.Matches[0].Path); !ok {
		t.Fatalf("match points at non-snapshot file %s", res.Matches[0].Path)
	}
	if res.Stats.CoveredFiles != 0 {
		t.Fatalf("stats claim coverage of stale files: %+v", res.Stats)
	}
}

func TestSearchWidthSerializesWaves(t *testing.T) {
	// With many index files and a narrow search width, virtual
	// latency grows in waves — the mechanism behind Figure 13.
	ctx := context.Background()
	e := newEnv(t, uuidSchema, Config{SearchWidth: 2})
	gen := workload.NewUUIDGen(24)
	var keys [][16]byte
	for i := 0; i < 8; i++ {
		ks, _ := e.appendUUIDs(t, gen, 100)
		keys = append(keys, ks...)
		if _, err := e.cli.Index(ctx, "id", component.KindTrie); err != nil {
			t.Fatal(err)
		}
	}
	narrow := simtime.NewSession()
	if _, err := e.cli.Search(simtime.With(ctx, narrow), uuidQuery(keys[0])); err != nil {
		t.Fatal(err)
	}
	wide := NewClient(e.table, Config{IndexDir: "rottnest", SearchWidth: 64})
	wideSession := simtime.NewSession()
	if _, err := wide.Search(simtime.With(ctx, wideSession), uuidQuery(keys[0])); err != nil {
		t.Fatal(err)
	}
	if narrow.Elapsed() <= wideSession.Elapsed() {
		t.Fatalf("width 2 (%v) should be slower than width 64 (%v)", narrow.Elapsed(), wideSession.Elapsed())
	}
}

func TestIndexAtPinsSnapshot(t *testing.T) {
	ctx := context.Background()
	e := newEnv(t, uuidSchema, Config{})
	gen := workload.NewUUIDGen(25)
	e.appendUUIDs(t, gen, 100) // version 2
	e.appendUUIDs(t, gen, 100) // version 3
	entry, err := e.cli.IndexAt(ctx, "id", component.KindTrie, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(entry.Files) != 1 {
		t.Fatalf("IndexAt(v2) covered %d files", len(entry.Files))
	}
	// A follow-up latest-snapshot index covers only the remainder.
	entry, err = e.cli.Index(ctx, "id", component.KindTrie)
	if err != nil {
		t.Fatal(err)
	}
	if len(entry.Files) != 1 {
		t.Fatalf("follow-up covered %d files", len(entry.Files))
	}
}

func TestSearchZeroSnapshotMeansLatest(t *testing.T) {
	ctx := context.Background()
	e := newEnv(t, uuidSchema, Config{})
	gen := workload.NewUUIDGen(26)
	keys, _ := e.appendUUIDs(t, gen, 50)
	if _, err := e.cli.Index(ctx, "id", component.KindTrie); err != nil {
		t.Fatal(err)
	}
	k := keys[0]
	res, err := e.cli.Search(ctx, Query{Column: "id", UUID: &k, K: 1}) // Snapshot zero value
	if err != nil || len(res.Matches) != 1 {
		t.Fatalf("zero-snapshot search: %d, %v", len(res.Matches), err)
	}
}

func TestClientStatelessAcrossInstances(t *testing.T) {
	// A second client (another process in practice) sees the first
	// client's committed index immediately.
	ctx := context.Background()
	e := newEnv(t, uuidSchema, Config{})
	gen := workload.NewUUIDGen(27)
	keys, _ := e.appendUUIDs(t, gen, 200)
	if _, err := e.cli.Index(ctx, "id", component.KindTrie); err != nil {
		t.Fatal(err)
	}
	other := NewClient(e.table, Config{IndexDir: "rottnest"})
	res, err := other.Search(ctx, uuidQuery(keys[11]))
	if err != nil || len(res.Matches) != 1 {
		t.Fatalf("second client: %d, %v", len(res.Matches), err)
	}
	// And it plans no redundant work.
	again, err := other.Index(ctx, "id", component.KindTrie)
	if err != nil || again != nil {
		t.Fatalf("second client re-indexed: %v, %v", again, err)
	}
}

func TestCoverEntriesGreedy(t *testing.T) {
	active := map[string]bool{"a": true, "b": true, "c": true, "d": true}
	entries := []meta.IndexEntry{
		{IndexKey: "small1", Files: []string{"a"}},
		{IndexKey: "big", Files: []string{"a", "b", "c"}},
		{IndexKey: "small2", Files: []string{"d"}},
		{IndexKey: "redundant", Files: []string{"b", "c"}},
		{IndexKey: "stale", Files: []string{"gone"}},
	}
	chosen, covered := coverEntries(entries, active)
	if len(chosen) != 2 {
		t.Fatalf("chosen = %v", chosen)
	}
	if chosen[0].IndexKey != "big" || chosen[1].IndexKey != "small2" {
		t.Fatalf("greedy order wrong: %s, %s", chosen[0].IndexKey, chosen[1].IndexKey)
	}
	for _, f := range []string{"a", "b", "c", "d"} {
		if !covered[f] {
			t.Fatalf("%s uncovered", f)
		}
	}
	// No active files: nothing chosen.
	chosen, _ = coverEntries(entries, map[string]bool{})
	if len(chosen) != 0 {
		t.Fatalf("chose %d entries for empty snapshot", len(chosen))
	}
}

func TestSearchLatencyAccounting(t *testing.T) {
	ctx := context.Background()
	e := newEnv(t, uuidSchema, Config{})
	gen := workload.NewUUIDGen(28)
	keys, _ := e.appendUUIDs(t, gen, 100)
	if _, err := e.cli.Index(ctx, "id", component.KindTrie); err != nil {
		t.Fatal(err)
	}
	// Without a session, latency is zero but the search still works.
	res, err := e.cli.Search(ctx, uuidQuery(keys[0]))
	if err != nil || res.Stats.Latency != 0 {
		t.Fatalf("no-session latency = %v, %v", res.Stats.Latency, err)
	}
	// With an instrumented store + session, latency accumulates.
	// (env's store is bare MemStore; wrap it here.)
	clock := e.clock
	_ = clock
	sess := simtime.NewSession()
	sess.Add(time.Millisecond) // pre-existing elapsed must not leak in
	res, err = e.cli.Search(simtime.With(ctx, sess), uuidQuery(keys[0]))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Latency < 0 {
		t.Fatalf("latency = %v", res.Stats.Latency)
	}
}

func TestSearchErrorPaths(t *testing.T) {
	ctx := context.Background()
	e := newEnv(t, uuidSchema, Config{})
	gen := workload.NewUUIDGen(29)
	keys, _ := e.appendUUIDs(t, gen, 10)
	k := keys[0]
	// Unknown column.
	if _, err := e.cli.Search(ctx, Query{Column: "nope", UUID: &k, K: 1, Snapshot: -1}); err == nil {
		t.Fatal("unknown column accepted")
	}
	// Wrong kind for column.
	if _, err := e.cli.Search(ctx, Query{Column: "payload", UUID: &k, K: 1, Snapshot: -1}); err == nil {
		t.Fatal("uuid query on text column accepted")
	}
	// Nonexistent snapshot.
	if _, err := e.cli.Search(ctx, Query{Column: "id", UUID: &k, K: 1, Snapshot: 999}); err == nil {
		t.Fatal("missing snapshot accepted")
	}
	// Two predicates, and none.
	if _, err := e.cli.Search(ctx, Query{Column: "id", UUID: &k, Substring: []byte("x"), K: 1, Snapshot: -1}); err == nil {
		t.Fatal("query with UUID and Substring accepted")
	}
	if _, err := e.cli.Search(ctx, Query{Column: "id", K: 1, Snapshot: -1}); err == nil {
		t.Fatal("query with no predicate accepted")
	}
}

func TestCompactBinning(t *testing.T) {
	ctx := context.Background()
	e := newEnv(t, uuidSchema, Config{})
	gen := workload.NewUUIDGen(30)
	for i := 0; i < 6; i++ {
		e.appendUUIDs(t, gen, 100)
		if _, err := e.cli.Index(ctx, "id", component.KindTrie); err != nil {
			t.Fatal(err)
		}
	}
	// Bins of at most 3 entries: 6 entries -> 2 merged outputs.
	merged, err := e.cli.Compact(ctx, "id", component.KindTrie, CompactOptions{MaxBinEntries: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(merged) != 2 {
		t.Fatalf("merged = %d bins", len(merged))
	}
	for _, m := range merged {
		if len(m.Files) != 3 {
			t.Fatalf("bin covers %d files", len(m.Files))
		}
	}
	// Size threshold excluding everything: no-op.
	merged, err = e.cli.Compact(ctx, "id", component.KindTrie, CompactOptions{SmallerThanBytes: 1})
	if err != nil || merged != nil {
		t.Fatalf("threshold compact: %v, %v", merged, err)
	}
}

func TestManifestRoundTrip(t *testing.T) {
	ctx := context.Background()
	e := newEnv(t, uuidSchema, Config{})
	gen := workload.NewUUIDGen(31)
	e.appendUUIDs(t, gen, 100)
	entry, err := e.cli.Index(ctx, "id", component.KindTrie)
	if err != nil {
		t.Fatal(err)
	}
	r, err := component.Open(ctx, e.store, entry.IndexKey, component.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := readManifest(ctx, r)
	if err != nil {
		t.Fatal(err)
	}
	if m.Column != "id" || m.Kind != component.KindTrie || len(m.Files) != 1 {
		t.Fatalf("manifest = %+v", m)
	}
	if m.Files[0].Rows != 100 || len(m.Files[0].Pages) == 0 {
		t.Fatalf("manifest file = %+v", m.Files[0])
	}
	if m.Files[0].Pages.TotalRows() != 100 {
		t.Fatalf("page table rows = %d", m.Files[0].Pages.TotalRows())
	}
}

func TestVacuumKeepSnapshotRetainsOldIndexes(t *testing.T) {
	ctx := context.Background()
	e := newEnv(t, uuidSchema, Config{Timeout: time.Hour})
	gen := workload.NewUUIDGen(32)
	keys, _ := e.appendUUIDs(t, gen, 100)
	if _, err := e.cli.Index(ctx, "id", component.KindTrie); err != nil {
		t.Fatal(err)
	}
	// Lake compaction replaces the file; re-index.
	e.appendUUIDs(t, gen, 100)
	if _, err := e.table.Compact(ctx, 1<<30, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := e.cli.Index(ctx, "id", component.KindTrie); err != nil {
		t.Fatal(err)
	}
	e.clock.Advance(2 * time.Hour)

	// Keeping from version 2 preserves the old index (it covers old
	// snapshot files) — time travel stays fast.
	report, err := e.cli.Vacuum(ctx, VacuumOptions{KeepSnapshot: 2})
	if err != nil {
		t.Fatal(err)
	}
	if report.KeptEntries != 2 {
		t.Fatalf("kept %d entries, want both generations", report.KeptEntries)
	}
	// Old snapshot still searches via its index.
	q := uuidQuery(keys[0])
	q.Snapshot = 2
	res, err := e.cli.Search(ctx, q)
	if err != nil || len(res.Matches) != 1 {
		t.Fatalf("time-travel search: %d, %v", len(res.Matches), err)
	}
	if res.Stats.IndexFiles != 1 || res.Stats.FilesScanned != 0 {
		t.Fatalf("time-travel search fell back to scan: %+v", res.Stats)
	}

	// Keeping only latest drops the old index.
	report, err = e.cli.Vacuum(ctx, VacuumOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if report.KeptEntries != 1 {
		t.Fatalf("latest-only vacuum kept %d", report.KeptEntries)
	}
}

func TestSubstringUnindexedTailAfterBelowMinVector(t *testing.T) {
	// ErrBelowMinRows leaves data unindexed; searches still answer
	// via scan, and once enough rows accumulate indexing succeeds.
	ctx := context.Background()
	gen := workload.NewVectorGen(workload.VectorConfig{Seed: 33, Dim: 8, Clusters: 4})
	e := newEnv(t, vecSchema(8), Config{MinVectorRows: 150})
	e.appendVectors(t, gen.Batch(100))
	if _, err := e.cli.Index(ctx, "emb", component.KindIVFPQ); err == nil {
		t.Fatal("below-min index accepted")
	}
	q := gen.Queries(1)[0]
	res, err := e.cli.Search(ctx, Query{Column: "emb", Vector: q, K: 5, Snapshot: -1})
	if err != nil || len(res.Matches) != 5 {
		t.Fatalf("scan fallback: %d, %v", len(res.Matches), err)
	}
	if res.Stats.FilesScanned != 1 {
		t.Fatalf("stats = %+v", res.Stats)
	}
	e.appendVectors(t, gen.Batch(100))
	if _, err := e.cli.Index(ctx, "emb", component.KindIVFPQ); err != nil {
		t.Fatalf("index after threshold: %v", err)
	}
}

func TestSearchManyConcurrentClients(t *testing.T) {
	// The shared-nothing deployment of Section VIII: independent
	// searcher processes with object storage as the only shared
	// state.
	ctx := context.Background()
	e := newEnv(t, uuidSchema, Config{})
	gen := workload.NewUUIDGen(34)
	keys, _ := e.appendUUIDs(t, gen, 500)
	if _, err := e.cli.Index(ctx, "id", component.KindTrie); err != nil {
		t.Fatal(err)
	}
	const searchers = 8
	errs := make(chan error, searchers)
	for s := 0; s < searchers; s++ {
		go func(s int) {
			cli := NewClient(e.table, Config{IndexDir: "rottnest"})
			for i := 0; i < 10; i++ {
				res, err := cli.Search(ctx, uuidQuery(keys[(s*37+i*11)%len(keys)]))
				if err != nil {
					errs <- fmt.Errorf("searcher %d: %w", s, err)
					return
				}
				if len(res.Matches) != 1 {
					errs <- fmt.Errorf("searcher %d: %d matches", s, len(res.Matches))
					return
				}
			}
			errs <- nil
		}(s)
	}
	for s := 0; s < searchers; s++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

var tsSchema = parquet.MustSchema(
	parquet.Column{Name: "ts", Type: parquet.TypeInt64},
	parquet.Column{Name: "id", Type: parquet.TypeFixedLenByteArray, TypeLen: 16},
)

func TestPartitionPruning(t *testing.T) {
	// Time-partitioned ingest: each batch covers a disjoint hour.
	// A filtered search must touch only the matching partition's
	// files, whether answered by index or scan.
	ctx := context.Background()
	e := newEnv(t, tsSchema, Config{})
	gen := workload.NewUUIDGen(40)
	const perBatch = 200
	var keys [][16]byte
	for hour := 0; hour < 5; hour++ {
		ks := gen.Batch(perBatch)
		keys = append(keys, ks...)
		b := parquet.NewBatch(tsSchema)
		tss := make([]int64, perBatch)
		ids := make([][]byte, perBatch)
		for i := 0; i < perBatch; i++ {
			tss[i] = int64(hour*3600 + i)
			k := ks[i]
			ids[i] = k[:]
		}
		b.Cols[0] = parquet.ColumnValues{Ints: tss}
		b.Cols[1] = parquet.ColumnValues{Bytes: ids}
		if _, err := e.table.Append(ctx, b, parquet.WriterOptions{RowGroupRows: 128, PageBytes: 1024}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.cli.Index(ctx, "id", component.KindTrie); err != nil {
		t.Fatal(err)
	}

	// A key from hour 2 with a filter on hour 2: found, 4 files pruned.
	target := keys[2*perBatch+17]
	q := uuidQuery(target)
	q.Partition = &PartitionFilter{Column: "ts", Min: 2 * 3600, Max: 3*3600 - 1}
	res, err := e.cli.Search(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 1 {
		t.Fatalf("filtered search: %d matches", len(res.Matches))
	}
	if res.Stats.PrunedFiles != 4 || res.Stats.CoveredFiles != 1 {
		t.Fatalf("stats = %+v", res.Stats)
	}
	// Same key filtered to the WRONG hour: nothing (its file pruned).
	q.Partition = &PartitionFilter{Column: "ts", Min: 0, Max: 3599}
	res, err = e.cli.Search(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 0 {
		t.Fatal("filter did not prune the key's partition")
	}
	// Unknown partition column errors.
	q.Partition = &PartitionFilter{Column: "nope", Min: 0, Max: 1}
	if _, err := e.cli.Search(ctx, q); err == nil {
		t.Fatal("unknown partition column accepted")
	}
	// A filter spanning everything prunes nothing.
	q.Partition = &PartitionFilter{Column: "ts", Min: 0, Max: 1 << 40}
	res, err = e.cli.Search(ctx, q)
	if err != nil || res.Stats.PrunedFiles != 0 {
		t.Fatalf("broad filter: %+v, %v", res.Stats, err)
	}
}

func TestSubstringTopKSurvivesTruncationWithDeletes(t *testing.T) {
	// The needle appears in many rows; most are then deleted. A
	// bounded FM lookup (K*8 rows) could land entirely on deleted
	// rows — the search must detect the truncation and retry
	// unbounded so the surviving matches are still found.
	ctx := context.Background()
	e := newEnv(t, textSchema, Config{})
	const n = 600
	docs := make([]string, n)
	for i := range docs {
		docs[i] = fmt.Sprintf("TruncNdl occurrence number %04d", i)
	}
	path := e.appendDocs(t, docs)
	if _, err := e.cli.Index(ctx, "body", component.KindFM); err != nil {
		t.Fatal(err)
	}
	// Delete all but the last 3 occurrences.
	var rows []uint32
	for i := 0; i < n-3; i++ {
		rows = append(rows, uint32(i))
	}
	if err := e.table.DeleteRows(ctx, path, rows); err != nil {
		t.Fatal(err)
	}
	res, err := e.cli.Search(ctx, Query{Column: "body", Substring: []byte("TruncNdl"), K: 3, Snapshot: -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 3 {
		t.Fatalf("matches = %d, want the 3 survivors", len(res.Matches))
	}
	for _, m := range res.Matches {
		if m.Row < n-3 {
			t.Fatalf("deleted row %d returned", m.Row)
		}
	}
}
