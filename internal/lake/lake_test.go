package lake

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"rottnest/internal/objectstore"
	"rottnest/internal/parquet"
	"rottnest/internal/simtime"
	"rottnest/internal/txlog"
)

var tblSchema = parquet.MustSchema(
	parquet.Column{Name: "ts", Type: parquet.TypeInt64},
	parquet.Column{Name: "msg", Type: parquet.TypeByteArray},
)

func msgBatch(msgs ...string) *parquet.Batch {
	b := parquet.NewBatch(tblSchema)
	ints := make([]int64, len(msgs))
	bytes := make([][]byte, len(msgs))
	for i, m := range msgs {
		ints[i] = int64(i)
		bytes[i] = []byte(m)
	}
	b.Cols[0] = parquet.ColumnValues{Ints: ints}
	b.Cols[1] = parquet.ColumnValues{Bytes: bytes}
	return b
}

func newTestTable(t *testing.T) (*Table, *objectstore.MemStore, *simtime.VirtualClock) {
	t.Helper()
	clock := simtime.NewVirtualClock()
	store := objectstore.NewMemStore(clock)
	tbl, err := CreateWith(context.Background(), store, "tbl", tblSchema, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return tbl, store, clock
}

func TestCreateOpenAppendSnapshot(t *testing.T) {
	ctx := context.Background()
	tbl, store, clock := newTestTable(t)

	if _, err := CreateWith(ctx, store, "tbl", tblSchema, OpenOptions{}); err == nil {
		t.Fatal("double create accepted")
	}
	reopened, err := OpenWith(ctx, store, "tbl", OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if reopened.Root() != "tbl/" {
		t.Fatalf("root = %q", reopened.Root())
	}
	// The table runs on its store's clock (objectstore.ClockOf).
	if reopened.Clock() != simtime.Clock(clock) {
		t.Fatalf("table clock %v is not the store's", reopened.Clock())
	}
	// Existence is reported by the first read, not by the open.
	missing, err := OpenWith(ctx, store, "nope", OpenOptions{})
	if err != nil {
		t.Fatalf("open missing: %v", err)
	}
	if _, err := missing.Snapshot(ctx); !errors.Is(err, ErrNoTable) {
		t.Fatalf("snapshot of a missing table: %v", err)
	}

	p1, err := tbl.Append(ctx, msgBatch("a", "b", "c"), parquet.WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := tbl.Append(ctx, msgBatch("d", "e"), parquet.WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := tbl.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Version != 3 {
		t.Fatalf("version = %d", snap.Version)
	}
	if len(snap.Files) != 2 || snap.LiveRows() != 5 {
		t.Fatalf("files=%d live=%d", len(snap.Files), snap.LiveRows())
	}
	if _, ok := snap.File(p1); !ok {
		t.Fatalf("file %s missing from snapshot", p1)
	}
	if _, ok := snap.File(p2); !ok {
		t.Fatalf("file %s missing from snapshot", p2)
	}
	if snap.Schema == nil || len(snap.Schema.Columns) != 2 {
		t.Fatal("schema not carried in snapshot")
	}
}

func TestTimeTravel(t *testing.T) {
	ctx := context.Background()
	tbl, _, _ := newTestTable(t)
	tbl.Append(ctx, msgBatch("a"), parquet.WriterOptions{})
	tbl.Append(ctx, msgBatch("b"), parquet.WriterOptions{})

	old, err := tbl.SnapshotAt(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(old.Files) != 1 || old.LiveRows() != 1 {
		t.Fatalf("v2: files=%d rows=%d", len(old.Files), old.LiveRows())
	}
	if _, err := tbl.SnapshotAt(ctx, 99); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("future snapshot: %v", err)
	}
}

func TestDeletionVectorRoundTrip(t *testing.T) {
	dv := NewDeletionVector()
	for _, r := range []uint32{5, 1, 100000, 5, 42} {
		dv.Add(r)
	}
	if dv.Len() != 4 {
		t.Fatalf("Len = %d", dv.Len())
	}
	parsed, err := ParseDeletionVector(dv.Serialize())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []uint32{1, 5, 42, 100000} {
		if !parsed.Contains(r) {
			t.Fatalf("missing row %d", r)
		}
	}
	if parsed.Contains(2) {
		t.Fatal("phantom row")
	}
	rows := parsed.Rows()
	for i := 1; i < len(rows); i++ {
		if rows[i-1] >= rows[i] {
			t.Fatal("rows not sorted")
		}
	}
	if _, err := ParseDeletionVector([]byte("garbage")); err == nil {
		t.Fatal("garbage accepted")
	}
	var nilDV *DeletionVector
	if nilDV.Contains(1) || nilDV.Len() != 0 || nilDV.Rows() != nil {
		t.Fatal("nil DV behavior")
	}
}

func TestDeletionVectorProperty(t *testing.T) {
	f := func(rows []uint32) bool {
		dv := NewDeletionVector()
		want := make(map[uint32]bool)
		for _, r := range rows {
			dv.Add(r)
			want[r] = true
		}
		parsed, err := ParseDeletionVector(dv.Serialize())
		if err != nil || parsed.Len() != len(want) {
			return false
		}
		for r := range want {
			if !parsed.Contains(r) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteRows(t *testing.T) {
	ctx := context.Background()
	tbl, _, _ := newTestTable(t)
	path, _ := tbl.Append(ctx, msgBatch("a", "b", "c", "d"), parquet.WriterOptions{})

	if err := tbl.DeleteRows(ctx, path, []uint32{1, 3}); err != nil {
		t.Fatal(err)
	}
	snap, _ := tbl.Snapshot(ctx)
	f, _ := snap.File(path)
	if f.Deleted != 2 || f.DVPath == "" {
		t.Fatalf("file after delete: %+v", f)
	}
	if snap.LiveRows() != 2 {
		t.Fatalf("LiveRows = %d", snap.LiveRows())
	}
	dv, err := tbl.ReadDeletionVector(ctx, f)
	if err != nil {
		t.Fatal(err)
	}
	if !dv.Contains(1) || !dv.Contains(3) || dv.Contains(0) {
		t.Fatal("dv contents wrong")
	}

	// Second delete merges with the first.
	if err := tbl.DeleteRows(ctx, path, []uint32{0}); err != nil {
		t.Fatal(err)
	}
	snap, _ = tbl.Snapshot(ctx)
	f, _ = snap.File(path)
	if f.Deleted != 3 {
		t.Fatalf("merged deleted = %d", f.Deleted)
	}

	if err := tbl.DeleteRows(ctx, "data/nope.rpq", []uint32{0}); err == nil {
		t.Fatal("delete from missing file accepted")
	}
}

func TestCompactMergesSmallFilesAndDropsDeleted(t *testing.T) {
	ctx := context.Background()
	tbl, store, _ := newTestTable(t)
	p1, _ := tbl.Append(ctx, msgBatch("a", "b"), parquet.WriterOptions{})
	tbl.Append(ctx, msgBatch("c", "d"), parquet.WriterOptions{})
	tbl.Append(ctx, msgBatch("e"), parquet.WriterOptions{})
	if err := tbl.DeleteRows(ctx, p1, []uint32{0}); err != nil {
		t.Fatal(err)
	}

	newPaths, err := tbl.Compact(ctx, 1<<30, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(newPaths) != 1 {
		t.Fatalf("new files = %v", newPaths)
	}
	snap, _ := tbl.Snapshot(ctx)
	if len(snap.Files) != 1 || snap.Files[0].Path != newPaths[0] {
		t.Fatalf("post-compaction files: %+v", snap.Files)
	}
	if snap.LiveRows() != 4 { // "a" dropped
		t.Fatalf("LiveRows = %d", snap.LiveRows())
	}
	// Contents survive, deleted row gone.
	batch, _, err := parquet.ReadAll(ctx, store, tbl.Root()+newPaths[0])
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, m := range batch.Cols[1].Bytes {
		got[string(m)] = true
	}
	for _, want := range []string{"b", "c", "d", "e"} {
		if !got[want] {
			t.Fatalf("row %q lost in compaction (have %v)", want, got)
		}
	}
	if got["a"] {
		t.Fatal("deleted row resurrected by compaction")
	}
	// Old files remain physically present until vacuum.
	if _, err := store.Head(ctx, tbl.Root()+p1); err != nil {
		t.Fatal("compaction must not physically delete inputs")
	}
}

func TestCompactNoOpCases(t *testing.T) {
	ctx := context.Background()
	tbl, _, _ := newTestTable(t)
	tbl.Append(ctx, msgBatch("a"), parquet.WriterOptions{})
	// Single small file: nothing to merge.
	paths, err := tbl.Compact(ctx, 1<<30, 0)
	if err != nil || paths != nil {
		t.Fatalf("single-file compact: %v, %v", paths, err)
	}
	tbl.Append(ctx, msgBatch("b"), parquet.WriterOptions{})
	// Threshold excludes everything.
	paths, err = tbl.Compact(ctx, 1, 0)
	if err != nil || paths != nil {
		t.Fatalf("below-threshold compact: %v, %v", paths, err)
	}
}

func TestVacuumRemovesUnreferencedOldFiles(t *testing.T) {
	ctx := context.Background()
	tbl, store, clock := newTestTable(t)
	p1, _ := tbl.Append(ctx, msgBatch("a", "b"), parquet.WriterOptions{})
	p2, _ := tbl.Append(ctx, msgBatch("c", "d"), parquet.WriterOptions{})
	if _, err := tbl.Compact(ctx, 1<<30, 0); err != nil {
		t.Fatal(err)
	}
	ver, _ := tbl.Version(ctx)

	// Too young: nothing removed.
	removed, err := tbl.Vacuum(ctx, ver, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 0 {
		t.Fatalf("young files vacuumed: %v", removed)
	}

	clock.Advance(2 * time.Hour)
	removed, err = tbl.Vacuum(ctx, ver, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 2 {
		t.Fatalf("removed = %v", removed)
	}
	for _, p := range []string{p1, p2} {
		if _, err := store.Head(ctx, tbl.Root()+p); !errors.Is(err, objectstore.ErrNotFound) {
			t.Fatalf("%s survived vacuum: %v", p, err)
		}
	}
	// The compacted file survives.
	snap, _ := tbl.Snapshot(ctx)
	for _, f := range snap.Files {
		if _, err := store.Head(ctx, tbl.Root()+f.Path); err != nil {
			t.Fatalf("active file %s vacuumed: %v", f.Path, err)
		}
	}
}

func TestVacuumRespectsTimeTravelHorizon(t *testing.T) {
	ctx := context.Background()
	tbl, store, clock := newTestTable(t)
	p1, _ := tbl.Append(ctx, msgBatch("a"), parquet.WriterOptions{})
	tbl.Append(ctx, msgBatch("b"), parquet.WriterOptions{})
	if _, err := tbl.Compact(ctx, 1<<30, 0); err != nil {
		t.Fatal(err)
	}
	clock.Advance(time.Hour)
	// Keeping from version 2 preserves files of snapshots 2..latest.
	removed, err := tbl.Vacuum(ctx, 2, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 0 {
		t.Fatalf("horizon-protected files vacuumed: %v", removed)
	}
	if _, err := store.Head(ctx, tbl.Root()+p1); err != nil {
		t.Fatal("p1 must survive while version 2 is retained")
	}
}

func TestConcurrentAppendsAllCommit(t *testing.T) {
	ctx := context.Background()
	tbl, _, _ := newTestTable(t)
	const n = 12
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = tbl.Append(ctx, msgBatch(fmt.Sprintf("row-%d", i)), parquet.WriterOptions{})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	snap, err := tbl.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Files) != n || snap.LiveRows() != n {
		t.Fatalf("files=%d rows=%d, want %d", len(snap.Files), snap.LiveRows(), n)
	}
	if snap.Version != n+1 {
		t.Fatalf("version = %d, want %d", snap.Version, n+1)
	}
}

func TestCompactConflictWithConcurrentCompaction(t *testing.T) {
	ctx := context.Background()
	tbl, _, _ := newTestTable(t)
	tbl.Append(ctx, msgBatch("a"), parquet.WriterOptions{})
	tbl.Append(ctx, msgBatch("b"), parquet.WriterOptions{})

	// First compaction succeeds; a second one planned against the old
	// snapshot must observe the conflict.
	if _, err := tbl.Compact(ctx, 1<<30, 0); err != nil {
		t.Fatal(err)
	}
	// DeleteRows against a removed file also conflicts.
	snapBefore, _ := tbl.SnapshotAt(ctx, 3)
	oldFile := snapBefore.Files[0].Path
	if err := tbl.DeleteRows(ctx, oldFile, []uint32{0}); !errors.Is(err, ErrConflict) {
		t.Fatalf("delete on compacted file: %v, want ErrConflict", err)
	}
}

func TestLogVersionKeyRoundTrip(t *testing.T) {
	const dir = "tbl/" + logDir
	key := txlog.RecordKey(dir, 42)
	v, checkpoint, ok := txlog.ParseKey(dir, key)
	if !ok || checkpoint || v != 42 {
		t.Fatalf("round trip: %d, %v, %v", v, checkpoint, ok)
	}
	if _, _, ok := txlog.ParseKey(dir, "tbl/_log/short.json"); ok {
		t.Fatal("bad key parsed")
	}
	if _, _, ok := txlog.ParseKey(dir, "tbl/_log/0000000000000000004x.json"); ok {
		t.Fatal("non-digit key parsed")
	}
}

func TestFileStatsRecordedAndPruned(t *testing.T) {
	ctx := context.Background()
	tbl, _, _ := newTestTable(t)
	// Two batches with disjoint ts ranges (ints 0..2 vs 100..102 via
	// msgBatch's sequential ts column).
	b1 := msgBatch("a", "b", "c")
	b1.Cols[0] = parquet.ColumnValues{Ints: []int64{0, 1, 2}}
	b2 := msgBatch("d", "e", "f")
	b2.Cols[0] = parquet.ColumnValues{Ints: []int64{100, 101, 102}}
	p1, err := tbl.Append(ctx, b1, parquet.WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Append(ctx, b2, parquet.WriterOptions{}); err != nil {
		t.Fatal(err)
	}
	snap, err := tbl.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	f1, ok := snap.File(p1)
	if !ok {
		t.Fatal("file missing")
	}
	s, ok := f1.Stats["ts"]
	if !ok || len(s.Min) == 0 {
		t.Fatalf("ts stats missing: %+v", f1.Stats)
	}
	if got := parquet.DecodeOrderableInt64(s.Min); got != 0 {
		t.Fatalf("min = %d", got)
	}
	if got := parquet.DecodeOrderableInt64(s.Max); got != 2 {
		t.Fatalf("max = %d", got)
	}

	// MayContainRange semantics.
	in := func(lo, hi int64) bool {
		return f1.MayContainRange("ts", parquet.OrderableInt64(lo), parquet.OrderableInt64(hi))
	}
	if !in(0, 0) || !in(2, 50) || !in(-5, 0) {
		t.Fatal("overlapping ranges pruned")
	}
	if in(3, 99) || in(-10, -1) {
		t.Fatal("disjoint ranges kept")
	}
	// Unknown column: always maybe.
	if !f1.MayContainRange("nope", parquet.OrderableInt64(0), parquet.OrderableInt64(1)) {
		t.Fatal("missing stats must not prune")
	}

	// Compaction outputs carry recomputed stats spanning both inputs.
	newPaths, err := tbl.Compact(ctx, 1<<30, 0)
	if err != nil || len(newPaths) != 1 {
		t.Fatalf("compact: %v, %v", newPaths, err)
	}
	snap, _ = tbl.Snapshot(ctx)
	merged, _ := snap.File(newPaths[0])
	ms := merged.Stats["ts"]
	if parquet.DecodeOrderableInt64(ms.Min) != 0 || parquet.DecodeOrderableInt64(ms.Max) != 102 {
		t.Fatalf("merged stats = [%d, %d]", parquet.DecodeOrderableInt64(ms.Min), parquet.DecodeOrderableInt64(ms.Max))
	}
}
