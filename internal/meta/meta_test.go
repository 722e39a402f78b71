package meta

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"rottnest/internal/component"
	"rottnest/internal/objectstore"
	"rottnest/internal/simtime"
)

func newTable(t *testing.T) (*Table, *objectstore.MemStore) {
	t.Helper()
	clock := simtime.NewVirtualClock()
	store := objectstore.NewMemStore(clock)
	return New(store, clock, "ix/_meta"), store
}

func entry(key, column string, kind component.Kind, files ...string) IndexEntry {
	return IndexEntry{IndexKey: key, Column: column, Kind: kind, Files: files, Rows: int64(len(files)) * 100}
}

func TestInsertListDelete(t *testing.T) {
	ctx := context.Background()
	tbl, _ := newTable(t)

	got, err := tbl.List(ctx)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty list: %v, %v", got, err)
	}
	if err := tbl.Insert(ctx, entry("a.index", "id", component.KindTrie, "f1", "f2")); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert(ctx, entry("b.index", "id", component.KindTrie, "f3")); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert(ctx, entry("c.index", "body", component.KindFM, "f1")); err != nil {
		t.Fatal(err)
	}
	got, err = tbl.List(ctx)
	if err != nil || len(got) != 3 {
		t.Fatalf("list = %d, %v", len(got), err)
	}
	if got[0].CreatedAt.IsZero() {
		t.Fatal("CreatedAt not stamped")
	}
	forID, err := tbl.ListFor(ctx, "id", component.KindTrie)
	if err != nil || len(forID) != 2 {
		t.Fatalf("ListFor = %d, %v", len(forID), err)
	}
	if err := tbl.Delete(ctx, "a.index"); err != nil {
		t.Fatal(err)
	}
	got, _ = tbl.List(ctx)
	if len(got) != 2 {
		t.Fatalf("after delete: %d", len(got))
	}
	// Idempotent delete of missing key.
	if err := tbl.Delete(ctx, "a.index", "nope"); err != nil {
		t.Fatal(err)
	}
	// Empty operations are no-ops.
	if err := tbl.Insert(ctx); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Delete(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentInsertsAllLand(t *testing.T) {
	ctx := context.Background()
	tbl, _ := newTable(t)
	const n = 16
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = tbl.Insert(ctx, entry(fmt.Sprintf("%02d.index", i), "id", component.KindTrie, fmt.Sprintf("f%d", i)))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	got, err := tbl.List(ctx)
	if err != nil || len(got) != n {
		t.Fatalf("list = %d, %v", len(got), err)
	}
}

func TestReplaySemantics(t *testing.T) {
	// Delete-then-insert in separate commits resolves by order.
	ctx := context.Background()
	tbl, _ := newTable(t)
	tbl.Insert(ctx, entry("x.index", "id", component.KindTrie, "f"))
	tbl.Delete(ctx, "x.index")
	tbl.Insert(ctx, entry("x.index", "id", component.KindTrie, "f", "g"))
	got, _ := tbl.List(ctx)
	if len(got) != 1 || len(got[0].Files) != 2 {
		t.Fatalf("replay = %+v", got)
	}
}

func TestLogKeysIgnoreForeignObjects(t *testing.T) {
	ctx := context.Background()
	tbl, store := newTable(t)
	// A stray non-log object under the prefix must not break replay.
	store.Put(ctx, "ix/_meta/README", []byte("not a log entry"))
	if err := tbl.Insert(ctx, entry("a.index", "id", component.KindTrie, "f")); err != nil {
		t.Fatal(err)
	}
	got, err := tbl.List(ctx)
	if err != nil || len(got) != 1 {
		t.Fatalf("list = %v, %v", got, err)
	}
}

func TestMetaCheckpointsBoundReplay(t *testing.T) {
	ctx := context.Background()
	tbl, store := newTable(t)
	const commits = 70
	for i := 0; i < commits; i++ {
		if err := tbl.Insert(ctx, entry(fmt.Sprintf("%03d.index", i), "id", component.KindTrie, "f")); err != nil {
			t.Fatal(err)
		}
	}
	// Checkpoints landed.
	if _, err := store.Head(ctx, tbl.checkpointKey(64)); err != nil {
		t.Fatalf("checkpoint missing: %v", err)
	}
	got, err := tbl.List(ctx)
	if err != nil || len(got) != commits {
		t.Fatalf("list = %d, %v", len(got), err)
	}
	// Replay after a checkpoint reads only the suffix.
	entriesMap, latest, err := tbl.readAll(ctx)
	if err != nil || latest != commits || len(entriesMap) != commits {
		t.Fatalf("readAll: %d entries at v%d, %v", len(entriesMap), latest, err)
	}
	// Deletes replayed over the checkpoint still apply.
	if err := tbl.Delete(ctx, "000.index"); err != nil {
		t.Fatal(err)
	}
	got, _ = tbl.List(ctx)
	if len(got) != commits-1 {
		t.Fatalf("after delete: %d", len(got))
	}
	// Corrupted checkpoint falls back to full replay.
	store.Put(ctx, tbl.checkpointKey(64), []byte("junk"))
	got, err = tbl.List(ctx)
	if err != nil || len(got) != commits-1 {
		t.Fatalf("fallback list = %d, %v", len(got), err)
	}
}

func TestMetaConcurrentCommitsAroundCheckpoint(t *testing.T) {
	// Concurrent inserts racing across the checkpoint boundary must
	// all land and replay correctly.
	ctx := context.Background()
	tbl, _ := newTable(t)
	for i := 0; i < checkpointInterval-4; i++ {
		if err := tbl.Insert(ctx, entry(fmt.Sprintf("pre-%03d.index", i), "id", component.KindTrie, "f")); err != nil {
			t.Fatal(err)
		}
	}
	const racers = 10
	var wg sync.WaitGroup
	errs := make([]error, racers)
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = tbl.Insert(ctx, entry(fmt.Sprintf("race-%03d.index", i), "id", component.KindTrie, "f"))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("racer %d: %v", i, err)
		}
	}
	got, err := tbl.List(ctx)
	if err != nil || len(got) != checkpointInterval-4+racers {
		t.Fatalf("list = %d, %v", len(got), err)
	}
}

// TestListIsListPlusOneFan pins the depth of a meta-log replay past a
// checkpoint: the checkpoint rides the same fan as the records above
// it (LIST 60 ms + one round trip 30 ms on the S3 model; fetching the
// checkpoint first made it 120), and a checkpoint overwritten by
// garbage yields the identical listing from a full replay.
func TestListIsListPlusOneFan(t *testing.T) {
	ctx := context.Background()
	clock := simtime.NewVirtualClock()
	mem := objectstore.NewMemStore(clock)
	store, metrics := objectstore.Instrument(mem, objectstore.DefaultS3Model())
	tbl := New(store, clock, "ix/_meta")
	for i := 0; i < 40; i++ {
		if err := tbl.Insert(ctx, entry(fmt.Sprintf("%03d.index", i), "id", component.KindTrie, "f")); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.Delete(ctx, "007.index"); err != nil { // a delete above the checkpoint
		t.Fatal(err)
	}
	list := func() ([]IndexEntry, objectstore.Snapshot, time.Duration) {
		t.Helper()
		session := simtime.NewSession()
		before := metrics.Snapshot()
		got, err := tbl.List(simtime.With(ctx, session))
		if err != nil {
			t.Fatal(err)
		}
		return got, metrics.Snapshot().Sub(before), session.Elapsed()
	}
	want, reqs, elapsed := list()
	if len(want) != 39 {
		t.Fatalf("list = %d entries, want 39", len(want))
	}
	// The checkpoint at 32 and records 33..41, one round trip (plus the
	// model's per-prefix queueing of a 10-wide fan, under 2 ms).
	if reqs.Lists != 1 || reqs.Gets != 10 {
		t.Fatalf("list issued %+v, want 1 LIST + 10 GETs", reqs)
	}
	if elapsed < 90*time.Millisecond || elapsed >= 95*time.Millisecond {
		t.Fatalf("list took %v of virtual time, want LIST + one fan (90 ms)", elapsed)
	}

	if err := mem.Put(ctx, tbl.checkpointKey(32), []byte("junk")); err != nil {
		t.Fatal(err)
	}
	got, reqs, _ := list()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fallback list differs:\n got %v\nwant %v", got, want)
	}
	if reqs.Lists != 1 || reqs.Gets != 10+41 {
		t.Fatalf("fallback issued %+v, want 1 LIST + the failed fan + all 41 records", reqs)
	}
}
