package meta

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"rottnest/internal/component"
	"rottnest/internal/objectstore"
	"rottnest/internal/simtime"
	"rottnest/internal/txlog"
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
	if _, err := store.Head(ctx, txlog.CheckpointKey(tbl.Root(), 64)); err != nil {
		t.Fatalf("checkpoint missing: %v", err)
	}
	got, err := tbl.List(ctx)
	if err != nil || len(got) != commits {
		t.Fatalf("list = %d, %v", len(got), err)
	}
	// Replay after a checkpoint reads only the suffix.
	entries, latest, err := tbl.log.Read(ctx, -1)
	if err != nil || latest != commits || len(entries) != commits {
		t.Fatalf("read: %d entries at v%d, %v", len(entries), latest, err)
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
	store.Put(ctx, txlog.CheckpointKey(tbl.Root(), 64), []byte("junk"))
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
	for i := 0; i < CheckpointInterval-4; i++ {
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
	if err != nil || len(got) != CheckpointInterval-4+racers {
		t.Fatalf("list = %d, %v", len(got), err)
	}
}

// TestListIsListPlusOneFan pins the depth of a cold meta-log replay
// past a checkpoint: the checkpoint rides the same fan as the records above
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
	// list replays the log through a fresh handle, which remembers
	// nothing of it.
	list := func() ([]IndexEntry, objectstore.Snapshot, time.Duration) {
		t.Helper()
		session := simtime.NewSession()
		before := metrics.Snapshot()
		got, err := New(store, clock, "ix/_meta").List(simtime.With(ctx, session))
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

	if err := mem.Put(ctx, txlog.CheckpointKey(tbl.Root(), 32), []byte("junk")); err != nil {
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

// TestCommitTriesTheSlotAfterTheNewestSeen: a handle that has read or
// written the log commits into the next slot with one conditional PUT
// and no listing; a handle whose memory went stale behind another
// writer finds the slot taken, re-reads, and lands on the new end. The
// log stays contiguous and nothing in it is overwritten either way.
func TestCommitTriesTheSlotAfterTheNewestSeen(t *testing.T) {
	ctx := context.Background()
	clock := simtime.NewVirtualClock()
	mem := objectstore.NewMemStore(clock)
	store, metrics := objectstore.Instrument(mem, objectstore.LatencyModel{})
	a, b := New(store, clock, "ix/_meta"), New(store, clock, "ix/_meta")
	insert := func(tbl *Table, key string) objectstore.Snapshot {
		t.Helper()
		before := metrics.Snapshot()
		if err := tbl.Insert(ctx, entry(key, "id", component.KindTrie, "f")); err != nil {
			t.Fatal(err)
		}
		return metrics.Snapshot().Sub(before)
	}
	direct := objectstore.Snapshot{Puts: 1}
	for _, step := range []struct {
		name string
		tbl  *Table
		key  string
		want objectstore.Snapshot
	}{
		{"first commit of an empty log", a, "1.index", direct},
		// b has seen nothing: slot 1 is taken, one read finds the end.
		{"fresh handle behind one commit", b, "2.index", objectstore.Snapshot{Puts: 2, Lists: 1, Gets: 1}},
		{"handle that just committed", b, "3.index", direct},
		// a still remembers version 1 — and what it put there.
		{"stale handle", a, "4.index", objectstore.Snapshot{Puts: 2, Lists: 1, Gets: 2}},
		{"handle that just re-read", a, "5.index", direct},
	} {
		got := insert(step.tbl, step.key)
		got.BytesRead, got.BytesWritten = 0, 0
		if got != step.want {
			t.Fatalf("%s: issued %+v, want %+v", step.name, got, step.want)
		}
	}
	// A listing also moves the remembered end.
	if _, err := b.List(ctx); err != nil {
		t.Fatal(err)
	}
	if got := insert(b, "6.index"); got.Puts != 1 || got.Lists != 0 {
		t.Fatalf("commit after a listing issued %+v, want one PUT", got)
	}

	// Contiguous, in commit order, each record holding what its writer
	// put there.
	infos, err := mem.List(ctx, "ix/_meta/")
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 6 {
		t.Fatalf("log holds %d objects, want 6", len(infos))
	}
	for i, info := range infos {
		if info.Key != txlog.RecordKey(a.Root(), int64(i+1)) {
			t.Fatalf("log object %d is %s, want %s", i, info.Key, txlog.RecordKey(a.Root(), int64(i+1)))
		}
		data, err := mem.Get(ctx, info.Key)
		if err != nil {
			t.Fatal(err)
		}
		var rec record
		if err := json.Unmarshal(data, &rec); err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("%d.index", i+1); rec.Version != int64(i+1) || len(rec.Inserts) != 1 || rec.Inserts[0].IndexKey != want {
			t.Fatalf("record %d = %+v, want the insert of %s", i+1, rec, want)
		}
	}
	if got, err := New(store, clock, "ix/_meta").List(ctx); err != nil || len(got) != 6 {
		t.Fatalf("list = %d entries, %v; want 6", len(got), err)
	}
}

// alwaysTaken refuses every conditional PUT as if another writer had
// just taken the slot.
type alwaysTaken struct {
	objectstore.Store
	puts int
}

func (s *alwaysTaken) Clock() simtime.Clock { return objectstore.ClockOf(s.Store) }

func (s *alwaysTaken) PutIfAbsent(ctx context.Context, key string, data []byte) error {
	s.puts++
	return objectstore.ErrExists
}

// TestCommitGivesUpAfter32Attempts: a writer that loses every race
// stops, as it always has.
func TestCommitGivesUpAfter32Attempts(t *testing.T) {
	ctx := context.Background()
	clock := simtime.NewVirtualClock()
	store := &alwaysTaken{Store: objectstore.NewMemStore(clock)}
	err := New(store, clock, "ix/_meta").Insert(ctx, entry("a.index", "id", component.KindTrie, "f"))
	if err == nil || store.puts != 32 {
		t.Fatalf("insert = %v after %d conditional PUTs, want an error after 32", err, store.puts)
	}
}

// TestReplayFetchesOnlyWhatTheHandleHasNotSeen: the log is append-only
// and its records immutable, so a handle that has replayed it fetches
// the records above where it stopped — none when nothing was committed
// since — and lists what a fresh handle lists. A log that lost the
// record the handle stopped at is replayed from the start.
func TestReplayFetchesOnlyWhatTheHandleHasNotSeen(t *testing.T) {
	ctx := context.Background()
	clock := simtime.NewVirtualClock()
	mem := objectstore.NewMemStore(clock)
	store, metrics := objectstore.Instrument(mem, objectstore.LatencyModel{})
	writer, reader := New(store, clock, "ix/_meta"), New(store, clock, "ix/_meta")
	list := func(want int, wantGets int64) {
		t.Helper()
		before := metrics.Snapshot()
		got, err := reader.List(ctx)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := New(mem, clock, "ix/_meta").List(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, fresh) || len(got) != want {
			t.Fatalf("list = %d entries, a fresh handle's %d, want %d", len(got), len(fresh), want)
		}
		if reqs := metrics.Snapshot().Sub(before); reqs.Lists != 1 || reqs.Gets != wantGets {
			t.Fatalf("list issued %d LISTs and %d GETs, want 1 and %d", reqs.Lists, reqs.Gets, wantGets)
		}
	}
	insert := func(lo, hi int) {
		t.Helper()
		for i := lo; i < hi; i++ {
			if err := writer.Insert(ctx, entry(fmt.Sprintf("%03d.index", i), "id", component.KindTrie, "f")); err != nil {
				t.Fatal(err)
			}
		}
	}
	insert(0, 5)
	list(5, 5)
	list(5, 0)
	insert(5, 7)
	if err := writer.Delete(ctx, "001.index"); err != nil {
		t.Fatal(err)
	}
	list(6, 3)
	// Past a checkpoint the handle is behind of, the checkpoint is the
	// nearer start: it and the two records above it.
	insert(7, 33)
	list(32, 3)
	list(32, 0)

	if err := mem.Delete(ctx, txlog.RecordKey(reader.Root(), 34)); err != nil {
		t.Fatal(err)
	}
	if err := mem.Delete(ctx, txlog.CheckpointKey(reader.Root(), 32)); err != nil {
		t.Fatal(err)
	}
	list(31, 33)
}

// TestListBesideIsOneFan: a listing whose LIST covers the table's
// parent prefix lists the same entries at the log's version, hands
// beside exactly the objects outside the table, and runs it in the
// fan of the log records: reading those objects there costs no
// level. An empty table runs no beside.
func TestListBesideIsOneFan(t *testing.T) {
	ctx := context.Background()
	clock := simtime.NewVirtualClock()
	mem := objectstore.NewMemStore(clock)
	store, metrics := objectstore.Instrument(mem, objectstore.DefaultS3Model())
	empty := New(store, clock, "ix/_meta")
	if _, version, err := empty.ListBeside(ctx, "ix/", func(context.Context, []objectstore.ObjectInfo) {
		t.Error("beside ran on an empty table")
	}); err != nil || version != 0 {
		t.Fatalf("empty table: version %d, %v", version, err)
	}
	others := []string{"ix/files/a/fm/1.index", "ix/files/b.index", "ix/readme"}
	for _, key := range others {
		if err := store.Put(ctx, key, []byte(key)); err != nil {
			t.Fatal(err)
		}
	}
	tbl := New(store, clock, "ix/_meta")
	for i := 0; i < 5; i++ {
		if err := tbl.Insert(ctx, entry(fmt.Sprintf("%03d.index", i), "id", component.KindTrie, "f")); err != nil {
			t.Fatal(err)
		}
	}
	want, err := New(store, clock, "ix/_meta").List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	session := simtime.NewSession()
	before := metrics.Snapshot()
	var seen []string
	got, version, err := New(store, clock, "ix/_meta").ListBeside(simtime.With(ctx, session), "ix/", func(ctx context.Context, listed []objectstore.ObjectInfo) {
		reqs := make([]objectstore.RangeRequest, len(listed))
		for i, info := range listed {
			reqs[i] = objectstore.RangeRequest{Key: info.Key, Length: -1}
			seen = append(seen, info.Key)
		}
		if _, err := objectstore.FanGet(ctx, store, reqs); err != nil {
			t.Error(err)
		}
	})
	reqs, elapsed := metrics.Snapshot().Sub(before), session.Elapsed()
	if err != nil || version != 5 || !reflect.DeepEqual(got, want) {
		t.Fatalf("ListBeside = %v at %d, %v; List = %v at 5", got, version, err, want)
	}
	if !reflect.DeepEqual(seen, others) {
		t.Fatalf("beside got %v, want %v", seen, others)
	}
	// One LIST, then the five records beside the three other objects.
	if reqs.Lists != 1 || reqs.Gets != 8 {
		t.Fatalf("ListBeside issued %+v, want 1 LIST + 8 GETs", reqs)
	}
	if elapsed < 90*time.Millisecond || elapsed >= 95*time.Millisecond {
		t.Fatalf("ListBeside took %v of virtual time, want LIST + one fan (90 ms)", elapsed)
	}
}
