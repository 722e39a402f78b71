package lake

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"rottnest/internal/objectstore"
	"rottnest/internal/parquet"
	"rottnest/internal/simtime"
	"rottnest/internal/txlog"
)

func TestCheckpointsBoundReplay(t *testing.T) {
	ctx := context.Background()
	clock := simtime.NewVirtualClock()
	mem := objectstore.NewMemStore(clock)
	store, metrics := objectstore.Instrument(mem, objectstore.DefaultS3Model())
	tbl, err := CreateWith(ctx, store, "tbl", tblSchema, OpenOptions{Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	const appends = 70
	for i := 0; i < appends; i++ {
		if _, err := tbl.Append(ctx, msgBatch(fmt.Sprintf("row-%d", i)), parquet.WriterOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	// Checkpoints exist at versions 32 and 64.
	for _, v := range []int64{32, 64} {
		if _, err := store.Head(ctx, txlog.CheckpointKey("tbl/_log/", v)); err != nil {
			t.Fatalf("checkpoint at %d missing: %v", v, err)
		}
	}

	// A fresh handle's snapshot replays only the post-checkpoint suffix:
	// one LIST + one checkpoint GET + (71-64) commit GETs.
	fresh, _ := OpenWith(ctx, store, "tbl", OpenOptions{Clock: clock})
	before := metrics.Snapshot()
	snap, err := fresh.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	delta := metrics.Snapshot().Sub(before)
	if snap.Version != appends+1 || snap.LiveRows() != appends {
		t.Fatalf("snapshot = v%d, %d rows", snap.Version, snap.LiveRows())
	}
	if delta.Gets != 8 {
		t.Fatalf("snapshot construction used %d GETs, want the checkpoint and 7 commits", delta.Gets)
	}
	// The handle that wrote the log remembers it: a LIST, nothing else.
	before = metrics.Snapshot()
	own, err := tbl.Snapshot(ctx)
	if delta := metrics.Snapshot().Sub(before); err != nil || delta.Lists != 1 || delta.Gets != 0 || !reflect.DeepEqual(own, snap) {
		t.Fatalf("writer's snapshot issued %+v (%v), equal to a fresh one: %v", delta, err, reflect.DeepEqual(own, snap))
	}

	// Time travel to a pre-checkpoint version still works (replays
	// from scratch, no checkpoint at or below it besides... v32 > 5).
	old, err := tbl.SnapshotAt(ctx, 5)
	if err != nil || old.LiveRows() != 4 {
		t.Fatalf("time travel: %v, %v", old, err)
	}
	// And to a version between checkpoints.
	mid, err := tbl.SnapshotAt(ctx, 50)
	if err != nil || mid.LiveRows() != 49 {
		t.Fatalf("mid travel: %+v, %v", mid, err)
	}
}

func TestCheckpointCorruptionFallsBack(t *testing.T) {
	ctx := context.Background()
	clock := simtime.NewVirtualClock()
	store := objectstore.NewMemStore(clock)
	tbl, err := CreateWith(ctx, store, "tbl", tblSchema, OpenOptions{Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if _, err := tbl.Append(ctx, msgBatch("x"), parquet.WriterOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	// Corrupt the checkpoint: snapshots must fall back to full
	// replay and still be correct.
	if err := store.Put(ctx, txlog.CheckpointKey("tbl/_log/", 32), []byte("not json")); err != nil {
		t.Fatal(err)
	}
	fresh, _ := OpenWith(ctx, store, "tbl", OpenOptions{Clock: clock})
	snap, err := fresh.Snapshot(ctx)
	if err != nil || snap.LiveRows() != 40 {
		t.Fatalf("fallback snapshot: %v, %v", snap, err)
	}
}

func TestCheckpointKeysDoNotConfuseVersioning(t *testing.T) {
	ctx := context.Background()
	tbl, _, _ := newTestTable(t)
	for i := 0; i < CheckpointInterval+2; i++ {
		if _, err := tbl.Append(ctx, msgBatch("x"), parquet.WriterOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	v, err := tbl.Version(ctx)
	if err != nil || v != int64(CheckpointInterval+3) {
		t.Fatalf("Version = %d, %v", v, err)
	}
	if v, checkpoint, ok := txlog.ParseKey("tbl/_log/", txlog.CheckpointKey("tbl/_log/", 32)); !ok || !checkpoint || v != 32 {
		t.Fatal("checkpoint key round trip")
	}
	if _, checkpoint, ok := txlog.ParseKey("tbl/_log/", txlog.RecordKey("tbl/_log/", 32)); !ok || checkpoint {
		t.Fatal("commit key parsed as checkpoint")
	}
}

// TestSnapshotIsListPlusOneFan pins the depth of a log replay past a
// checkpoint: the LIST names the checkpoint and the entries above it,
// so they arrive in one fan — 60 ms + 30 ms on the S3 model, where
// fetching the checkpoint first made it 120. A checkpoint that does
// not parse costs a second fan and yields the identical snapshot.
func TestSnapshotIsListPlusOneFan(t *testing.T) {
	ctx := context.Background()
	clock := simtime.NewVirtualClock()
	mem := objectstore.NewMemStore(clock)
	store, metrics := objectstore.Instrument(mem, objectstore.DefaultS3Model())
	tbl, err := CreateWith(ctx, store, "tbl", tblSchema, OpenOptions{Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 39; i++ { // 40 commits with the create
		if _, err := tbl.Append(ctx, msgBatch(fmt.Sprintf("row-%d", i)), parquet.WriterOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	// snapshot replays the log through a fresh handle, which remembers
	// nothing of it.
	snapshot := func() (*Snapshot, objectstore.Snapshot, time.Duration) {
		t.Helper()
		session := simtime.NewSession()
		before := metrics.Snapshot()
		fresh, _ := OpenWith(ctx, store, "tbl", OpenOptions{Clock: clock})
		snap, err := fresh.Snapshot(simtime.With(ctx, session))
		if err != nil {
			t.Fatal(err)
		}
		return snap, metrics.Snapshot().Sub(before), session.Elapsed()
	}
	want, reqs, elapsed := snapshot()
	if want.Version != 40 || want.LiveRows() != 39 {
		t.Fatalf("snapshot = v%d, %d rows", want.Version, want.LiveRows())
	}
	// The checkpoint at 32 and entries 33..40, one round trip (plus the
	// model's per-prefix queueing of a 9-wide fan, under 2 ms).
	if reqs.Lists != 1 || reqs.Gets != 9 || reqs.Heads != 0 {
		t.Fatalf("snapshot issued %+v, want 1 LIST + 9 GETs", reqs)
	}
	if elapsed < 90*time.Millisecond || elapsed >= 95*time.Millisecond {
		t.Fatalf("snapshot took %v of virtual time, want LIST + one fan (90 ms)", elapsed)
	}

	if err := mem.Put(ctx, txlog.CheckpointKey("tbl/_log/", 32), []byte("not json")); err != nil {
		t.Fatal(err)
	}
	got, reqs, _ := snapshot()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fallback snapshot differs:\n got %+v\nwant %+v", got, want)
	}
	if reqs.Lists != 1 || reqs.Gets != 9+40 {
		t.Fatalf("fallback issued %+v, want 1 LIST + the failed fan + all 40 entries", reqs)
	}
}

// TestOpenIssuesNoRequest: the handle is free, and a root with no log
// says so from the first call that lists it.
func TestOpenIssuesNoRequest(t *testing.T) {
	ctx := context.Background()
	clock := simtime.NewVirtualClock()
	store, metrics := objectstore.Instrument(objectstore.NewMemStore(clock), objectstore.DefaultS3Model())
	tbl, err := OpenWith(ctx, store, "empty", OpenOptions{Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	if got := metrics.Snapshot(); got != (objectstore.Snapshot{}) {
		t.Fatalf("OpenWith issued %+v", got)
	}
	if _, err := tbl.Snapshot(ctx); !errors.Is(err, ErrNoTable) {
		t.Errorf("Snapshot on an empty root: %v", err)
	}
	if _, err := tbl.Version(ctx); !errors.Is(err, ErrNoTable) {
		t.Errorf("Version on an empty root: %v", err)
	}
	if _, err := tbl.Append(ctx, msgBatch("x"), parquet.WriterOptions{}); !errors.Is(err, ErrNoTable) {
		t.Errorf("Append on an empty root: %v", err)
	}
	// An explicit version that does not exist stays ErrNoSnapshot.
	if _, err := tbl.SnapshotAt(ctx, 3); !errors.Is(err, ErrNoSnapshot) {
		t.Errorf("SnapshotAt(3) on an empty root: %v", err)
	}
}
