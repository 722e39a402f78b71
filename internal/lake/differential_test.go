package lake

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"rottnest/internal/objectstore"
	"rottnest/internal/parquet"
	"rottnest/internal/simtime"
	"rottnest/internal/txlog"
)

// TestRememberingHandlesAgreeWithFreshOnes: two long-lived handles take
// turns appending, deleting rows, compacting and time-travelling over
// one log — each remembering what it read and wrote, each regularly
// behind the other — across three checkpoint boundaries, one checkpoint
// overwritten with garbage and one deleted. Whatever either remembers,
// SnapshotAt(v) through it is deep-equal to what a handle that remembers
// nothing replays from the store.
func TestRememberingHandlesAgreeWithFreshOnes(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { rememberingHandlesAgree(t, seed) })
	}
}

func rememberingHandlesAgree(t *testing.T, seed int64) {
	ctx := context.Background()
	clock := simtime.NewVirtualClock()
	store := objectstore.NewMemStore(clock)
	a, err := CreateWith(ctx, store, "tbl", tblSchema, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, _ := OpenWith(ctx, store, "tbl", OpenOptions{})
	handles := []*Table{a, b}
	rng := rand.New(rand.NewSource(seed))

	head := int64(1)
	check := func(v int64) {
		t.Helper()
		fresh, _ := OpenWith(ctx, store, "tbl", OpenOptions{})
		want, err := fresh.SnapshotAt(ctx, v)
		if err != nil {
			t.Fatalf("fresh SnapshotAt(%d) at head %d: %v", v, head, err)
		}
		for i, h := range handles {
			got, err := h.SnapshotAt(ctx, v)
			if err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("handle %d SnapshotAt(%d) at head %d = %+v, %v; a fresh handle reads %+v", i, v, head, got, err, want)
			}
		}
	}
	spoiled := map[int64]bool{}
	for head < 3*CheckpointInterval+8 {
		h := handles[rng.Intn(2)]
		switch op := rng.Intn(20); {
		case op < 11:
			if _, err := h.Append(ctx, msgBatch(fmt.Sprintf("row-%d", head), "x", "y"), parquet.WriterOptions{}); err != nil {
				t.Fatal(err)
			}
			head++
		case op < 14:
			snap, err := h.Snapshot(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if len(snap.Files) == 0 {
				continue
			}
			f := snap.Files[rng.Intn(len(snap.Files))]
			if err := h.DeleteRows(ctx, f.Path, []uint32{uint32(rng.Intn(int(f.Rows)))}); err != nil {
				t.Fatal(err)
			}
			head++
		case op < 15:
			paths, err := h.Compact(ctx, 1<<30, 0)
			if err != nil {
				t.Fatal(err)
			}
			if paths != nil {
				head++
			}
		case op < 18:
			check(1 + rng.Int63n(head))
		default:
			check(-1)
		}
		// Once each: garbage over the first checkpoint, the second gone.
		for v, spoil := range map[int64]func(string) error{
			CheckpointInterval:     func(key string) error { return store.Put(ctx, key, []byte("not json")) },
			2 * CheckpointInterval: func(key string) error { return store.Delete(ctx, key) },
		} {
			if head > v+2 && !spoiled[v] {
				spoiled[v] = true
				if err := spoil(txlog.CheckpointKey("tbl/_log/", v)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for v := int64(1); v <= head; v++ {
		check(v)
	}
	check(-1)
}
