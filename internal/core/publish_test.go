package core

import (
	"context"
	"errors"
	"reflect"
	"sort"
	"strings"
	"testing"

	"rottnest/internal/component"
	"rottnest/internal/ivfpq"
	"rottnest/internal/workload"
)

// TestPublishTimeouts pins the one commit protocol through its three
// callers on the virtual clock. When the index timeout passes before
// the commit, the operation returns ErrTimeout having written no
// metadata row, and its upload stays behind for vacuum. When it passes
// between the commit and the re-check, the operation rolls back: the
// new row is gone, the row a refine replaced is back, and cached plans
// were dropped twice (commit, rollback). Either way the metadata table
// is what it was, Existence holds, no cached object was invalidated,
// and a retry with time to spare succeeds.
func TestPublishTimeouts(t *testing.T) {
	ctx := context.Background()
	ops := []struct {
		name  string
		world func(*testing.T) *invWorld
		run   func(w *invWorld) (published bool, err error)
	}{
		{"index", func(t *testing.T) *invWorld {
			w := uuidWorld(t)
			w.appendUUIDs(t, workload.NewUUIDGen(4), 100)
			return w
		}, func(w *invWorld) (bool, error) {
			e, err := w.cli.Index(ctx, "id", component.KindTrie)
			return e != nil, err
		}},
		{"compact", uuidWorld, func(w *invWorld) (bool, error) {
			merged, err := w.cli.Compact(ctx, "id", component.KindTrie, CompactOptions{})
			return len(merged) == 1, err
		}},
		{"refine", vectorWorld, func(w *invWorld) (bool, error) {
			old, err := w.cli.ListIndexes(ctx, "emb", component.KindIVFPQ)
			if err != nil || len(old) != 1 {
				return false, errors.Join(err, errors.New("want exactly one vector index file"))
			}
			e, err := w.cli.RefineVectorIndex(ctx, "emb", old[0].IndexKey, w.vecs, 4, ivfpq.RefineOptions{MaxCells: 4, Seed: 1})
			return e != nil, err
		}},
	}
	deadlines := []struct {
		name     string
		arm      func(w *invWorld)
		wantMeta int64 // metaChanged calls
	}{
		{"deadline passes before commit", (*invWorld).overrunNextUpload, 0},
		{"deadline passes between commit and re-check", (*invWorld).overrunNextCommit, 2},
	}
	// rows and uploads list the metadata table and the index objects in
	// the bucket.
	rows := func(t *testing.T, w *invWorld) []string {
		t.Helper()
		entries, err := w.cli.Meta().List(ctx)
		if err != nil {
			t.Fatal(err)
		}
		keys := make([]string, len(entries))
		for i, e := range entries {
			keys[i] = e.IndexKey
		}
		sort.Strings(keys)
		return keys
	}
	uploads := func(t *testing.T, w *invWorld) int {
		t.Helper()
		objs, err := w.mem.List(ctx, "rottnest/"+indexFilePrefix)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, o := range objs {
			if strings.HasSuffix(o.Key, ".index") {
				n++
			}
		}
		return n
	}
	for _, op := range ops {
		for _, dl := range deadlines {
			t.Run(op.name+"/"+dl.name, func(t *testing.T) {
				w := op.world(t)
				rowsBefore, uploadsBefore, before := rows(t, w), uploads(t, w), w.cli.Metrics()
				dl.arm(w)
				if _, err := op.run(w); !errors.Is(err, ErrTimeout) {
					t.Fatalf("err = %v, want ErrTimeout", err)
				}
				if w.hooked.hook != nil || w.hooked.uploadHook != nil {
					t.Fatal("the armed delay never fired; scenario not exercised")
				}
				if got := rows(t, w); !reflect.DeepEqual(got, rowsBefore) {
					t.Errorf("metadata rows = %v, want them as before the operation: %v", got, rowsBefore)
				}
				if got := uploads(t, w); got != uploadsBefore+1 {
					t.Errorf("%d index objects in the bucket, want %d: the upload is left for vacuum", got, uploadsBefore+1)
				}
				delta := w.cli.Metrics().Sub(before)
				if got := delta.Counter("search.plan_cache_invalidations"); got != dl.wantMeta {
					t.Errorf("metaChanged fired %d times, want %d", got, dl.wantMeta)
				}
				if got := delta.Counter("objcache.invalidations"); got != 0 {
					t.Errorf("objectGone fired %d times, want 0: no object was deleted", got)
				}
				if err := w.cli.CheckExistence(ctx); err != nil {
					t.Error(err)
				}
				// The caller retries cleanly.
				if published, err := op.run(w); err != nil || !published {
					t.Fatalf("retry published=%v err=%v", published, err)
				}
				if err := w.cli.CheckExistence(ctx); err != nil {
					t.Error(err)
				}
			})
		}
	}
}
