package core

import (
	"context"
	"strings"
	"testing"
	"time"

	"rottnest/internal/component"
	"rottnest/internal/ivfpq"
	"rottnest/internal/lake"
	"rottnest/internal/objectstore"
	"rottnest/internal/parquet"
	"rottnest/internal/simtime"
	"rottnest/internal/workload"
)

// commitHookStore runs hook once, right after the next metadata-table
// commit lands — the window between an operation's pre-commit timeout
// check and its post-commit re-check — and uploadHook once, right
// after the next index file upload lands, before that first check.
type commitHookStore struct {
	objectstore.Store
	hook       func()
	uploadHook func()
}

func (s *commitHookStore) Put(ctx context.Context, key string, data []byte) error {
	err := s.Store.Put(ctx, key, data)
	if err == nil && s.uploadHook != nil && strings.HasSuffix(key, ".index") {
		hook := s.uploadHook
		s.uploadHook = nil
		hook()
	}
	return err
}

func (s *commitHookStore) PutIfAbsent(ctx context.Context, key string, data []byte) error {
	err := s.Store.PutIfAbsent(ctx, key, data)
	if err == nil && s.hook != nil && strings.Contains(key, "_meta/") {
		hook := s.hook
		s.hook = nil
		hook()
	}
	return err
}

// invWorld is an env whose metadata commits can be made to overrun the
// index timeout, forcing the rollback paths.
type invWorld struct {
	*env
	hooked *commitHookStore
	keys   [][16]byte  // uuid worlds: every appended key
	vecs   [][]float32 // vector worlds: query embeddings
	docs   []string    // text worlds: the corpus
	path   string      // first appended data file
}

// overrunNextCommit makes the next metadata commit take two hours.
func (w *invWorld) overrunNextCommit() {
	w.hooked.hook = func() { w.clock.Advance(2 * time.Hour) }
}

// overrunNextUpload makes the next index file upload take two hours.
func (w *invWorld) overrunNextUpload() {
	w.hooked.uploadHook = func() { w.clock.Advance(2 * time.Hour) }
}

func newInvWorld(t *testing.T, schema *parquet.Schema) *invWorld {
	t.Helper()
	clock := simtime.NewVirtualClock()
	mem := objectstore.NewMemStore(clock)
	hooked := &commitHookStore{Store: mem}
	model := objectstore.DefaultS3Model()
	store := objectstore.NewStack(hooked, objectstore.StackOptions{Latency: &model, CacheBytes: -1})
	table, err := lake.CreateWith(context.Background(), store, "lake", schema, lake.OpenOptions{Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	cli := NewClient(table, Config{Clock: clock, IndexDir: "rottnest", Timeout: time.Hour})
	return &invWorld{env: &env{clock: clock, mem: mem, store: store, table: table, cli: cli}, hooked: hooked}
}

// uuidWorld has two data files, each under its own trie index file,
// and every cache tier warm from one lookup per file.
func uuidWorld(t *testing.T) *invWorld {
	t.Helper()
	ctx := context.Background()
	w := newInvWorld(t, uuidSchema)
	gen := workload.NewUUIDGen(3)
	for i := 0; i < 2; i++ {
		keys, path := w.appendUUIDs(t, gen, 800)
		if i == 0 {
			w.path = path
		}
		w.keys = append(w.keys, keys...)
		if _, err := w.cli.Index(ctx, "id", component.KindTrie); err != nil {
			t.Fatal(err)
		}
	}
	w.warm(t, uuidQuery(w.keys[0]), uuidQuery(w.keys[800]))
	return w
}

// vectorWorld has one data file under one IVF-PQ index file, warm.
func vectorWorld(t *testing.T) *invWorld {
	t.Helper()
	w := newInvWorld(t, vecSchema(8))
	gen := workload.NewVectorGen(workload.VectorConfig{Seed: 9, Dim: 8, Clusters: 8, Spread: 0.2})
	w.appendVectors(t, gen.Batch(2000))
	w.vecs = gen.Queries(8)
	if _, err := w.cli.Index(context.Background(), "emb", component.KindIVFPQ); err != nil {
		t.Fatal(err)
	}
	w.warm(t, Query{Column: "emb", Vector: w.vecs[0], K: 5, Snapshot: -1})
	return w
}

// textWorld has one data file under one FM index file, warm from one
// substring probe; docs holds the corpus to draw further probes from.
func textWorld(t *testing.T) *invWorld {
	t.Helper()
	w := newInvWorld(t, textSchema)
	w.docs = workload.NewTextGen(workload.DefaultTextConfig(5)).Docs(3000)
	w.appendDocs(t, w.docs)
	if _, err := w.cli.Index(context.Background(), "body", component.KindFM); err != nil {
		t.Fatal(err)
	}
	w.warm(t, substringQuery(w.docs[0]))
	return w
}

// substringQuery probes for the first words of doc.
func substringQuery(doc string) Query {
	if len(doc) > 12 {
		doc = doc[:12]
	}
	return Query{Column: "body", Substring: []byte(doc), K: 3, Snapshot: -1}
}

func (w *invWorld) warm(t *testing.T, qs ...Query) {
	t.Helper()
	for _, q := range qs {
		if _, err := w.cli.Search(context.Background(), q); err != nil {
			t.Fatal(err)
		}
	}
	m := w.cli.Metrics()
	if m.Gauge("cache.bytes") == 0 || w.cli.objc.Len() == 0 || w.cli.batch.memo.Len() == 0 {
		t.Fatalf("warm-up left a tier empty: %d cached bytes, %d decoded objects, %d memoized probes",
			m.Gauge("cache.bytes"), w.cli.objc.Len(), w.cli.batch.memo.Len())
	}
}

func (w *invWorld) indexKeys(t *testing.T, column string, kind component.Kind) []string {
	t.Helper()
	entries, err := w.cli.ListIndexes(context.Background(), column, kind)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, len(entries))
	for i, e := range entries {
		keys[i] = e.IndexKey
	}
	return keys
}

// TestInvalidationEvents drives every source of a cache invalidation
// and checks which of the client's two invalidation functions it
// raised: metaChanged (counted by search.plan_cache_invalidations)
// exactly wantMeta times (a rollback's second call is pinned by
// TestPublishTimeouts), objectGone (counted by
// objcache.invalidations) exactly once per dead object key — and
// that afterwards no tier holds an entry tagged with a dead key.
func TestInvalidationEvents(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		name     string
		world    func(*testing.T) *invWorld
		setup    func(*testing.T, *invWorld)
		event    func(*testing.T, *invWorld) (dead []string)
		wantMeta int64
		wantDead bool
	}{
		{
			name: "index commit", world: uuidWorld, wantMeta: 1,
			event: func(t *testing.T, w *invWorld) []string {
				w.appendUUIDs(t, workload.NewUUIDGen(4), 100)
				if e, err := w.cli.Index(ctx, "id", component.KindTrie); err != nil || e == nil {
					t.Fatalf("index = %v, %v", e, err)
				}
				return nil
			},
		},
		{
			name: "compact commit", world: uuidWorld, wantMeta: 1,
			event: func(t *testing.T, w *invWorld) []string {
				if merged, err := w.cli.Compact(ctx, "id", component.KindTrie, CompactOptions{}); err != nil || len(merged) == 0 {
					t.Fatalf("compact = %v, %v", merged, err)
				}
				return nil
			},
		},
		{
			name: "refine commit", world: vectorWorld, wantMeta: 1,
			event: func(t *testing.T, w *invWorld) []string {
				old := w.indexKeys(t, "emb", component.KindIVFPQ)[0]
				if e, err := w.cli.RefineVectorIndex(ctx, "emb", old, w.vecs, 4, ivfpq.RefineOptions{MaxCells: 4, Seed: 1}); err != nil || e == nil {
					t.Fatalf("refine = %v, %v", e, err)
				}
				return nil
			},
		},
		{
			name: "drop index", world: vectorWorld, wantMeta: 1,
			event: func(t *testing.T, w *invWorld) []string {
				if n, err := w.cli.DropIndex(ctx, "emb", component.KindIVFPQ); err != nil || n != 1 {
					t.Fatalf("drop = %d, %v", n, err)
				}
				return nil
			},
		},
		{
			// The two warm index files were merged away; vacuum drops
			// their rows and then deletes the objects themselves.
			name: "core vacuum removal", world: uuidWorld, wantMeta: 1, wantDead: true,
			setup: func(t *testing.T, w *invWorld) {
				if _, err := w.cli.Compact(ctx, "id", component.KindTrie, CompactOptions{}); err != nil {
					t.Fatal(err)
				}
				w.clock.Advance(2 * time.Hour)
			},
			event: func(t *testing.T, w *invWorld) []string {
				report, err := w.cli.Vacuum(ctx, VacuumOptions{})
				if err != nil {
					t.Fatal(err)
				}
				return report.RemovedObjects
			},
		},
		{
			// Lake vacuum deletes superseded deletion vectors through
			// the table's own store handle, below the client's caches.
			name: "lake vacuum hook", world: uuidWorld, wantDead: true,
			setup: func(t *testing.T, w *invWorld) {
				if err := w.table.DeleteRows(ctx, w.path, []uint32{7}); err != nil {
					t.Fatal(err)
				}
				w.warm(t, uuidQuery(w.keys[1]))
				if err := w.table.DeleteRows(ctx, w.path, []uint32{9}); err != nil {
					t.Fatal(err)
				}
				w.clock.Advance(2 * time.Hour)
			},
			event: func(t *testing.T, w *invWorld) []string {
				latest, err := w.table.Version(ctx)
				if err != nil {
					t.Fatal(err)
				}
				removed, err := w.table.Vacuum(ctx, latest, time.Hour)
				if err != nil {
					t.Fatal(err)
				}
				for i, rel := range removed {
					removed[i] = w.table.Root() + rel
				}
				return removed
			},
		},
		{
			// Another process deleted the index object behind this
			// client's caches: the first probe that has to reach the
			// store finds it gone and replans onto the scan path.
			name: "stale-index replan", world: textWorld, wantMeta: 1, wantDead: true,
			event: func(t *testing.T, w *invWorld) []string {
				gone := w.indexKeys(t, "body", component.KindFM)[0]
				if err := w.mem.Delete(ctx, gone); err != nil {
					t.Fatal(err)
				}
				for _, doc := range w.docs[1:] {
					res, err := w.cli.Search(ctx, substringQuery(doc))
					if err != nil || len(res.Matches) == 0 {
						t.Fatalf("search over a vanished index = %v, %v", res, err)
					}
					if res.Stats.FilesScanned > 0 {
						return []string{gone}
					}
				}
				t.Fatal("no probe ever reached the store; scenario not exercised")
				return nil
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := tc.world(t)
			if tc.setup != nil {
				tc.setup(t, w)
			}
			before := w.cli.Metrics()
			dead := tc.event(t, w)
			delta := w.cli.Metrics().Sub(before)
			if got := delta.Counter("search.plan_cache_invalidations"); got != tc.wantMeta {
				t.Errorf("metaChanged fired %d times, want %d", got, tc.wantMeta)
			}
			if got := delta.Counter("objcache.invalidations"); got != int64(len(dead)) {
				t.Errorf("objectGone fired %d times, want once per dead key %v", got, dead)
			}
			if tc.wantDead != (len(dead) > 0) {
				t.Fatalf("event killed %d objects; scenario not exercised", len(dead))
			}
			for _, key := range dead {
				if n := w.cli.store.Cache.Invalidate(key); n != 0 {
					t.Errorf("%d byte ranges of dead %s still cached", n, key)
				}
				if n := w.cli.objc.Invalidate(key); n != 0 {
					t.Errorf("%d decoded forms of dead %s still cached", n, key)
				}
				if n := w.cli.batch.invalidateIndex(key); n != 0 {
					t.Errorf("%d probes of dead %s still memoized", n, key)
				}
			}
			if n := len(w.cli.batch.fqueues); n != 0 {
				t.Errorf("%d FM wave queues outlive their probes", n)
			}
		})
	}
}
