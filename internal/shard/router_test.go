package shard

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"rottnest/internal/component"
	"rottnest/internal/core"
	"rottnest/internal/insitu"
	"rottnest/internal/lake"
	"rottnest/internal/objectstore"
	"rottnest/internal/obs"
	"rottnest/internal/parquet"
	"rottnest/internal/simtime"
	"rottnest/internal/workload"
)

var uuidSchema = parquet.MustSchema(
	parquet.Column{Name: "id", Type: parquet.TypeFixedLenByteArray, TypeLen: 16},
	parquet.Column{Name: "payload", Type: parquet.TypeByteArray},
)

// testWorld is a small simulated deployment: a metered MemStore stack
// holding a multi-file uuid table with a trie index, a single-node
// client (the byte-identity reference), and helpers to build routers
// over the same substrate.
type testWorld struct {
	clock *simtime.VirtualClock
	store *objectstore.Stack
	table *lake.Table
	cli   *core.Client
	keys  [][16]byte
}

func newTestWorld(t testing.TB, batches, rowsPerBatch int) *testWorld {
	t.Helper()
	ctx := context.Background()
	clock := simtime.NewVirtualClock()
	mem := objectstore.NewMemStore(clock)
	model := objectstore.DefaultS3Model()
	store := objectstore.NewStack(mem, objectstore.StackOptions{Latency: &model, CacheBytes: -1})
	table, err := lake.CreateWith(ctx, store, "lake", uuidSchema, lake.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	w := &testWorld{clock: clock, store: store, table: table}
	w.cli = core.NewClient(table, core.Config{IndexDir: "rottnest"})
	gen := workload.NewUUIDGen(7)
	for b := 0; b < batches; b++ {
		keys := gen.Batch(rowsPerBatch)
		batch := parquet.NewBatch(uuidSchema)
		ids := make([][]byte, len(keys))
		payloads := make([][]byte, len(keys))
		for i := range keys {
			k := keys[i]
			ids[i] = k[:]
			payloads[i] = []byte(fmt.Sprintf("payload-%d-%d", b, i))
		}
		batch.Cols[0] = parquet.ColumnValues{Bytes: ids}
		batch.Cols[1] = parquet.ColumnValues{Bytes: payloads}
		if _, err := table.Append(ctx, batch, parquet.WriterOptions{RowGroupRows: 256, PageBytes: 2048}); err != nil {
			t.Fatal(err)
		}
		w.keys = append(w.keys, keys...)
	}
	if _, err := w.cli.Index(ctx, "id", component.KindTrie); err != nil {
		t.Fatal(err)
	}
	return w
}

func (w *testWorld) router(t testing.TB, opts Options) *Router {
	t.Helper()
	opts.IndexDir = "rottnest"
	rt, err := New(context.Background(), w.store, "lake", opts)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

func sameMatches(a, b []insitu.Match) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Path != b[i].Path || a[i].Row != b[i].Row || string(a[i].Value) != string(b[i].Value) {
			return false
		}
	}
	return true
}

func TestRouterMatchesSingleNode(t *testing.T) {
	w := newTestWorld(t, 6, 300)
	ctx := context.Background()
	for _, shards := range []int{1, 2, 3, 5, 9} {
		rt := w.router(t, Options{Shards: shards})
		for i := 0; i < len(w.keys); i += 217 {
			k := w.keys[i]
			q := core.Query{Column: "id", UUID: &k, K: 0, Snapshot: -1}
			want, err := w.cli.Search(simtime.With(ctx, simtime.NewSession()), q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := rt.Search(simtime.With(ctx, simtime.NewSession()), q)
			if err != nil {
				t.Fatalf("shards=%d: %v", shards, err)
			}
			if !sameMatches(got.Matches, want.Matches) {
				t.Fatalf("shards=%d key %d: router %d matches, single-node %d", shards, i, len(got.Matches), len(want.Matches))
			}
			if len(got.Matches) == 0 {
				t.Fatalf("shards=%d key %d: no matches", shards, i)
			}
		}
	}
}

func TestRouterCompoundMatchesSingleNode(t *testing.T) {
	w := newTestWorld(t, 4, 200)
	ctx := context.Background()
	rt := w.router(t, Options{Shards: 3})
	k := w.keys[42]
	cq := core.CompoundQuery{
		Expr: core.Or(
			core.PredUUID("id", k),
			core.PredUUID("id", w.keys[599]),
		),
		Snapshot: -1,
		Output:   "id",
	}
	want, err := w.cli.SearchCompound(simtime.With(ctx, simtime.NewSession()), cq)
	if err != nil {
		t.Fatal(err)
	}
	got, err := rt.SearchCompound(simtime.With(ctx, simtime.NewSession()), cq)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Matches) != 2 || !sameMatches(got.Matches, want.Matches) {
		t.Fatalf("compound: router %d matches, single-node %d", len(got.Matches), len(want.Matches))
	}
}

// TestRouterTraceSums pins the scatter-tree latency accounting: the
// root's sequential phases (router.plan, router.scatter, router.merge)
// sum exactly to the reported latency, and the scatter phase costs
// exactly the slowest shard branch.
func TestRouterTraceSums(t *testing.T) {
	w := newTestWorld(t, 5, 250)
	ctx := context.Background()
	rt := w.router(t, Options{Shards: 4})
	k := w.keys[100]
	res, tree, err := rt.Trace(ctx, core.Query{Column: "id", UUID: &k, Snapshot: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	if res.Stats.Latency <= 0 {
		t.Fatalf("latency = %v, want > 0", res.Stats.Latency)
	}
	var phaseSum time.Duration
	for _, c := range tree.Children {
		phaseSum += c.Virtual
	}
	if phaseSum != res.Stats.Latency {
		t.Fatalf("phase sum %v != latency %v", phaseSum, res.Stats.Latency)
	}
	scatter := tree.Find("router.scatter")
	if scatter == nil {
		t.Fatal("no router.scatter span")
	}
	shardSpans := scatter.FindAll("router.shard")
	if len(shardSpans) != res.Stats.Shards {
		t.Fatalf("%d shard spans, stats say %d shards", len(shardSpans), res.Stats.Shards)
	}
	var slowest time.Duration
	for _, s := range shardSpans {
		if s.Virtual > slowest {
			slowest = s.Virtual
		}
		// Each shard branch holds the worker's search.* subtree.
		if s.Find("search.plan") == nil {
			t.Fatalf("shard span missing search.plan subtree:\n%s", renderTree(t, s))
		}
	}
	if scatter.Virtual != slowest {
		t.Fatalf("scatter %v != slowest shard %v", scatter.Virtual, slowest)
	}
	if tree.Find("router.plan") == nil || tree.Find("router.merge") == nil {
		t.Fatal("missing router.plan / router.merge spans")
	}
}

func renderTree(t testing.TB, n *obs.Node) string {
	t.Helper()
	var buf bytes.Buffer
	if err := obs.RenderText(&buf, n); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestRouterAdmissionControl(t *testing.T) {
	w := newTestWorld(t, 2, 100)
	ctx := context.Background()
	rt := w.router(t, Options{
		Shards:    2,
		Admission: AdmissionOptions{Enabled: true, Rate: 1, Burst: 3},
	})
	k := w.keys[0]
	q := core.Query{Column: "id", UUID: &k, Snapshot: -1}

	alice := WithTenant(ctx, "alice")
	var limited int
	for i := 0; i < 5; i++ {
		_, err := rt.Search(simtime.With(alice, simtime.NewSession()), q)
		if errors.Is(err, ErrRateLimited) {
			limited++
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if limited != 2 {
		t.Fatalf("burst of 5 at burst=3: %d limited, want 2", limited)
	}
	// Another tenant has its own bucket.
	if _, err := rt.Search(simtime.With(WithTenant(ctx, "bob"), simtime.NewSession()), q); err != nil {
		t.Fatalf("bob should be admitted: %v", err)
	}
	// Virtual time refills alice's bucket at 1 query/sec.
	w.clock.Advance(2 * time.Second)
	for i := 0; i < 2; i++ {
		if _, err := rt.Search(simtime.With(alice, simtime.NewSession()), q); err != nil {
			t.Fatalf("after refill query %d: %v", i, err)
		}
	}
	if _, err := rt.Search(simtime.With(alice, simtime.NewSession()), q); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("3rd query after 2s refill should be limited, got %v", err)
	}
	if got := rt.Metrics().Counter("router.rejected"); got != 3 {
		t.Fatalf("router.rejected = %d, want 3", got)
	}
}

func TestRouterEmptySnapshot(t *testing.T) {
	ctx := context.Background()
	clock := simtime.NewVirtualClock()
	mem := objectstore.NewMemStore(clock)
	model := objectstore.DefaultS3Model()
	store := objectstore.NewStack(mem, objectstore.StackOptions{Latency: &model, CacheBytes: -1})
	if _, err := lake.CreateWith(ctx, store, "lake", uuidSchema, lake.OpenOptions{}); err != nil {
		t.Fatal(err)
	}
	rt, err := New(ctx, store, "lake", Options{Shards: 3, IndexDir: "rottnest"})
	if err != nil {
		t.Fatal(err)
	}
	var k [16]byte
	res, err := rt.Search(ctx, core.Query{Column: "id", UUID: &k, Snapshot: -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 0 || res.Stats.Shards != 0 {
		t.Fatalf("empty snapshot: %+v", res.Stats)
	}
}
