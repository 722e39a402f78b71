package shard

import (
	"context"
	"sync"
	"testing"
	"time"

	"rottnest/internal/component"
	"rottnest/internal/core"
	"rottnest/internal/lake"
	"rottnest/internal/objectstore"
	"rottnest/internal/parquet"
	"rottnest/internal/simtime"
	"rottnest/internal/workload"
)

// hookStore wraps a store and runs hook(ctx) before every request —
// the per-replica latency-injection and context-capture hook the
// hedge tests use.
type hookStore struct {
	inner objectstore.Store
	hook  func(ctx context.Context)
}

func (h *hookStore) Put(ctx context.Context, key string, data []byte) error {
	h.hook(ctx)
	return h.inner.Put(ctx, key, data)
}
func (h *hookStore) PutIfAbsent(ctx context.Context, key string, data []byte) error {
	h.hook(ctx)
	return h.inner.PutIfAbsent(ctx, key, data)
}
func (h *hookStore) Get(ctx context.Context, key string) ([]byte, error) {
	h.hook(ctx)
	return h.inner.Get(ctx, key)
}
func (h *hookStore) GetRange(ctx context.Context, key string, offset, length int64) ([]byte, error) {
	h.hook(ctx)
	return h.inner.GetRange(ctx, key, offset, length)
}
func (h *hookStore) Head(ctx context.Context, key string) (objectstore.ObjectInfo, error) {
	h.hook(ctx)
	return h.inner.Head(ctx, key)
}
func (h *hookStore) List(ctx context.Context, prefix string) ([]objectstore.ObjectInfo, error) {
	h.hook(ctx)
	return h.inner.List(ctx, prefix)
}
func (h *hookStore) Delete(ctx context.Context, key string) error {
	h.hook(ctx)
	return h.inner.Delete(ctx, key)
}

// ctxRecorder remembers the last context a replica's store saw, so
// the test can assert the losing attempt's context was cancelled.
type ctxRecorder struct {
	mu   sync.Mutex
	last context.Context
}

func (c *ctxRecorder) record(ctx context.Context) {
	c.mu.Lock()
	c.last = ctx
	c.mu.Unlock()
}

func (c *ctxRecorder) lastCtx() context.Context {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.last
}

// TestHedgeDeterminism drives the hedging machinery on the virtual
// clock with fully deterministic per-replica latencies (no latency
// model, only fixed per-request charges: replica 0 fast, replica 1
// slow) and asserts the exact modeled timeline:
//
//   - query 1 lands on the fast replica (round-robin), cannot hedge
//     (empty window), and seeds the latency window;
//   - query 2 lands on the slow replica, hedges at exactly the
//     configured percentile of the window — which is query 1's
//     duration — and the hedge (fast replica again) wins, making the
//     shard latency exactly deadline + hedge duration;
//   - the loser's context is cancelled, the winner's is not;
//   - router.hedges / router.hedge_wins match the trace's hedged
//     span attributes.
func TestHedgeDeterminism(t *testing.T) {
	ctx := context.Background()
	clock := simtime.NewVirtualClock()
	mem := objectstore.NewMemStore(clock)
	table, err := lake.CreateWith(ctx, mem, "lake", uuidSchema, lake.OpenOptions{Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	builder := core.NewClient(table, core.Config{IndexDir: "rottnest", Clock: clock})
	gen := workload.NewUUIDGen(3)
	keys := gen.Batch(400)
	batch := parquet.NewBatch(uuidSchema)
	ids := make([][]byte, len(keys))
	payloads := make([][]byte, len(keys))
	for i := range keys {
		k := keys[i]
		ids[i] = k[:]
		payloads[i] = []byte("p")
	}
	batch.Cols[0] = parquet.ColumnValues{Bytes: ids}
	batch.Cols[1] = parquet.ColumnValues{Bytes: payloads}
	if _, err := table.Append(ctx, batch, parquet.WriterOptions{RowGroupRows: 256, PageBytes: 2048}); err != nil {
		t.Fatal(err)
	}
	if _, err := builder.Index(ctx, "id", component.KindTrie); err != nil {
		t.Fatal(err)
	}

	const fastDelay = 2 * time.Millisecond
	const slowDelay = 100 * time.Millisecond
	recorders := [2]*ctxRecorder{{}, {}}
	rt, err := New(ctx, mem, "lake", Options{
		Shards:   1,
		Replicas: 2,
		IndexDir: "rottnest",
		Clock:    clock,
		// All caches off: both replicas repeat identical request
		// sequences, so durations are exactly reproducible.
		CacheBytes:           -1,
		DecodedCacheBytes:    -1,
		PlanCacheTTLVersions: -1,
		ProbeBatchBytes:      -1,
		Hedge:                HedgeOptions{Enabled: true, Percentile: 0.5, MinDelay: time.Millisecond, Window: 8},
		ReplicaWrap: func(shard, replica int, s objectstore.Store) objectstore.Store {
			delay := fastDelay
			if replica == 1 {
				delay = slowDelay
			}
			rec := recorders[replica]
			return &hookStore{inner: s, hook: func(ctx context.Context) {
				rec.record(ctx)
				simtime.Charge(ctx, delay)
			}}
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	k := keys[17]
	q := core.Query{Column: "id", UUID: &k, Snapshot: -1}
	// A worker's handles remember the logs they have read: read them
	// once on the fast replica, past the hedger, so that its two
	// attempts below repeat one request sequence.
	if _, err := rt.Client(0, 0).Search(ctx, q); err != nil {
		t.Fatal(err)
	}

	// Query 1: primary = replica 0 (fast), empty window, no hedge.
	res1, tree1, err := rt.Trace(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if res1.Stats.Hedges != 0 {
		t.Fatalf("query 1 hedged: %+v", res1.Stats)
	}
	shard1 := tree1.Find("router.shard")
	if shard1 == nil {
		t.Fatal("no shard span in query 1")
	}
	fastDur := shard1.Virtual
	if fastDur <= 0 {
		t.Fatalf("fast attempt duration = %v", fastDur)
	}
	attempts1 := tree1.FindAll("router.attempt")
	if len(attempts1) != 1 || attempts1[0].Attrs["role"] != "primary" || attempts1[0].Attrs["replica"] != 0 {
		t.Fatalf("query 1 attempts = %+v", attempts1)
	}

	// Query 2: primary = replica 1 (slow). The hedge must fire at
	// exactly the 0.5-percentile of the one-sample window — query
	// 1's duration — and the fast hedge must win.
	res2, tree2, err := rt.Trace(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stats.Hedges != 1 || res2.Stats.HedgeWins != 1 {
		t.Fatalf("query 2 stats = %+v, want 1 hedge, 1 win", res2.Stats)
	}
	shard2 := tree2.Find("router.shard")
	if shard2 == nil || shard2.Attrs["hedged"] != true || shard2.Attrs["winner"] != "hedge" {
		t.Fatalf("query 2 shard span attrs = %+v", shard2.Attrs)
	}
	deadline := time.Duration(shard2.Attrs["deadline_ns"].(int64))
	if deadline != fastDur {
		t.Fatalf("hedge deadline %v != window percentile %v", deadline, fastDur)
	}
	attempts2 := tree2.FindAll("router.attempt")
	if len(attempts2) != 2 {
		t.Fatalf("query 2 has %d attempts, want 2", len(attempts2))
	}
	var hedgeDur, primaryDur time.Duration
	for _, a := range attempts2 {
		switch a.Attrs["role"] {
		case "primary":
			if a.Attrs["replica"] != 1 {
				t.Fatalf("primary attempt on replica %v, want 1", a.Attrs["replica"])
			}
			primaryDur = a.Virtual
		case "hedge":
			if a.Attrs["replica"] != 0 {
				t.Fatalf("hedge attempt on replica %v, want 0", a.Attrs["replica"])
			}
			hedgeDur = a.Virtual
		}
	}
	// The fast replica repeats the identical request sequence with
	// caches off, so the hedge attempt's duration equals query 1's.
	if hedgeDur != fastDur {
		t.Fatalf("hedge attempt %v != query-1 fast attempt %v", hedgeDur, fastDur)
	}
	if primaryDur <= deadline {
		t.Fatalf("slow primary %v should overrun deadline %v", primaryDur, deadline)
	}
	// Modeled shard latency: the hedge fired at the deadline and ran
	// to completion — exactly deadline + hedge duration.
	if want := deadline + hedgeDur; shard2.Virtual != want {
		t.Fatalf("shard latency %v != deadline+hedge %v", shard2.Virtual, want)
	}

	// The loser (slow primary, replica 1) was cancelled; the winner
	// (fast hedge, replica 0) was not.
	if err := recorders[1].lastCtx().Err(); err != context.Canceled {
		t.Fatalf("loser context err = %v, want Canceled", err)
	}
	if err := recorders[0].lastCtx().Err(); err != nil {
		t.Fatalf("winner context err = %v, want nil", err)
	}

	// Counters match the trace: one hedged shard span, one hedge win.
	m := rt.Metrics()
	hedgedSpans, wonSpans := 0, 0
	for _, s := range append(tree1.FindAll("router.shard"), tree2.FindAll("router.shard")...) {
		if s.Attrs["hedged"] == true {
			hedgedSpans++
			if s.Attrs["winner"] == "hedge" {
				wonSpans++
			}
		}
	}
	if m.Counter("router.hedges") != int64(hedgedSpans) || m.Counter("router.hedge_wins") != int64(wonSpans) {
		t.Fatalf("counters hedges=%d wins=%d, trace says %d/%d",
			m.Counter("router.hedges"), m.Counter("router.hedge_wins"), hedgedSpans, wonSpans)
	}
	if m.Counter("router.hedges") != 1 || m.Counter("router.hedge_wins") != 1 {
		t.Fatalf("hedges=%d wins=%d, want 1/1", m.Counter("router.hedges"), m.Counter("router.hedge_wins"))
	}
}
