package shard

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"rottnest/internal/component"
	"rottnest/internal/core"
	"rottnest/internal/lake"
	"rottnest/internal/objectstore"
	"rottnest/internal/obs"
	"rottnest/internal/parquet"
	"rottnest/internal/simtime"
	"rottnest/internal/workload"
)

var idSchema = parquet.MustSchema(
	parquet.Column{Name: "id", Type: parquet.TypeFixedLenByteArray, TypeLen: 16},
)

// servingPoint is what one pass of the Zipf stream measured.
type servingPoint struct {
	p99               time.Duration
	qps               float64
	hedges, hedgeWins int64
}

// servingPass replays a Zipf(1.2) stream through r: `clients`
// goroutines, client c drawing perClient ranks over the universe from
// its own source (seed 13 + c·7919), each query under a fresh
// virtual-time session. QPS is queries over the virtual makespan, the
// slowest client's summed latency.
func servingPass(ctx context.Context, t *testing.T, r *Router, universe []core.Query, clients, perClient int) servingPoint {
	t.Helper()
	lats := make([][]time.Duration, clients)
	errs := make([]error, clients)
	var pt servingPoint
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			zipf := rand.NewZipf(rand.New(rand.NewSource(13+int64(c)*7919)), 1.2, 1, uint64(len(universe)-1))
			for i := 0; i < perClient; i++ {
				res, err := r.Search(simtime.With(ctx, simtime.NewSession()), universe[zipf.Uint64()])
				if err != nil {
					errs[c] = err
					return
				}
				lats[c] = append(lats[c], res.Stats.Latency)
				mu.Lock()
				pt.hedges += res.Stats.Hedges
				pt.hedgeWins += res.Stats.HedgeWins
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	var all []time.Duration
	var makespan time.Duration
	for _, ls := range lats {
		var sum time.Duration
		for _, l := range ls {
			sum += l
		}
		makespan = max(makespan, sum)
		all = append(all, ls...)
	}
	pt.p99 = obs.Quantile(all, 0.99)
	pt.qps = float64(len(all)) * float64(time.Second) / float64(max(makespan, time.Microsecond))
	return pt
}

// TestShardedServing pins the scatter-gather serving tier on the S3
// model with every cache and probe batching off. 8 files of 400 UUID
// rows (seed 13) each get their own trie entry, so a shard's file
// range maps onto a proportional slice of the entries, and every
// worker probes 2 entries a wave (SearchWidth 2). 6 Zipf clients send
// 10 queries each over a 16-key universe.
//
//   - QPS grows with the shard count: 21.7, 27.7 and 32.2 at 1, 2 and
//     4 shards, each held within ±20 %.
//   - A hot router plans from the log its handle remembers: one LIST
//     and no GET.
//   - At 2 shards × 2 replicas, with every request to replica 1 spiked
//     by 400 ms, the hedge-on pass hedges, wins, and cuts the p99 of
//     the hedge-off pass, which never hedges. Hedge counts vary run to
//     run (the clients race for the shared latency window), so only
//     their signs are asserted.
func TestShardedServing(t *testing.T) {
	ctx := context.Background()
	clock := simtime.NewVirtualClock()
	model := objectstore.DefaultS3Model()
	store := objectstore.NewStack(objectstore.NewMemStore(clock), objectstore.StackOptions{Latency: &model, CacheBytes: -1})
	table, err := lake.CreateWith(ctx, store, "lake", idSchema, lake.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cli := core.NewClient(table, core.Config{
		IndexDir:             "rottnest",
		CacheBytes:           -1,
		DecodedCacheBytes:    -1,
		PlanCacheTTLVersions: -1,
	})
	gen := workload.NewUUIDGen(13)
	var keys [][16]byte
	for b := 0; b < 8; b++ {
		ks := gen.Batch(400)
		keys = append(keys, ks...)
		batch := parquet.NewBatch(idSchema)
		ids := make([][]byte, len(ks))
		for i := range ks {
			ids[i] = ks[i][:]
		}
		batch.Cols[0] = parquet.ColumnValues{Bytes: ids}
		if _, err := table.Append(ctx, batch, parquet.WriterOptions{RowGroupRows: 1024, PageBytes: 16 << 10}); err != nil {
			t.Fatal(err)
		}
		if _, err := cli.Index(ctx, "id", component.KindTrie); err != nil {
			t.Fatal(err)
		}
	}
	universe := make([]core.Query, 16)
	for i := range universe {
		k := keys[(i*7919)%len(keys)]
		universe[i] = core.Query{Column: "id", UUID: &k, K: 10, Snapshot: -1}
	}
	const clients, perClient = 6, 10
	base := Options{
		IndexDir:             "rottnest",
		Timeout:              time.Hour,
		SearchWidth:          2,
		CacheBytes:           -1,
		DecodedCacheBytes:    -1,
		PlanCacheTTLVersions: -1,
	}

	wantQPS := map[int]float64{1: 21.713, 2: 27.736, 4: 32.201}
	var prevQPS float64
	for _, n := range []int{1, 2, 4} {
		op := base
		op.Shards = n
		r, err := New(ctx, store, "lake", op)
		if err != nil {
			t.Fatal(err)
		}
		pt := servingPass(ctx, t, r, universe, clients, perClient)
		if want := wantQPS[n]; math.Abs(pt.qps-want) > 0.2*want {
			t.Errorf("%d shards: QPS %.3f, want %.3f ± 20%%", n, pt.qps, want)
		}
		if pt.qps <= prevQPS {
			t.Errorf("%d shards: QPS %.3f, not above the previous shard count's %.3f", n, pt.qps, prevQPS)
		}
		prevQPS = pt.qps
		if n == 1 {
			_, tree, err := r.Trace(ctx, universe[0])
			if err != nil {
				t.Fatal(err)
			}
			plan := tree.Find("router.plan")
			if lists, gets := len(plan.FindAll("store.list")), len(plan.FindAll("store.get")); lists != 1 || gets != 0 {
				t.Errorf("hot router plan: %d LISTs and %d GETs, want 1 and 0", lists, gets)
			}
		}
	}

	slowReplica := func(si, rep int, s objectstore.Store) objectstore.Store {
		if rep != 1 {
			return s
		}
		profile := objectstore.FaultProfile{Seed: 13 + int64(si), Latency: 1.0, SpikeLatency: 400 * time.Millisecond}
		return objectstore.NewStack(s, objectstore.StackOptions{Faults: &profile, CacheBytes: -1})
	}
	hedged := make(map[bool]servingPoint)
	for _, hedge := range []bool{false, true} {
		op := base
		op.Shards, op.Replicas = 2, 2
		op.ReplicaWrap = slowReplica
		if hedge {
			// The window mixes fast- and slow-primary samples about
			// evenly; the 25th percentile stays on the fast side, so a
			// spiked primary always trips the deadline.
			op.Hedge = HedgeOptions{Enabled: true, Percentile: 0.25, Window: 32}
		}
		r, err := New(ctx, store, "lake", op)
		if err != nil {
			t.Fatal(err)
		}
		// Train each shard's latency window first: a fresh router has
		// no hedge deadline, and concurrent slow-primary queries would
		// slip through unhedged and own the p99.
		for _, q := range universe[:4] {
			if _, err := r.Search(simtime.With(ctx, simtime.NewSession()), q); err != nil {
				t.Fatal(err)
			}
		}
		hedged[hedge] = servingPass(ctx, t, r, universe, clients, perClient)
	}
	off, on := hedged[false], hedged[true]
	if on.hedges == 0 || on.hedgeWins == 0 {
		t.Errorf("hedge-on pass: %d hedges, %d won; want both above 0", on.hedges, on.hedgeWins)
	}
	if off.hedges != 0 {
		t.Errorf("hedge-off pass hedged %d times", off.hedges)
	}
	if on.p99 >= off.p99 {
		t.Errorf("hedging did not cut the p99: %v on, %v off", on.p99, off.p99)
	}
}
