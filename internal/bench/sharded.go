package bench

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"rottnest/internal/component"
	"rottnest/internal/core"
	"rottnest/internal/objectstore"
	"rottnest/internal/obs"
	"rottnest/internal/parquet"
	"rottnest/internal/shard"
	"rottnest/internal/simtime"
	"rottnest/internal/workload"
)

// ShardedPoint is one measured scatter-gather configuration: K
// concurrent Zipf clients replaying a UUID query mix through a router
// at N shards × M replicas.
type ShardedPoint struct {
	Shards   int  `json:"shards"`
	Replicas int  `json:"replicas"`
	Clients  int  `json:"clients"`
	Hedge    bool `json:"hedge"`
	Queries  int  `json:"queries"`
	// Per-query virtual latency percentiles across the whole stream.
	P50 time.Duration `json:"p50_ns"`
	P99 time.Duration `json:"p99_ns"`
	// QPS is queries / virtual makespan (slowest client's summed
	// latency; clients run concurrently).
	QPS float64 `json:"qps"`
	// Hedges and HedgeWins total the hedged shard fan-outs across the
	// stream and how many the hedge replica won.
	Hedges    int64 `json:"hedges"`
	HedgeWins int64 `json:"hedge_wins"`
}

// ShardedResult reports the sharded serving benchmark: a shard-count
// scaling sweep at one replica, then the same 2-shard × 2-replica
// deployment with one degraded replica measured hedge-off vs hedge-on.
type ShardedResult struct {
	// Scaling is the N-shard sweep (M=1, no hedging): aggregate QPS
	// should grow with shards because each worker probes only its file
	// range's index entries.
	Scaling []ShardedPoint `json:"scaling"`
	// HedgeOff and HedgeOn share a deployment where every request to
	// replica 1 pays a latency spike; hedging should claw back the p99.
	HedgeOff ShardedPoint `json:"hedge_off"`
	HedgeOn  ShardedPoint `json:"hedge_on"`
	// RouterPlanLists and RouterPlanGets are the requests of one hot
	// routed query's router.plan phase: the router's handle remembers
	// the log, so its plan is one LIST and no GET. benchgate holds both
	// to "may not grow".
	RouterPlanLists int `json:"router_plan_lists"`
	RouterPlanGets  int `json:"router_plan_gets"`
}

// shardedWorld ingests `batches` UUID files and indexes each one into
// its own trie entry (no index compaction), so a shard's file range
// maps onto a proportional slice of the index entries and per-worker
// probe waves shrink as the shard count grows.
func shardedWorld(seed int64, batches, rows int) (*uuidWorld, error) {
	ctx := context.Background()
	w, err := newWorld(uuidSchema, core.Config{})
	if err != nil {
		return nil, err
	}
	gen := workload.NewUUIDGen(seed)
	uw := &uuidWorld{world: w}
	for b := 0; b < batches; b++ {
		ks := gen.Batch(rows)
		uw.keys = append(uw.keys, ks...)
		batch := parquet.NewBatch(uuidSchema)
		ids := make([][]byte, len(ks))
		for i := range ks {
			k := ks[i]
			ids[i] = k[:]
		}
		batch.Cols[0] = parquet.ColumnValues{Bytes: ids}
		if _, err := w.table.Append(ctx, batch, parquet.WriterOptions{RowGroupRows: 1024, PageBytes: 16 << 10}); err != nil {
			return nil, err
		}
		if _, err := w.client.Index(ctx, "id", component.KindTrie); err != nil {
			return nil, err
		}
	}
	return uw, nil
}

// shardedPass replays the Zipf stream through the router and reports
// its latency percentiles, virtual-time QPS and hedges.
func shardedPass(ctx context.Context, r *shard.Router, universe []core.Query, clients, perClient int, seed int64) (ShardedPoint, error) {
	pt := ShardedPoint{
		Shards:   r.Shards(),
		Replicas: r.Replicas(),
		Clients:  clients,
		Queries:  clients * perClient,
	}
	perClientLats := make([][]time.Duration, clients)
	var hedges, hedgeWins atomic.Int64
	err := zipfStream(ctx, clients, perClient, len(universe), seed, func(ctx context.Context, c, q int) error {
		res, err := r.Search(ctx, universe[q])
		if err != nil {
			return err
		}
		perClientLats[c] = append(perClientLats[c], res.Stats.Latency)
		hedges.Add(res.Stats.Hedges)
		hedgeWins.Add(res.Stats.HedgeWins)
		return nil
	})
	if err != nil {
		return pt, err
	}
	pt.Hedges, pt.HedgeWins = hedges.Load(), hedgeWins.Load()
	var all []time.Duration
	var makespan time.Duration
	for _, lats := range perClientLats {
		var sum time.Duration
		for _, l := range lats {
			sum += l
		}
		makespan = max(makespan, sum)
		all = append(all, lats...)
	}
	const floor = time.Microsecond
	pt.P50 = obs.Quantile(all, 0.50)
	pt.P99 = obs.Quantile(all, 0.99)
	pt.QPS = float64(len(all)) * float64(time.Second) / float64(max(makespan, floor))
	return pt, nil
}

// Sharded benchmarks the scatter-gather serving tier. One UUID
// deployment with per-file trie index entries serves a Zipf query mix
// through routers at increasing shard counts (every worker capped to a
// narrow SearchWidth, so index probing is wave-limited and each
// shard's smaller entry slice finishes in fewer waves), then a 2×2
// deployment with a latency-spiked replica is measured with hedging
// off and on.
func Sharded(o Options) (*ShardedResult, error) {
	ctx := context.Background()
	out := o.out()
	batches, rows := o.scaleInt(16, 8), o.scaleInt(1200, 400)
	clients, perClient := o.scaleInt(8, 6), o.scaleInt(24, 10)

	uw, err := shardedWorld(o.Seed, batches, rows)
	if err != nil {
		return nil, err
	}
	universe := uw.queries(o.scaleInt(48, 16))
	res := &ShardedResult{}

	// All caches off: every query pays the in-situ read path, so the
	// sweep isolates the scatter win rather than cache warmth.
	baseOpts := shard.Options{
		IndexDir:             "rottnest",
		Clock:                uw.clock,
		Timeout:              time.Hour,
		SearchWidth:          2,
		CacheBytes:           -1,
		DecodedCacheBytes:    -1,
		PlanCacheTTLVersions: -1,
		ProbeBatchBytes:      -1,
	}

	for _, n := range []int{1, 2, 4} {
		op := baseOpts
		op.Shards = n
		r, err := shard.New(ctx, uw.store, "lake", op)
		if err != nil {
			return nil, err
		}
		pt, err := shardedPass(ctx, r, universe, clients, perClient, o.Seed)
		if err != nil {
			return nil, err
		}
		res.Scaling = append(res.Scaling, pt)
		if n == 1 {
			// The pass made the router hot; trace one more query's plan.
			_, tree, err := r.Trace(ctx, universe[0])
			if err != nil {
				return nil, err
			}
			plan := tree.Find("router.plan")
			res.RouterPlanLists, res.RouterPlanGets = len(plan.FindAll("store.list")), len(plan.FindAll("store.get"))
		}
	}

	// Hedging: replica 1 of both shards pays a spike on every request;
	// round-robin primaries land half the stream on it. With hedging
	// the router's percentile deadline (trained on the fast replica's
	// samples) fires a hedge to the healthy replica and charges
	// min(primary, deadline+hedge).
	slowReplica := func(si, rep int, s objectstore.Store) objectstore.Store {
		if rep != 1 {
			return s
		}
		profile := objectstore.FaultProfile{
			Seed:         o.Seed + int64(si),
			Latency:      1.0,
			SpikeLatency: 400 * time.Millisecond,
		}
		return objectstore.NewStack(s, objectstore.StackOptions{
			Faults:     &profile,
			CacheBytes: -1,
		})
	}
	for _, hedge := range []bool{false, true} {
		op := baseOpts
		op.Shards, op.Replicas = 2, 2
		op.ReplicaWrap = slowReplica
		if hedge {
			// The window mixes fast- and slow-primary samples about
			// evenly; the 25th percentile stays on the fast side so a
			// spiked primary always trips the deadline.
			op.Hedge = shard.HedgeOptions{Enabled: true, Percentile: 0.25, Window: 32}
		}
		r, err := shard.New(ctx, uw.store, "lake", op)
		if err != nil {
			return nil, err
		}
		// Train each shard's latency window before measuring: a fresh
		// router's first queries see an empty window (no hedge deadline
		// yet), and under concurrent clients several slow-primary
		// queries would slip through unhedged and own the p99.
		for i := 0; i < 4 && i < len(universe); i++ {
			if _, err := r.Search(simtime.With(ctx, simtime.NewSession()), universe[i]); err != nil {
				return nil, err
			}
		}
		pt, err := shardedPass(ctx, r, universe, clients, perClient, o.Seed)
		if err != nil {
			return nil, err
		}
		pt.Hedge = hedge
		if hedge {
			res.HedgeOn = pt
		} else {
			res.HedgeOff = pt
		}
	}

	fmt.Fprintf(out, "Sharded scatter-gather serving: %d files, %d clients, Zipf mix\n", batches, clients)
	fmt.Fprintf(out, "%-22s %7s %9s %9s %9s %7s %7s\n",
		"config", "queries", "p50", "p99", "QPS", "hedges", "wins")
	row := func(label string, p ShardedPoint) {
		fmt.Fprintf(out, "%-22s %7d %9v %9v %9.2f %7d %7d\n",
			label, p.Queries, p.P50.Round(time.Millisecond), p.P99.Round(time.Millisecond),
			p.QPS, p.Hedges, p.HedgeWins)
	}
	for _, p := range res.Scaling {
		row(fmt.Sprintf("%d shards x %d replica", p.Shards, p.Replicas), p)
	}
	fmt.Fprintf(out, "hot router plan: %d LIST, %d GET\n", res.RouterPlanLists, res.RouterPlanGets)
	row("2x2 slow replica", res.HedgeOff)
	row("2x2 slow + hedging", res.HedgeOn)
	return res, nil
}
