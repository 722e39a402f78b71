package shard

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"rottnest/internal/core"
	"rottnest/internal/insitu"
	"rottnest/internal/lake"
	"rottnest/internal/objcache"
	"rottnest/internal/objectstore"
	"rottnest/internal/obs"
	"rottnest/internal/simtime"
)

// worker is one replica of one shard: a core.Client over the worker's
// own cache stack, serving the shard's file range.
type worker struct {
	client *core.Client
}

// Router is the scatter-gather front door: it resolves a query's
// snapshot version once, partitions the snapshot into contiguous
// file ranges, scatters the pinned per-shard queries to workers in
// parallel (hedging slow replicas), and merges the results into
// single-node order.
type Router struct {
	opts    Options
	table   *lake.Table
	workers [][]*worker // [shard][replica]
	seq     []atomic.Uint64
	hedgers []*hedger
	admit   *admission
	reg     *obs.Registry
}

// New builds a router over the table at root. store is the shared
// substrate every worker reads through (typically an objectstore.Stack
// with metering and, under test, faults and retries); each worker
// extends it with its own cache-budgeted objectstore.NewStack, so
// per-shard budgets are set in exactly one code path and every worker
// client shares the substrate's layers.
func New(ctx context.Context, store objectstore.Store, root string, opts Options) (*Router, error) {
	opts = opts.withDefaults()
	table, err := lake.OpenWith(ctx, store, root, lake.OpenOptions{Clock: opts.Clock})
	if err != nil {
		return nil, fmt.Errorf("shard: open table: %w", err)
	}
	n := opts.Shards * opts.Replicas
	byteBudget := splitBudget(opts.CacheBytes, objectstore.DefaultCacheBytes, n)
	decodedBudget := splitBudget(opts.DecodedCacheBytes, objcache.DefaultMaxBytes, n)

	r := &Router{
		opts:    opts,
		table:   table,
		workers: make([][]*worker, opts.Shards),
		seq:     make([]atomic.Uint64, opts.Shards),
		hedgers: make([]*hedger, opts.Shards),
		admit:   newAdmission(opts.Admission, opts.Clock),
		reg:     obs.NewRegistry(),
	}
	for s := 0; s < opts.Shards; s++ {
		r.hedgers[s] = newHedger(opts.Hedge)
		row := make([]*worker, opts.Replicas)
		for rep := 0; rep < opts.Replicas; rep++ {
			ws := store
			if opts.ReplicaWrap != nil {
				ws = opts.ReplicaWrap(s, rep, ws)
			}
			ws = objectstore.NewStack(ws, objectstore.StackOptions{CacheBytes: byteBudget})
			wt, err := lake.OpenWith(ctx, ws, root, lake.OpenOptions{Clock: opts.Clock})
			if err != nil {
				return nil, fmt.Errorf("shard: open worker table %d/%d: %w", s, rep, err)
			}
			row[rep] = &worker{client: core.NewClient(wt, core.Config{
				IndexDir:             opts.IndexDir,
				Clock:                opts.Clock,
				Timeout:              opts.Timeout,
				SearchWidth:          opts.SearchWidth,
				CacheBytes:           -1, // the worker stack above carries the byte cache
				DecodedCacheBytes:    decodedBudget,
				PlanCacheTTLVersions: opts.PlanCacheTTLVersions,
				ProbeBatchBytes:      opts.ProbeBatchBytes,
			})}
		}
		r.workers[s] = row
	}
	return r, nil
}

// Shards returns the configured shard count.
func (r *Router) Shards() int { return r.opts.Shards }

// Replicas returns the configured replicas per shard.
func (r *Router) Replicas() int { return r.opts.Replicas }

// Client exposes one worker's client (tests and tooling).
func (r *Router) Client(shard, replica int) *core.Client {
	return r.workers[shard][replica].client
}

// Metrics snapshots the router's own registry: router.queries,
// router.rejected, router.hedges, router.hedge_wins. Worker-level
// store metrics live on the workers' clients.
func (r *Router) Metrics() obs.Snapshot { return r.reg.Snapshot() }

// Stats summarizes one routed query.
type Stats struct {
	// Latency is the query's virtual latency: plan + slowest shard +
	// merge, as charged to the caller's simtime session.
	Latency time.Duration
	// Version is the snapshot version every shard searched.
	Version int64
	// Shards is the number of non-empty shards scattered to.
	Shards int
	// Hedges and HedgeWins count this query's hedged shard fan-outs
	// and how many the hedge replica won.
	Hedges    int64
	HedgeWins int64
}

// Result is a routed query outcome.
type Result struct {
	Matches []insitu.Match
	Stats   Stats
}

// Search routes a single-predicate query: scatter to every shard with
// a pinned snapshot version and the shard's file range, then merge.
func (r *Router) Search(ctx context.Context, q core.Query) (*Result, error) {
	return r.run(ctx, q.Snapshot, q.Vector != nil, q.K,
		func(ctx context.Context, cli *core.Client, ver int64, fr core.FileRange) (*core.Result, error) {
			sq := q
			sq.Snapshot = ver
			sq.FileRange = &fr
			return cli.Search(ctx, sq)
		})
}

// SearchCompound routes a compound boolean query.
func (r *Router) SearchCompound(ctx context.Context, cq core.CompoundQuery) (*Result, error) {
	return r.run(ctx, cq.Snapshot, exprHasVector(cq.Expr), cq.K,
		func(ctx context.Context, cli *core.Client, ver int64, fr core.FileRange) (*core.Result, error) {
			scq := cq
			scq.Snapshot = ver
			scq.FileRange = &fr
			return cli.SearchCompound(ctx, scq)
		})
}

// Trace is Search with a trace attached: the returned tree is the
// scatter tree — router.plan, then router.scatter with one
// router.shard branch per non-empty shard (each holding the per-shard
// search.* subtree), then router.merge — whose phase virtual
// durations sum exactly to the reported latency.
func (r *Router) Trace(ctx context.Context, q core.Query) (*Result, *obs.Node, error) {
	ctx, root := r.startTrace(ctx)
	res, err := r.Search(ctx, q)
	root.End()
	return res, root.Tree(), err
}

// TraceCompound is Trace for compound queries.
func (r *Router) TraceCompound(ctx context.Context, cq core.CompoundQuery) (*Result, *obs.Node, error) {
	ctx, root := r.startTrace(ctx)
	res, err := r.SearchCompound(ctx, cq)
	root.End()
	return res, root.Tree(), err
}

func (r *Router) startTrace(ctx context.Context) (context.Context, *obs.Span) {
	if simtime.From(ctx) == nil {
		ctx = simtime.With(ctx, simtime.NewSession())
	}
	return obs.WithTrace(ctx, "router.search")
}

func exprHasVector(e *core.Expr) bool {
	if e == nil {
		return false
	}
	if e.Op == core.OpLeaf {
		return e.Pred != nil && e.Pred.Vector != nil
	}
	for _, c := range e.Children {
		if exprHasVector(c) {
			return true
		}
	}
	return false
}

// shardDo executes one shard's slice of the query on one worker.
type shardDo func(ctx context.Context, cli *core.Client, ver int64, fr core.FileRange) (*core.Result, error)

func (r *Router) run(ctx context.Context, snapVer int64, isVector bool, k int, do shardDo) (*Result, error) {
	if err := r.admit.allow(TenantFrom(ctx)); err != nil {
		r.reg.Counter("router.rejected").Inc()
		return nil, err
	}
	r.reg.Counter("router.queries").Inc()
	session := simtime.From(ctx)
	start := session.Elapsed()

	// Plan: read the snapshot once — one LIST for the latest, and only
	// the commits the router's handle has not seen — so every shard
	// searches the same version, and partition its files into
	// contiguous ranges.
	pctx, planSpan := obs.Start(ctx, "router.plan")
	if snapVer <= 0 {
		snapVer = -1
	}
	snap, err := r.table.SnapshotAt(pctx, snapVer)
	if snap != nil {
		planSpan.SetAttr("version", snap.Version)
		planSpan.SetAttr("files", len(snap.Files))
	}
	planSpan.End()
	if err != nil {
		return nil, fmt.Errorf("shard: plan: %w", err)
	}
	ver := snap.Version
	parts := Partition(snap.Files, r.opts.Shards)
	var scattered []int
	for i, p := range parts {
		if p.Files > 0 {
			scattered = append(scattered, i)
		}
	}

	// Scatter: one parallel branch per non-empty shard; each branch's
	// session advances by the shard's (possibly hedged) latency, and
	// the scatter phase costs the slowest shard.
	var hedges, hedgeWins int64
	type shardOut struct {
		idx int
		res *core.Result
		err error
	}
	outs := make([]shardOut, len(scattered))
	sctx, scatterSpan := obs.Start(ctx, "router.scatter")
	scatterSpan.SetAttr("shards", len(scattered))
	branches := make([]func(*simtime.Session), len(scattered))
	for bi, si := range scattered {
		bi, si := bi, si
		branches[bi] = func(bs *simtime.Session) {
			bctx := simtime.With(sctx, bs)
			shctx, span := obs.Start(bctx, "router.shard")
			span.SetAttr("shard", si)
			span.SetAttr("files", parts[si].Files)
			res, hi, err := r.runShard(shctx, bs, si, ver, parts[si].Range, do)
			if hi.hedged {
				atomic.AddInt64(&hedges, 1)
				span.SetAttr("hedged", true)
				span.SetAttr("deadline_ns", int64(hi.deadline))
				if hi.hedgeWon {
					atomic.AddInt64(&hedgeWins, 1)
					span.SetAttr("winner", "hedge")
				} else {
					span.SetAttr("winner", "primary")
				}
			}
			span.End()
			outs[bi] = shardOut{si, res, err}
		}
	}
	if len(branches) > 0 {
		session.Parallel(branches...)
	}
	scatterSpan.End()

	lists := make([][]insitu.Match, 0, len(outs))
	for _, o := range outs {
		if o.err != nil {
			return nil, fmt.Errorf("shard %d: %w", o.idx, o.err)
		}
		lists = append(lists, o.res.Matches)
	}

	// Merge: in-memory, so the phase costs (virtually) nothing; it is
	// traced for the scatter tree's completeness.
	_, mergeSpan := obs.Start(ctx, "router.merge")
	var merged []insitu.Match
	if isVector {
		merged = MergeTopK(lists, k)
	} else {
		merged = MergeExact(lists, k)
	}
	mergeSpan.SetAttr("matches", len(merged))
	mergeSpan.End()

	res := &Result{Matches: merged}
	res.Stats.Version = ver
	res.Stats.Shards = len(scattered)
	res.Stats.Hedges = hedges
	res.Stats.HedgeWins = hedgeWins
	res.Stats.Latency = session.Elapsed() - start
	return res, nil
}

// hedgeInfo reports one shard fan-out's hedging outcome.
type hedgeInfo struct {
	hedged   bool
	hedgeWon bool
	deadline time.Duration
}

// runShard executes one shard's query with hedged replica fan-out.
// Replica attempts run on their own fresh sessions so their full
// durations are known; the shard's branch session then advances by
// the modeled outcome: the primary's duration when it beat the hedge
// deadline, otherwise min(primary, deadline+hedge). The losing
// attempt's context is cancelled.
func (r *Router) runShard(ctx context.Context, bs *simtime.Session, si int, ver int64, fr core.FileRange, do shardDo) (*core.Result, hedgeInfo, error) {
	m := len(r.workers[si])
	primary := int(r.seq[si].Add(1)-1) % m
	h := r.hedgers[si]

	attempt := func(replica int, role string) (*core.Result, time.Duration, context.CancelFunc, error) {
		as := simtime.NewSession()
		actx, cancel := context.WithCancel(ctx)
		actx = simtime.With(actx, as)
		actx, span := obs.Start(actx, "router.attempt")
		span.SetAttr("replica", replica)
		span.SetAttr("role", role)
		res, err := do(actx, r.workers[si][replica].client, ver, fr)
		span.End()
		return res, as.Elapsed(), cancel, err
	}

	deadline := time.Duration(math.MaxInt64)
	if r.opts.Hedge.Enabled && m > 1 {
		deadline = h.deadline()
	}
	pres, pdur, pcancel, perr := attempt(primary, "primary")
	h.observe(pdur)
	if pdur <= deadline {
		pcancel()
		bs.Add(pdur)
		return pres, hedgeInfo{}, perr
	}

	info := hedgeInfo{hedged: true, deadline: deadline}
	r.reg.Counter("router.hedges").Inc()
	hres, hdur, hcancel, herr := attempt((primary+1)%m, "hedge")
	hedgeLat := deadline + hdur
	hedgeWins := hedgeLat < pdur
	if perr != nil && herr == nil {
		hedgeWins = true
	} else if herr != nil && perr == nil {
		hedgeWins = false
	}
	if hedgeWins {
		info.hedgeWon = true
		r.reg.Counter("router.hedge_wins").Inc()
		pcancel() // the primary lost the race: cancel it
		bs.Add(hedgeLat)
		return hres, info, herr
	}
	hcancel() // the hedge lost the race: cancel it
	bs.Add(pdur)
	return pres, info, perr
}
