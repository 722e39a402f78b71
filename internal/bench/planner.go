package bench

import (
	"context"
	"fmt"

	"rottnest/internal/core"
	"rottnest/internal/simtime"
	"rottnest/internal/workload"
)

// PlannerSuperwalkResult compares one multi-pattern FM superwalk (an
// OR of distinct substring predicates probed as a single coordinated
// backward search) against running the same patterns as singleton
// walks. The superwalk deduplicates occ checkpoint-block fetches
// across patterns per step, so it must fetch measurably fewer blocks.
type PlannerSuperwalkResult struct {
	Patterns int `json:"patterns"`
	Queries  int `json:"queries"`
	// Occ checkpoint-block fetches per query (search.occ_fetched).
	BatchedOccFetches   float64 `json:"batched_occ_fetches"`
	SingletonOccFetches float64 `json:"singleton_occ_fetches"`
	// Blocks the superwalk reused across patterns instead of
	// refetching, per query.
	OccReused float64 `json:"occ_reused"`
	// FetchSavings is SingletonOccFetches/BatchedOccFetches — the
	// headline win (>= 1.5x expected for an 8-pattern batch).
	FetchSavings float64 `json:"fetch_savings"`
	// Store GETs per query, for the end-to-end view.
	BatchedGETs   float64 `json:"batched_gets"`
	SingletonGETs float64 `json:"singleton_gets"`
}

// PlannerOrderingResult measures cost-based AND staging on a
// point-lookup-miss workload: AND(uuid = absent key, substring =
// needle). The ordered executor probes the cheap trie leaf first,
// sees the intersection die, and never walks the FM index; the
// ordering-disabled executor probes everything.
type PlannerOrderingResult struct {
	Queries        int     `json:"queries"`
	ShortCircuited int     `json:"short_circuited"`
	LeavesSkipped  float64 `json:"leaves_skipped"`
	OrderedGETs    float64 `json:"ordered_gets"`
	UnorderedGETs  float64 `json:"unordered_gets"`
	// GETSavings is UnorderedGETs/OrderedGETs.
	GETSavings float64 `json:"get_savings"`
}

// PlannerResult aggregates the probe-side fast-path experiment.
type PlannerResult struct {
	Superwalk PlannerSuperwalkResult `json:"superwalk"`
	Ordering  PlannerOrderingResult  `json:"ordering"`
}

// Planner measures the probe-side fast path: (1) the multi-pattern FM
// superwalk versus singleton walks — occ checkpoint-block fetches per
// query; (2) cost-based AND ordering with short-circuit versus the
// unordered executor — GETs and skipped probes on a lookup-miss
// workload. The IVF-PQ list scan's speed is BenchmarkPQScanADC's.
func Planner(o Options) (*PlannerResult, error) {
	ctx := context.Background()
	out := o.out()
	res := &PlannerResult{}

	// Eight distinct patterns per batch, matching the superwalk's
	// target workload; each batch plants its own needle.
	const patterns = 8
	rounds := o.scaleInt(12, 6)
	rowsPerBatch := o.scaleInt(2000, 600)

	// --- Superwalk: one OR probe vs singleton searches. ---
	mw, err := newMultiWorld(o.Seed, patterns, rowsPerBatch, core.Config{})
	if err != nil {
		return nil, err
	}
	sw := &res.Superwalk
	sw.Patterns = patterns
	sw.Queries = rounds
	preds := make([]*core.Expr, patterns)
	for i, needle := range mw.needles {
		preds[i] = core.PredSubstring("body", []byte(needle))
	}
	for r := 0; r < rounds; r++ {
		beforeReg := mw.client.Metrics()
		before := mw.store.Metrics.Snapshot()
		cres, err := mw.client.SearchCompound(simtime.With(ctx, simtime.NewSession()), core.CompoundQuery{
			Expr: core.Or(preds...), K: 0, Snapshot: -1, Output: "body",
		})
		if err != nil {
			return nil, err
		}
		if len(cres.Matches) == 0 {
			return nil, fmt.Errorf("bench planner: superwalk round %d found nothing", r)
		}
		delta := mw.client.Metrics().Sub(beforeReg)
		sw.BatchedOccFetches += float64(delta.Counter("search.occ_fetched"))
		sw.OccReused += float64(delta.Counter("search.occ_reused"))
		sw.BatchedGETs += float64(mw.store.Metrics.Snapshot().Sub(before).Gets)

		beforeReg = mw.client.Metrics()
		before = mw.store.Metrics.Snapshot()
		for _, needle := range mw.needles {
			if _, err := mw.client.Search(simtime.With(ctx, simtime.NewSession()), core.Query{
				Column: "body", Substring: []byte(needle), K: 0, Snapshot: -1,
			}); err != nil {
				return nil, err
			}
		}
		delta = mw.client.Metrics().Sub(beforeReg)
		sw.SingletonOccFetches += float64(delta.Counter("search.occ_fetched"))
		sw.SingletonGETs += float64(mw.store.Metrics.Snapshot().Sub(before).Gets)
	}
	n := float64(rounds)
	sw.BatchedOccFetches /= n
	sw.SingletonOccFetches /= n
	sw.OccReused /= n
	sw.BatchedGETs /= n
	sw.SingletonGETs /= n
	if sw.BatchedOccFetches > 0 {
		sw.FetchSavings = sw.SingletonOccFetches / sw.BatchedOccFetches
	}

	// --- Ordering: lookup-miss AND, staged vs unordered. ---
	ow, err := newMultiWorld(o.Seed+1, patterns, rowsPerBatch, core.Config{})
	if err != nil {
		return nil, err
	}
	unordered := core.NewClient(ow.table, core.Config{
		Clock: ow.clock, IndexDir: "rottnest", CacheBytes: -1,
		DecodedCacheBytes: -1, PlanCacheTTLVersions: -1, ProbeBatchBytes: -1,
		DisableANDOrdering: true,
	})
	or := &res.Ordering
	or.Queries = rounds
	missGen := workload.NewUUIDGen(o.Seed + 7919)
	for r := 0; r < rounds; r++ {
		// A key the lake has never seen: the trie stage comes back
		// empty and the FM walk should be skipped.
		miss := missGen.Batch(1)[0]
		needle := mw.needles[r%len(mw.needles)]
		cq := core.CompoundQuery{
			Expr: core.And(
				core.PredUUID("id", miss),
				core.PredSubstring("body", []byte(needle)),
			),
			K: 0, Snapshot: -1, Output: "body",
		}
		beforeReg := ow.client.Metrics()
		before := ow.store.Metrics.Snapshot()
		cres, err := ow.client.SearchCompound(simtime.With(ctx, simtime.NewSession()), cq)
		if err != nil {
			return nil, err
		}
		if len(cres.Matches) != 0 {
			return nil, fmt.Errorf("bench planner: miss query %d found matches", r)
		}
		if cres.Stats.ShortCircuited {
			or.ShortCircuited++
		}
		or.LeavesSkipped += float64(ow.client.Metrics().Sub(beforeReg).Counter("search.leaves_skipped"))
		or.OrderedGETs += float64(ow.store.Metrics.Snapshot().Sub(before).Gets)

		before = ow.store.Metrics.Snapshot()
		ures, err := unordered.SearchCompound(simtime.With(ctx, simtime.NewSession()), cq)
		if err != nil {
			return nil, err
		}
		if len(ures.Matches) != 0 {
			return nil, fmt.Errorf("bench planner: unordered miss query %d found matches", r)
		}
		or.UnorderedGETs += float64(ow.store.Metrics.Snapshot().Sub(before).Gets)
	}
	or.LeavesSkipped /= n
	or.OrderedGETs /= n
	or.UnorderedGETs /= n
	if or.OrderedGETs > 0 {
		or.GETSavings = or.UnorderedGETs / or.OrderedGETs
	}

	fmt.Fprintf(out, "FM superwalk (%d patterns x %d rounds):\n", sw.Patterns, sw.Queries)
	fmt.Fprintf(out, "  occ fetches/query  batched %.1f vs singleton %.1f (%.2fx fewer), %.1f reused\n",
		sw.BatchedOccFetches, sw.SingletonOccFetches, sw.FetchSavings, sw.OccReused)
	fmt.Fprintf(out, "  GETs/query         batched %.1f vs singleton %.1f\n", sw.BatchedGETs, sw.SingletonGETs)
	fmt.Fprintf(out, "Cost-based AND ordering (%d lookup-miss queries):\n", or.Queries)
	fmt.Fprintf(out, "  short-circuited    %d/%d, %.1f leaves skipped/query\n",
		or.ShortCircuited, or.Queries, or.LeavesSkipped)
	fmt.Fprintf(out, "  GETs/query         ordered %.1f vs unordered %.1f (%.2fx fewer)\n",
		or.OrderedGETs, or.UnorderedGETs, or.GETSavings)
	return res, nil
}
