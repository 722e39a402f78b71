package core

import (
	"context"
	"slices"
	"sync"

	"rottnest/internal/cache"
	"rottnest/internal/obs"
	"rottnest/internal/simtime"
)

// DefaultProbeBatchBytes is the probe batcher's default memo budget,
// used when Config.ProbeBatchBytes is zero.
const DefaultProbeBatchBytes = 8 << 20

// probeBatcher coalesces identical index probes across concurrent
// queries and memoizes their results: the probe tier of the shared
// cache engine (internal/cache). Keys combine the index object key
// with the normalized probe (predicate pattern plus bound), so N
// clients walking the same FM checkpoint or trie root for the same
// pattern pay one walk whose result fans out to all waiters — the
// collision pattern the Zipf serve workload generates.
//
// Memoization is safe for the same reason the decoded-object cache
// is: an index object is immutable under its key, so a probe result
// (a posting list) can only go stale by deletion of the index object
// — and every entry is tagged with that key, which Client.objectGone
// invalidates. Snapshot version does not enter the key: postings are
// positions within the immutable index file, and stale physical
// locations are filtered against the snapshot after the probe,
// exactly as for an uncoalesced probe.
type probeBatcher struct {
	memo *cache.Cache[probeKey, any]

	// coalesced counts probes answered without an index walk (joined
	// an in-flight probe or hit the memo); runs is owned by the
	// executor (it counts walks actually performed).
	coalesced *obs.Counter

	// qmu guards fqueues, the per-index wave queues of the FM group
	// path (doFMBatch), and each queue's users count. A queue lives
	// only while some caller is inside doFMBatch for its index.
	qmu     sync.Mutex
	fqueues map[string]*fmQueue
}

type probeKey struct{ index, probe string }

// newProbeBatcher returns a batcher with the given memo budget (<= 0
// means the default).
func newProbeBatcher(maxBytes int64, coalesced *obs.Counter) *probeBatcher {
	if maxBytes <= 0 {
		maxBytes = DefaultProbeBatchBytes
	}
	return &probeBatcher{
		memo:      cache.New[probeKey, any](maxBytes, cache.Metrics{Hits: coalesced, Coalesced: coalesced}, nil),
		coalesced: coalesced,
		fqueues:   make(map[string]*fmQueue),
	}
}

// do returns the probe result for (indexKey, probe), running the
// probe at most once across concurrent identical callers and serving
// repeats from the memo. run returns the result and a memo cost
// estimate in bytes. Nil-safe: a nil (disabled) batcher just runs.
func (b *probeBatcher) do(ctx context.Context, indexKey, probe string, run func(ctx context.Context) (any, int64, error)) (any, error) {
	if b == nil {
		v, _, err := run(ctx)
		return v, err
	}
	v, _, err := b.memo.Do(ctx, probeKey{indexKey, probe}, indexKey, run)
	return v, err
}

// probeReq is one exact leaf's probe of one index file: the
// normalized probe key (pattern plus bound) the batcher memoizes
// under, and the raw pattern and lookup bound the walk needs.
type probeReq struct {
	probeKey string
	pattern  []byte
	maxRows  int
}

// fmRunMany executes one multi-pattern superwalk, returning one
// result and memo cost per request.
type fmRunMany func(ctx context.Context, reqs []probeReq) ([]any, []int64, error)

// fmQueue is the per-index wave queue of the FM group path. Callers
// enqueue their unmemoized probes into pending, then contend on
// walkMu; whoever acquires it drains everything pending at that
// moment — its own probes plus any that queued up while the previous
// wave's superwalk was in flight — and runs them as one walk. Probes
// therefore chain into waves: non-identical probes arriving during a
// walk coalesce into the next one instead of walking independently.
type fmQueue struct {
	users   int // callers between acquire and release; under qmu
	mu      sync.Mutex
	pending []*fmWaiter
	walkMu  sync.Mutex
}

// fmWaiter is one FM probe of a doFMBatch call awaiting its flight.
type fmWaiter struct {
	req    probeReq
	flight *cache.Flight[probeKey, any]
	idx    int // position in the caller's reqs slice
}

func (b *probeBatcher) acquireQueue(indexKey string) *fmQueue {
	b.qmu.Lock()
	defer b.qmu.Unlock()
	q := b.fqueues[indexKey]
	if q == nil {
		q = &fmQueue{}
		b.fqueues[indexKey] = q
	}
	q.users++
	return q
}

func (b *probeBatcher) releaseQueue(indexKey string, q *fmQueue) {
	b.qmu.Lock()
	defer b.qmu.Unlock()
	if q.users--; q.users == 0 {
		delete(b.fqueues, indexKey)
	}
}

// doFMBatch resolves a group of FM probes against one index object,
// running at most one multi-pattern superwalk for every probe the memo
// and in-flight probes cannot answer.
//
// Cross-call coalescing happens two ways: identical probes join the
// existing flight exactly as in do, and distinct probes chain into
// waves through the per-index queue — a probe arriving while another
// caller's superwalk is in flight parks in pending and rides the next
// wave together with every other parked probe, whichever query issued
// it. Every flight goes through the memo's singleflight, so a wave
// completes many flights from one walk. Nil-safe: a disabled batcher
// runs the group as one walk with no memoization.
func (b *probeBatcher) doFMBatch(ctx context.Context, indexKey string, reqs []probeReq, runMany fmRunMany) ([]any, error) {
	if b == nil {
		vals, _, err := runMany(ctx, reqs)
		return vals, err
	}
	out := make([]any, len(reqs))
	var mine, joined []*fmWaiter
	for i, req := range reqs {
		v, f, lead := b.memo.Begin(probeKey{indexKey, req.probeKey}, indexKey)
		switch {
		case f == nil:
			out[i] = v
		case lead:
			mine = append(mine, &fmWaiter{req: req, flight: f, idx: i})
		default:
			joined = append(joined, &fmWaiter{flight: f, idx: i})
		}
	}

	// ranMine: our probes walked in a wave we ran ourselves. All of
	// mine enter pending in one append and every drain takes all of
	// pending, so either a previous holder of walkMu drained (and
	// completed) every one of them, or we drain them all now.
	ranMine := false
	if len(mine) > 0 {
		q := b.acquireQueue(indexKey)
		q.mu.Lock()
		q.pending = append(q.pending, mine...)
		q.mu.Unlock()
		q.walkMu.Lock()
		q.mu.Lock()
		wave := q.pending
		q.pending = nil
		q.mu.Unlock()
		if len(wave) > 0 {
			b.runWave(ctx, wave, runMany)
			ranMine = slices.Contains(wave, mine[0])
		}
		q.walkMu.Unlock()
		b.releaseQueue(indexKey, q)
	}
	// Joined flights are collected after our own wave ran: waiting
	// earlier would deadlock on a duplicate key whose flight our own
	// wave completes. Wait charges the walk's virtual cost to every
	// caller whose session did not run it.
	for i, w := range append(mine, joined...) {
		v, err := b.memo.Wait(ctx, w.flight)
		if err != nil {
			return nil, err
		}
		if i >= len(mine) || !ranMine {
			b.coalesced.Inc()
		}
		out[w.idx] = v
	}
	return out, nil
}

// runWave executes one superwalk over every waiter in the wave,
// completing their flights (which memoizes the results).
func (b *probeBatcher) runWave(ctx context.Context, wave []*fmWaiter, runMany fmRunMany) {
	started := simtime.From(ctx).Elapsed()
	reqs := make([]probeReq, len(wave))
	for i, w := range wave {
		reqs[i] = w.req
	}
	vals, costs, err := runMany(ctx, reqs)
	for i, w := range wave {
		var v any
		var cost int64
		if err == nil {
			v, cost = vals[i], costs[i]
		}
		b.memo.Finish(ctx, w.flight, started, v, cost, err)
	}
}

// peek reports whether (indexKey, probe) is memoized, without
// touching LRU order — the planner's cost model asks, it does not
// consume. Nil-safe.
func (b *probeBatcher) peek(indexKey, probe string) bool {
	if b == nil {
		return false
	}
	_, ok := b.memo.Peek(probeKey{indexKey, probe})
	return ok
}

// invalidateIndex drops every memoized probe of the index object and
// keeps probes of it in flight from being memoized, returning the
// number dropped. Nil-safe.
func (b *probeBatcher) invalidateIndex(indexKey string) int {
	if b == nil {
		return 0
	}
	return b.memo.Invalidate(indexKey)
}
