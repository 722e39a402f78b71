package core

import (
	"context"

	"rottnest/internal/cache"
	"rottnest/internal/obs"
)

// probeMemoBytes is the probe memo's budget. A client has a probe
// batcher exactly when it has a decoded-object cache, but the memo is
// not a kind inside that cache's budget: on a workload whose decoded
// budget already evicts on every query, a memo sharing it keeps
// almost nothing.
const probeMemoBytes = 8 << 20

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
}

type probeKey struct{ index, probe string }

// newProbeBatcher returns a batcher with a probeMemoBytes memo. The
// counter counts probes answered without an index walk: memo hits and
// joined flights.
func newProbeBatcher(coalesced *obs.Counter) *probeBatcher {
	return &probeBatcher{
		memo: cache.New[probeKey, any](probeMemoBytes, cache.Metrics{Hits: coalesced, Coalesced: coalesced}, nil),
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

// doMany is do for a batch of probes of one index object, through the
// memo's DoMany: run is called at most once, with the ascending
// indices of the requests that are neither memoized nor in flight for
// another caller, and returns their results and memo costs in that
// order. Distinct probes of concurrent callers walk on their own.
// Nil-safe: a disabled batcher runs every request.
func (b *probeBatcher) doMany(ctx context.Context, indexKey string, reqs []probeReq, run func(ctx context.Context, missing []int) ([]any, []int64, error)) ([]any, error) {
	if b == nil {
		all := make([]int, len(reqs))
		for i := range all {
			all[i] = i
		}
		vals, _, err := run(ctx, all)
		return vals, err
	}
	var small [4]probeKey // a job's probes, without a heap allocation
	keys := small[:0]
	for _, req := range reqs {
		keys = append(keys, probeKey{indexKey, req.probeKey})
	}
	return b.memo.DoMany(ctx, keys, indexKey, run)
}

// probeReq is one exact leaf's probe of one index file: the
// normalized probe key (pattern plus bound) the batcher memoizes
// under, and the raw pattern and lookup bound the walk needs.
type probeReq struct {
	probeKey string
	pattern  []byte
	maxRows  int
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
