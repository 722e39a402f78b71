package core

import (
	"sync"

	"rottnest/internal/component"
	"rottnest/internal/lake"
	"rottnest/internal/meta"
	"rottnest/internal/obs"
)

// defaultPlanTTLVersions is how many lake versions behind the latest
// known commit a cached plan may trail before it is pruned.
const defaultPlanTTLVersions = 8

// planKey identifies one cached metadata listing: the lake version it
// was planned against plus the (column, kind) pair that selected it.
type planKey struct {
	version int64
	column  string
	kind    component.Kind
}

// planEntry is one listing of a cached planning round, with the
// snapshot it was planned against: together they cost the search its
// LIST round. Both are treated as immutable by the search path
// (filters copy before trimming), so one entry serves any number of
// concurrent queries.
type planEntry struct {
	snap    *lake.Snapshot
	entries []meta.IndexEntry
}

// planCache memoizes planning rounds keyed by resolved snapshot
// version, one entry per (column, kind) listing — a compound plan is
// the listings of its probe units, so any tree over already-listed
// pairs plans without touching the store. Safety comes from version
// keying, not freshness: a pinned version's snapshot is immutable,
// and a stale metadata listing can only under-use indices (files fall
// to the scan path) or reference a vacuumed index file — which the
// search already self-heals via staleIndexError, and every replan
// bypasses this cache. The latest version is advanced by lake commit
// hooks (forward-only: commits may report out of order, and versions
// are monotone, so max is correct), letting repeat latest-snapshot
// queries skip the planning LIST entirely.
type planCache struct {
	ttl int64

	hits          *obs.Counter
	misses        *obs.Counter
	invalidations *obs.Counter
	entries       *obs.Gauge

	mu sync.Mutex
	// latest is the newest version known, from a commit hook or a plan
	// read from the store; committed the newest a commit hook reported.
	latest, committed int64
	plans             map[planKey]planEntry
}

// newPlanCache returns a plan cache keeping entries within ttl
// versions of the latest known commit (<= 0 means the default),
// registering its counters under "search.plan_cache_*" in reg.
func newPlanCache(ttl int, reg *obs.Registry) *planCache {
	if ttl <= 0 {
		ttl = defaultPlanTTLVersions
	}
	return &planCache{
		ttl:           int64(ttl),
		hits:          reg.Counter("search.plan_cache_hits"),
		misses:        reg.Counter("search.plan_cache_misses"),
		invalidations: reg.Counter("search.plan_cache_invalidations"),
		entries:       reg.Gauge("search.plan_cache_entries"),
		plans:         make(map[planKey]planEntry),
	}
}

// lookup resolves one planning round: the snapshot plus one listing
// per probe unit, served only when every unit is cached at the
// version (a nil snapshot is a miss). version < 0 resolves to the
// latest known version (a miss when none is known yet). The third
// result is the version a miss should read: the one asked for, except
// that "latest" is the latest known version when a commit through this
// table handle reported it — the handle remembers that snapshot, so the
// miss costs the lake log nothing — and stays < 0 when the newest
// version known came from the store, where only a LIST can say whether
// another writer has moved on. A replan always misses, at the version
// as given: the cached plan is what referenced the vanished index. The
// round counts as one hit or one miss. Nil-safe.
func (p *planCache) lookup(version int64, units []probeUnit, replan bool) (*lake.Snapshot, [][]meta.IndexEntry, int64) {
	if p == nil {
		return nil, nil, version
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	onMiss := version
	if version < 0 {
		version = p.latest
		if !replan && p.latest > 0 && p.latest == p.committed {
			onMiss = p.latest
		}
	}
	var snap *lake.Snapshot
	listings := make([][]meta.IndexEntry, len(units))
	ok := !replan && version > 0
	for i := 0; ok && i < len(units); i++ {
		var e planEntry
		e, ok = p.plans[planKey{version, units[i].column, units[i].kind}]
		listings[i], snap = e.entries, e.snap
	}
	if !ok || snap == nil {
		p.misses.Inc()
		return nil, nil, onMiss
	}
	p.hits.Inc()
	return snap, listings, version
}

// put stores a planning round's listings and advances the latest
// pointer to its version if newer. Nil-safe.
func (p *planCache) put(snap *lake.Snapshot, units []probeUnit, listings [][]meta.IndexEntry) {
	if p == nil || snap.Version <= 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, u := range units {
		p.plans[planKey{snap.Version, u.column, u.kind}] = planEntry{snap: snap, entries: listings[i]}
	}
	p.advanceLocked(snap.Version)
}

// noteCommit advances the latest pointer from a lake commit hook.
// Nil-safe.
func (p *planCache) noteCommit(version int64) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if version > p.committed {
		p.committed = version
	}
	p.advanceLocked(version)
}

// advanceLocked moves the latest pointer forward-only and prunes
// plans that fell out of the TTL window.
func (p *planCache) advanceLocked(version int64) {
	if version > p.latest {
		p.latest = version
	}
	for k := range p.plans {
		if k.version < p.latest-p.ttl {
			delete(p.plans, k)
		}
	}
	p.entries.Set(int64(len(p.plans)))
}

// invalidateAll drops every cached plan. Client.metaChanged calls it:
// the meta table is a separate log from the lake, so its changes do
// not move the version key. Nil-safe.
func (p *planCache) invalidateAll() {
	if p == nil {
		return
	}
	p.invalidations.Inc()
	p.mu.Lock()
	p.plans = make(map[planKey]planEntry)
	p.entries.Set(0)
	p.mu.Unlock()
}
