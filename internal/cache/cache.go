// Package cache is the one cache engine under every tier of
// Rottnest's read path: a byte-budgeted LRU with a tag index, a
// guard against inserting loads that were in flight across an
// invalidation, and a singleflight, of one key (Do) or of a batch
// (DoMany), whose followers pay the leader's measured virtual cost.
// The byte cache (objectstore.CachedStore), the decoded-object cache
// (objcache) and the probe memo (core.probeBatcher) are typed
// instances that differ only in key, value, budget and metric names.
//
// Eviction has one fixed rule beyond recency: an entry whose key the
// tier declared yielding (New's yields) is evicted before any entry
// that is not. A tier can thus keep a bulky, cheap-to-rebuild class
// (decoded data pages) in whatever its other entries leave free: the
// resident set of the non-yielding entries is exactly what it would be
// if the yielding ones were never inserted.
//
// The engine relies on the lake's immutability (Section IV of the
// paper): data files, deletion vectors and index files all live under
// fresh random keys that are never overwritten, so a cached value can
// only go stale when its object is deleted. Every entry therefore
// carries the object key it was derived from as its tag, and
// Invalidate(tag) is the only staleness event.
package cache

import (
	"container/list"
	"context"
	"sync"
	"time"

	"rottnest/internal/obs"
	"rottnest/internal/simtime"
)

// Metrics are the counters a tier wants the engine to drive. Any of
// them may be nil (obs counters are nil-safe), and two may be the
// same counter.
type Metrics struct {
	Hits          *obs.Counter // lookups answered from a resident entry
	Misses        *obs.Counter // loads that ran and succeeded
	Coalesced     *obs.Counter // keys answered by another caller's load
	Evictions     *obs.Counter // entries dropped to stay within the budget
	Invalidations *obs.Counter // Invalidate calls
	Resident      *obs.Gauge   // resident cost total
}

// Cache is a concurrency-safe LRU over values of caller-estimated
// cost, bounded by a byte budget.
type Cache[K comparable, V any] struct {
	max    int64
	m      Metrics
	yields func(K) bool // nil: no entry yields

	mu sync.Mutex
	// lru[0] orders the ordinary entries, lru[1] the yielding ones; both
	// hold *entry[K, V], front = most recently used.
	lru     [2]list.List
	items   map[K]*list.Element
	tags    map[string]map[K]*list.Element
	flights map[K]*flight[K, V]
	bytes   int64
}

type entry[K comparable, V any] struct {
	key   K
	tag   string
	val   V
	cost  int64
	class int // index into Cache.lru: 0 ordinary, 1 yielding
}

// flight is one load in progress. The caller that beginLocked made its
// leader finishes it; everyone else waits.
type flight[K comparable, V any] struct {
	wg  sync.WaitGroup
	key K
	tag string
	// stale is set (under Cache.mu) when the tag is invalidated while
	// the load runs: the result is still handed to the waiters, but it
	// may describe a deleted object and must not become resident.
	stale bool

	val   V
	err   error
	vcost time.Duration
	// runner is the session the load ran on; it already paid vcost.
	runner *simtime.Session
}

// New returns a cache holding at most maxBytes of summed entry cost.
// yields names the keys whose entries are evicted before all others;
// nil means none.
func New[K comparable, V any](maxBytes int64, m Metrics, yields func(K) bool) *Cache[K, V] {
	return &Cache[K, V]{
		max:     maxBytes,
		m:       m,
		yields:  yields,
		items:   make(map[K]*list.Element),
		tags:    make(map[string]map[K]*list.Element),
		flights: make(map[K]*flight[K, V]),
	}
}

// Do returns the value for k, running load at most once across
// concurrent callers and keeping the result resident under tag. load
// returns the value and its cost against the budget; errors are
// handed to every waiter and nothing is kept. hit reports that the
// value was resident.
//
// Virtual-time accounting has one rule for every tier: the leader's
// store reads charge its own session as they happen, a follower is
// charged the leader's measured virtual duration (it waited that long
// in model time, conservatively from the start), and a hit charges
// nothing.
func (c *Cache[K, V]) Do(ctx context.Context, k K, tag string, load func(ctx context.Context) (V, int64, error)) (v V, hit bool, err error) {
	c.mu.Lock()
	v, f, lead := c.beginLocked(k, tag)
	c.mu.Unlock()
	switch {
	case f == nil:
		return v, true, nil
	case !lead:
		if v, err = c.wait(ctx, f); err == nil {
			c.m.Coalesced.Inc()
		}
		return v, false, err
	}
	started := simtime.From(ctx).Elapsed()
	v, cost, err := load(ctx)
	c.finish(ctx, f, started, v, cost, err)
	return v, false, err
}

// DoMany is Do for a batch of keys, all tagged tag, whose misses load
// together: it returns the values for keys, in order. A resident key
// is served from the cache and a key another caller is loading is
// joined; load is called at most once, with the ascending indices of
// the keys that were neither, and returns their values and costs in
// that order. A key named twice loads once. Charging is Do's, with the
// batch as the load: a follower of any key pays the whole load's
// measured virtual duration.
func (c *Cache[K, V]) DoMany(ctx context.Context, keys []K, tag string, load func(ctx context.Context, missing []int) ([]V, []int64, error)) ([]V, error) {
	out := make([]V, len(keys))
	var fs batchFlights[K, V]
	c.mu.Lock()
	for i, k := range keys {
		v, f, lead := c.beginLocked(k, tag)
		switch {
		case f == nil:
			out[i] = v
		case lead:
			fs.missing, fs.led = append(fs.missing, i), append(fs.led, f)
		default:
			fs.joinedAt, fs.joined = append(fs.joinedAt, i), append(fs.joined, f)
		}
	}
	c.mu.Unlock()
	if len(fs.led)+len(fs.joined) == 0 {
		return out, nil
	}
	if err := c.settle(ctx, &fs, out, load); err != nil {
		return nil, err
	}
	return out, nil
}

// batchFlights are the flights a DoMany call leads, at the indices
// missing, and joins, at joinedAt.
type batchFlights[K comparable, V any] struct {
	missing, joinedAt []int
	led, joined       []*flight[K, V]
}

// settle runs DoMany's load for the flights it leads and finishes
// them, then collects the flights it joined, filling out. It is apart
// from DoMany so that an all-resident batch runs on a small frame: a
// fan's fresh goroutine reads its pages through DoMany, and every byte
// of stack above the map lookups can make it grow.
func (c *Cache[K, V]) settle(ctx context.Context, fs *batchFlights[K, V], out []V, load func(ctx context.Context, missing []int) ([]V, []int64, error)) error {
	if len(fs.led) > 0 {
		started := simtime.From(ctx).Elapsed()
		vals, costs, err := load(ctx, fs.missing)
		for j, f := range fs.led {
			var v V
			var cost int64
			if err == nil {
				v, cost = vals[j], costs[j]
				out[fs.missing[j]] = v
			}
			c.finish(ctx, f, started, v, cost, err)
		}
		if err != nil {
			return err
		}
	}
	// Joined flights are collected after our own are finished: two
	// callers that each lead a key the other wants would otherwise wait
	// on each other, and a key named twice would wait on itself.
	for j, f := range fs.joined {
		v, err := c.wait(ctx, f)
		if err != nil {
			return err
		}
		c.m.Coalesced.Inc()
		out[fs.joinedAt[j]] = v
	}
	return nil
}

// beginLocked starts or joins the flight for k; c.mu is held. A
// resident k returns its value and a nil flight. Otherwise it returns
// the flight for k — joined if one is in progress, else started with
// the caller as leader (lead true), who must finish it.
func (c *Cache[K, V]) beginLocked(k K, tag string) (v V, f *flight[K, V], lead bool) {
	if v, ok := c.lookupLocked(k, true); ok {
		return v, nil, false
	}
	if f, ok := c.flights[k]; ok {
		return v, f, false
	}
	f = &flight[K, V]{key: k, tag: tag}
	f.wg.Add(1)
	c.flights[k] = f
	return v, f, true
}

// finish completes a flight with its load's result, releasing the
// waiters. The load ran on ctx's session from virtual time started
// until now. A successful value becomes resident unless its tag was
// invalidated meanwhile or it costs more than a quarter of the budget
// (one oversized value must not wipe the cache).
func (c *Cache[K, V]) finish(ctx context.Context, f *flight[K, V], started time.Duration, v V, cost int64, err error) {
	f.runner = simtime.From(ctx)
	f.val, f.err, f.vcost = v, err, f.runner.Elapsed()-started
	c.mu.Lock()
	delete(c.flights, f.key)
	if err == nil {
		c.m.Misses.Inc()
		if cost < 0 {
			cost = 0
		}
		if !f.stale && c.Admits(cost) {
			c.insertLocked(&entry[K, V]{key: f.key, tag: f.tag, val: v, cost: cost})
		}
	}
	c.mu.Unlock()
	f.wg.Done()
}

// Admits reports whether a value of the given cost can become
// resident: one costing more than a quarter of the budget never does.
func (c *Cache[K, V]) Admits(cost int64) bool { return cost <= c.max/4 }

// wait blocks until the flight finishes and returns its result,
// charging ctx's session the load's virtual cost unless the load ran
// on that very session.
func (c *Cache[K, V]) wait(ctx context.Context, f *flight[K, V]) (V, error) {
	f.wg.Wait()
	if s := simtime.From(ctx); f.err == nil && s != f.runner {
		s.Add(f.vcost)
	}
	return f.val, f.err
}

func (c *Cache[K, V]) insertLocked(e *entry[K, V]) {
	if c.yields != nil && c.yields(e.key) {
		e.class = 1
	}
	elem := c.lru[e.class].PushFront(e)
	c.items[e.key] = elem
	tagged := c.tags[e.tag]
	if tagged == nil {
		tagged = make(map[K]*list.Element)
		c.tags[e.tag] = tagged
	}
	tagged[e.key] = elem
	c.bytes += e.cost
	for c.bytes > c.max {
		victim := c.lru[1].Back()
		if victim == nil {
			victim = c.lru[0].Back()
		}
		c.removeLocked(victim)
		c.m.Evictions.Inc()
	}
	c.m.Resident.Set(c.bytes)
}

func (c *Cache[K, V]) removeLocked(elem *list.Element) {
	e := elem.Value.(*entry[K, V])
	c.lru[e.class].Remove(elem)
	delete(c.items, e.key)
	tagged := c.tags[e.tag]
	delete(tagged, e.key)
	if len(tagged) == 0 {
		delete(c.tags, e.tag)
	}
	c.bytes -= e.cost
}

// Get returns the resident value for k, promoting it to most recently
// used.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lookupLocked(k, true)
}

// Peek reports the resident value for k without touching LRU order or
// counters: cost models ask, they do not consume.
func (c *Cache[K, V]) Peek(k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lookupLocked(k, false)
}

func (c *Cache[K, V]) lookupLocked(k K, promote bool) (v V, ok bool) {
	elem, ok := c.items[k]
	if !ok {
		return v, false
	}
	e := elem.Value.(*entry[K, V])
	if promote {
		c.lru[e.class].MoveToFront(elem)
		c.m.Hits.Inc()
	}
	return e.val, true
}

// Invalidate drops every entry tagged with the object key and marks
// the tag's loads in flight so they are not inserted afterwards. It
// returns the number of entries dropped.
func (c *Cache[K, V]) Invalidate(tag string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m.Invalidations.Inc()
	for _, f := range c.flights {
		if f.tag == tag {
			f.stale = true
		}
	}
	tagged := c.tags[tag]
	n := len(tagged)
	for _, elem := range tagged {
		c.removeLocked(elem)
	}
	c.m.Resident.Set(c.bytes)
	return n
}

// Flush drops every entry and keeps loads in flight from being
// inserted (counters are kept).
func (c *Cache[K, V]) Flush() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, f := range c.flights {
		f.stale = true
	}
	c.lru[0].Init()
	c.lru[1].Init()
	c.items = make(map[K]*list.Element)
	c.tags = make(map[string]map[K]*list.Element)
	c.bytes = 0
	c.m.Resident.Set(0)
}

// Len returns the number of resident entries.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

// Bytes returns the resident cost total.
func (c *Cache[K, V]) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}
