// Package objcache is Rottnest's decoded-object cache: the tier of
// the shared cache engine (internal/cache) that holds values which
// are expensive to reconstruct per query — parsed component
// directories, inflated manifests, FM-index/trie/IVF-PQ open results,
// deletion vectors, and decoded data pages.
//
// The byte-level CachedStore (objectstore) removes repeat GETs; this
// layer removes the decode CPU and the request fan above them, which
// is what makes a warm serving node latency-competitive (Airphant's
// resident-index argument). It is safe for exactly the reason the
// byte cache is: every cached object is immutable under its key —
// data files, deletion vectors, and index files all get fresh
// crypto-random names, and logs commit with PutIfAbsent — so a
// decoded value can only go stale by deletion, and the protocol
// operations that delete (vacuum, lake vacuum) know exactly which
// keys die and call Invalidate.
//
// Entries are keyed by (kind, id, offset): kind names the decoded type
// ("reader", "manifest", "fm", ...), id is the underlying object key
// and the entry's tag, so Invalidate(id) drops every decoded form of
// the object at once and keeps decodes of it that are in flight from
// being inserted afterwards. offset tells apart the parts of one object
// that decode independently (the pages of a data file) and is zero for
// whole-object forms.
//
// Pages are the one yielding kind: a page is tens of KB and cheap to
// decode again next to an index open result, so the engine evicts
// every resident page before it evicts anything else, and the other
// kinds stay exactly as resident as they would be without pages.
package objcache

import (
	"context"

	"rottnest/internal/cache"
	"rottnest/internal/obs"
	"rottnest/internal/simtime"
)

// KindPage is the kind of a decoded data page, keyed by its data
// file's object key and its byte offset in that file.
const KindPage = "page"

// DefaultMaxBytes is the cache's default cost budget.
const DefaultMaxBytes = 64 << 20

// Cache is a concurrency-safe decoded-object cache with singleflight
// on decode and LRU eviction on a caller-supplied cost estimate.
type Cache struct {
	c         *cache.Cache[formKey, any]
	reg       *obs.Registry
	coalesced *obs.Counter
}

// formKey names one decoded form of one object, or of the part of it
// at off.
type formKey struct {
	kind, id string
	off      int64
}

// New returns a cache with the given cost budget (<= 0 means
// DefaultMaxBytes).
func New(maxBytes int64) *Cache {
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	reg := obs.NewRegistry()
	coalesced := reg.Counter("objcache.coalesced")
	return &Cache{
		c: cache.New[formKey, any](maxBytes, cache.Metrics{
			Hits:          reg.Counter("objcache.hits"),
			Misses:        reg.Counter("objcache.misses"),
			Coalesced:     coalesced,
			Evictions:     reg.Counter("objcache.evictions"),
			Invalidations: reg.Counter("objcache.invalidations"),
			Resident:      reg.Gauge("objcache.bytes"),
		}, func(k formKey) bool { return k.kind == KindPage }),
		reg:       reg,
		coalesced: coalesced,
	}
}

// Registry returns the cache's metrics registry ("objcache.*" names).
// Nil-safe: a disabled cache yields a nil registry, whose methods are
// themselves nil-safe.
func (c *Cache) Registry() *obs.Registry {
	if c == nil {
		return nil
	}
	return c.reg
}

// Bytes returns the current resident cost total.
func (c *Cache) Bytes() int64 {
	if c == nil {
		return 0
	}
	return c.c.Bytes()
}

// Len returns the number of resident entries.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	return c.c.Len()
}

// Do returns the cached value for (kind, id), decoding it at most
// once across concurrent callers. decode returns the value and a cost
// estimate in bytes for the LRU budget. A hit charges no virtual
// time; a caller that rode another's decode is charged what that
// decode cost. Nil-safe: a nil cache just runs decode.
func (c *Cache) Do(ctx context.Context, kind, id string, decode func(ctx context.Context) (any, int64, error)) (any, error) {
	if c == nil {
		v, _, err := decode(ctx)
		return v, err
	}
	v, _, err := c.c.Do(ctx, formKey{kind: kind, id: id}, id, decode)
	return v, err
}

// DoMany returns the cached values for (kind, id, offs[i]), in order.
// decode is called at most once, with the ascending indices into offs
// that were neither resident nor being decoded by another caller, and
// returns their values and cost estimates in that order; those decodes
// are joined, and charged, as in Do. Nil-safe: a nil cache decodes
// every index.
func (c *Cache) DoMany(ctx context.Context, kind, id string, offs []int64, decode func(ctx context.Context, missing []int) ([]any, []int64, error)) ([]any, error) {
	if c == nil {
		all := make([]int, len(offs))
		for i := range all {
			all[i] = i
		}
		vals, _, err := decode(ctx, all)
		return vals, err
	}
	type flight = cache.Flight[formKey, any]
	out := make([]any, len(offs))
	var missing, joinedAt []int
	var led, joined []*flight
	for i, off := range offs {
		v, f, lead := c.c.Begin(formKey{kind, id, off}, id)
		switch {
		case f == nil:
			out[i] = v
		case lead:
			missing, led = append(missing, i), append(led, f)
		default:
			joinedAt, joined = append(joinedAt, i), append(joined, f)
		}
	}
	if len(led) > 0 {
		started := simtime.From(ctx).Elapsed()
		vals, costs, err := decode(ctx, missing)
		for j, f := range led {
			var v any
			var cost int64
			if err == nil {
				v, cost = vals[j], costs[j]
				out[missing[j]] = v
			}
			c.c.Finish(ctx, f, started, v, cost, err)
		}
		if err != nil {
			return nil, err
		}
	}
	// Joined flights are collected after our own are finished: two
	// callers that each lead a decode the other wants would otherwise
	// wait on each other.
	for j, f := range joined {
		v, err := c.c.Wait(ctx, f)
		if err != nil {
			return nil, err
		}
		c.coalesced.Inc()
		out[joinedAt[j]] = v
	}
	return out, nil
}

// Invalidate drops every decoded form of the object id and returns
// how many there were. Nil-safe.
func (c *Cache) Invalidate(id string) int {
	if c == nil {
		return 0
	}
	return c.c.Invalidate(id)
}

// Flush drops every entry (counters are kept).
func (c *Cache) Flush() {
	if c != nil {
		c.c.Flush()
	}
}
