// Package objcache is Rottnest's decoded-object cache: the tier of
// the shared cache engine (internal/cache) that holds values which
// are expensive to reconstruct per query — parsed component
// directories, inflated manifests, FM-index/trie/IVF-PQ open results,
// deletion vectors.
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
// Entries are keyed by (kind, id): kind names the decoded type
// ("reader", "manifest", "fm", ...), id is the underlying object key
// and the entry's tag, so Invalidate(id) drops every decoded form of
// the object at once and keeps decodes of it that are in flight from
// being inserted afterwards.
package objcache

import (
	"context"

	"rottnest/internal/cache"
	"rottnest/internal/obs"
)

// DefaultMaxBytes is the cache's default cost budget.
const DefaultMaxBytes = 64 << 20

// Cache is a concurrency-safe decoded-object cache with singleflight
// on decode and LRU eviction on a caller-supplied cost estimate.
type Cache struct {
	c   *cache.Cache[formKey, any]
	reg *obs.Registry
}

// formKey names one decoded form of one object.
type formKey struct{ kind, id string }

// New returns a cache with the given cost budget (<= 0 means
// DefaultMaxBytes).
func New(maxBytes int64) *Cache {
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	reg := obs.NewRegistry()
	return &Cache{
		c: cache.New[formKey, any](maxBytes, cache.Metrics{
			Hits:          reg.Counter("objcache.hits"),
			Misses:        reg.Counter("objcache.misses"),
			Coalesced:     reg.Counter("objcache.coalesced"),
			Evictions:     reg.Counter("objcache.evictions"),
			Invalidations: reg.Counter("objcache.invalidations"),
			Resident:      reg.Gauge("objcache.bytes"),
		}),
		reg: reg,
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
	v, _, err := c.c.Do(ctx, formKey{kind, id}, id, decode)
	return v, err
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
