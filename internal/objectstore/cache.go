package objectstore

import (
	"context"

	"rottnest/internal/cache"
	"rottnest/internal/obs"
	"rottnest/internal/simtime"
)

// DefaultCacheBytes is the read cache's default byte budget.
const DefaultCacheBytes = 64 << 20

// coalesceGap is the largest gap between two ranged GETs of the same
// object that FanGet merges into one request when it fans through a
// cache. It sits well below the latency model's ~1 MiB flat window
// (Figure 10a of the paper), so merging costs near-zero extra latency
// while saving whole requests.
const coalesceGap = 128 << 10

// CacheOptions tune a CachedStore.
type CacheOptions struct {
	// MaxBytes is the cache's byte budget. <= 0 means
	// DefaultCacheBytes.
	MaxBytes int64
}

// CachedStore wraps a Store with a concurrency-safe, size-bounded LRU
// read cache keyed on (key, offset, length), plus singleflight
// coalescing of concurrent identical reads. It is the byte tier of
// the shared cache engine (internal/cache): every range is tagged
// with its object key.
//
// The wrapper exploits the lake's immutability invariant: objects are
// written once and never overwritten — data files, deletion vectors,
// and index files all get fresh crypto-random names, and log records
// commit with PutIfAbsent — so a cached range can only go stale by
// deletion, and invalidation is delete-only. Writes and deletes
// through the wrapper invalidate the key's entries as belt and
// braces; a read in flight across that invalidation is served but
// not kept, so a deleted object's bytes never become resident.
//
// Virtual-time accounting: a cache hit bypasses the wrapped store
// entirely, so an Instrumented store underneath charges it zero
// latency — the simtime model sees exactly the requests that would
// hit S3. A singleflight follower saves the request but still rides
// the in-flight GET, so it is charged what the leader's GET cost
// (conservative: it may join partway through).
//
// Callers must treat returned byte slices as read-only: hits alias
// the cached buffer.
type CachedStore struct {
	inner Store
	c     *cache.Cache[rangeKey, []byte]

	// reg holds the cache's counters ("cache.*" names).
	reg        *obs.Registry
	bytesSaved *obs.Counter
}

// rangeKey is one cached read: Get is (key, 0, -1).
type rangeKey struct {
	key         string
	off, length int64
}

// NewCachedStore wraps inner with a read cache.
func NewCachedStore(inner Store, opts CacheOptions) *CachedStore {
	maxBytes := opts.MaxBytes
	if maxBytes <= 0 {
		maxBytes = DefaultCacheBytes
	}
	reg := obs.NewRegistry()
	return &CachedStore{
		inner: inner,
		c: cache.New[rangeKey, []byte](maxBytes, cache.Metrics{
			Hits:      reg.Counter("cache.hits"),
			Misses:    reg.Counter("cache.misses"),
			Coalesced: reg.Counter("cache.coalesced_gets"),
			Evictions: reg.Counter("cache.evictions"),
			Resident:  reg.Gauge("cache.bytes"),
		}, nil),
		reg:        reg,
		bytesSaved: reg.Counter("cache.bytes_saved"),
	}
}

// Registry returns the cache's metrics registry ("cache.*" names).
func (c *CachedStore) Registry() *obs.Registry { return c.reg }

// Clock returns the inner store's clock (ClockOf).
func (c *CachedStore) Clock() simtime.Clock { return ClockOf(c.inner) }

// Flush drops every cached entry (counters are kept).
func (c *CachedStore) Flush() { c.c.Flush() }

// Invalidate drops every cached range of the object key and returns
// how many there were. Put and Delete call it; so does whoever learns
// that the object was deleted behind the wrapper's back.
func (c *CachedStore) Invalidate(key string) int { return c.c.Invalidate(key) }

// Admits reports whether a read of n bytes can become resident. A nil
// cache admits nothing.
func (c *CachedStore) Admits(n int64) bool { return c != nil && c.c.Admits(n) }

// cachedGet is the shared hit/singleflight/fill path of Get and
// GetRange.
func (c *CachedStore) cachedGet(ctx context.Context, k rangeKey, fetch func(context.Context) ([]byte, error)) ([]byte, error) {
	data, hit, err := c.c.Do(ctx, k, k.key, func(ctx context.Context) ([]byte, int64, error) {
		d, err := fetch(ctx)
		if err != nil {
			return nil, 0, err
		}
		return d, int64(len(d)), nil
	})
	if hit {
		c.bytesSaved.Add(int64(len(data)))
	}
	return data, err
}

// Get implements Store.
func (c *CachedStore) Get(ctx context.Context, key string) ([]byte, error) {
	return c.cachedGet(ctx, rangeKey{key, 0, -1}, func(ctx context.Context) ([]byte, error) {
		return c.inner.Get(ctx, key)
	})
}

// GetRange implements Store.
func (c *CachedStore) GetRange(ctx context.Context, key string, offset, length int64) ([]byte, error) {
	return c.cachedGet(ctx, rangeKey{key, offset, length}, func(ctx context.Context) ([]byte, error) {
		return c.inner.GetRange(ctx, key, offset, length)
	})
}

// Put implements Store, invalidating any cached ranges of the key.
func (c *CachedStore) Put(ctx context.Context, key string, data []byte) error {
	if err := c.inner.Put(ctx, key, data); err != nil {
		return err
	}
	c.Invalidate(key)
	return nil
}

// PutIfAbsent implements Store. A successful conditional create means
// the key did not exist, so nothing can be cached under it; no
// invalidation is needed.
func (c *CachedStore) PutIfAbsent(ctx context.Context, key string, data []byte) error {
	return c.inner.PutIfAbsent(ctx, key, data)
}

// Head implements Store. Metadata is never cached: vacuum's existence
// checks and age reads must observe the store's truth.
func (c *CachedStore) Head(ctx context.Context, key string) (ObjectInfo, error) {
	return c.inner.Head(ctx, key)
}

// List implements Store. Listings are never cached (new objects must
// become visible immediately for read-after-write consistency).
func (c *CachedStore) List(ctx context.Context, prefix string) ([]ObjectInfo, error) {
	return c.inner.List(ctx, prefix)
}

// Delete implements Store, invalidating the key's cached ranges —
// the only invalidation the immutability invariant requires.
func (c *CachedStore) Delete(ctx context.Context, key string) error {
	if err := c.inner.Delete(ctx, key); err != nil {
		return err
	}
	c.Invalidate(key)
	return nil
}
