package objcache

import (
	"context"
	"fmt"
	"testing"
)

// The engine's own suite (internal/cache) covers LRU order, the
// budget, singleflight charging, the in-flight invalidation guard and
// error handling; these tests pin what the tier adds: (kind, id) keys
// tagged by id, the "objcache.*" metric names, and nil-safety.

func TestCountersUnderObjcacheNames(t *testing.T) {
	c := New(100)
	ctx := context.Background()
	decodes := 0
	do := func(id string) {
		t.Helper()
		v, err := c.Do(ctx, "manifest", id, func(context.Context) (any, int64, error) {
			decodes++
			return id, 20, nil
		})
		if err != nil || v.(string) != id {
			t.Fatalf("Do(%s) = %v, %v", id, v, err)
		}
	}
	do("k0")
	do("k0")
	if decodes != 1 {
		t.Fatalf("decodes = %d, want 1", decodes)
	}
	if c.Bytes() != 20 || c.Len() != 1 {
		t.Errorf("resident = %d bytes / %d entries, want 20 / 1", c.Bytes(), c.Len())
	}
	for i := 1; i < 10; i++ {
		do(fmt.Sprintf("k%d", i))
	}
	c.Invalidate("k9")
	snap := c.Registry().Snapshot()
	for name, want := range map[string]int64{
		"objcache.hits":          1,
		"objcache.misses":        10,
		"objcache.evictions":     5,
		"objcache.invalidations": 1,
	} {
		if got := snap.Counter(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if got := snap.Gauge("objcache.bytes"); got != c.Bytes() || got != 80 {
		t.Errorf("objcache.bytes = %d, resident %d, want 80", got, c.Bytes())
	}
}

func TestKindsAreDistinct(t *testing.T) {
	c := New(1 << 20)
	ctx := context.Background()
	if _, err := c.Do(ctx, "a", "k", func(context.Context) (any, int64, error) { return 1, 1, nil }); err != nil {
		t.Fatal(err)
	}
	v, err := c.Do(ctx, "b", "k", func(context.Context) (any, int64, error) { return 2, 1, nil })
	if err != nil {
		t.Fatal(err)
	}
	if v.(int) != 2 {
		t.Fatalf("kind b value = %v, want 2 (kinds must not collide)", v)
	}
}

func TestInvalidateDropsAllFormsOfTheObject(t *testing.T) {
	c := New(1 << 20)
	ctx := context.Background()
	for _, kind := range []string{"reader", "manifest", "fm"} {
		k := kind
		if _, err := c.Do(ctx, k, "idx1", func(context.Context) (any, int64, error) { return k, 5, nil }); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Do(ctx, "dv", "other", func(context.Context) (any, int64, error) { return "dv", 5, nil }); err != nil {
		t.Fatal(err)
	}
	if n := c.Invalidate("idx1"); n != 3 {
		t.Fatalf("Invalidate dropped %d, want 3", n)
	}
	if c.Len() != 1 || c.Bytes() != 5 {
		t.Fatalf("after invalidate: %d entries / %d bytes, want 1 / 5", c.Len(), c.Bytes())
	}
	if n := c.Invalidate("absent"); n != 0 {
		t.Fatalf("Invalidate(absent) dropped %d, want 0", n)
	}
	c.Flush()
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Fatalf("after flush: %d entries / %d bytes", c.Len(), c.Bytes())
	}
}

func TestNilCacheIsDisabled(t *testing.T) {
	var c *Cache
	ctx := context.Background()
	calls := 0
	for i := 0; i < 2; i++ {
		v, err := c.Do(ctx, "x", "k", func(context.Context) (any, int64, error) {
			calls++
			return "v", 1, nil
		})
		if err != nil || v.(string) != "v" {
			t.Fatalf("nil Do = %v, %v", v, err)
		}
	}
	if calls != 2 {
		t.Fatalf("nil cache memoized (%d calls)", calls)
	}
	c.Flush()
	if c.Invalidate("k") != 0 || c.Bytes() != 0 || c.Len() != 0 || c.Registry() != nil {
		t.Error("nil accessors not zero")
	}
}
