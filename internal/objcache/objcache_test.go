package objcache

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// The engine's own suite (internal/cache) covers LRU order, the
// budget, singleflight charging, the in-flight invalidation guard and
// error handling; these tests pin what the tier adds: (kind, id,
// offset) keys tagged by id, the "objcache.*" metric names, DoMany's
// batch of flights, pages as the yielding kind, and nil-safety.

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

// pageDecoder decodes offsets to their decimal strings at 10 bytes
// each and records which indices every call was asked for.
type pageDecoder struct {
	offs  []int64
	calls [][]int
	err   error
}

func (d *pageDecoder) decode(_ context.Context, missing []int) ([]any, []int64, error) {
	d.calls = append(d.calls, append([]int(nil), missing...))
	if d.err != nil {
		return nil, nil, d.err
	}
	vals, costs := make([]any, len(missing)), make([]int64, len(missing))
	for j, i := range missing {
		vals[j], costs[j] = fmt.Sprint(d.offs[i]), 10
	}
	return vals, costs, nil
}

func TestDoManyDecodesTheMissesOnly(t *testing.T) {
	c := New(1 << 20)
	ctx := context.Background()
	get := func(d *pageDecoder) []any {
		t.Helper()
		vals, err := c.DoMany(ctx, KindPage, "file", d.offs, d.decode)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range vals {
			if v.(string) != fmt.Sprint(d.offs[i]) {
				t.Fatalf("value %d = %v, want %d", i, v, d.offs[i])
			}
		}
		return vals
	}
	first := &pageDecoder{offs: []int64{100, 300}}
	get(first)
	// A duplicate offset is one decode, answered twice.
	second := &pageDecoder{offs: []int64{0, 100, 200, 300, 400, 200}}
	get(second)
	third := &pageDecoder{offs: []int64{400, 0}}
	get(third)
	if !reflect.DeepEqual(first.calls, [][]int{{0, 1}}) || !reflect.DeepEqual(second.calls, [][]int{{0, 2, 4}}) || third.calls != nil {
		t.Fatalf("decode asked for %v, then %v, then %v; want the misses only, in one call", first.calls, second.calls, third.calls)
	}
	snap := c.Registry().Snapshot()
	if h, m, co := snap.Counter("objcache.hits"), snap.Counter("objcache.misses"), snap.Counter("objcache.coalesced"); h != 4 || m != 5 || co != 1 {
		t.Errorf("hits/misses/coalesced = %d/%d/%d, want 4/5/1", h, m, co)
	}
	// The same offset under another kind or object is another entry,
	// and the object key is the tag of every page.
	if _, err := c.Do(ctx, "reader", "file", func(context.Context) (any, int64, error) { return "r", 1, nil }); err != nil {
		t.Fatal(err)
	}
	other := &pageDecoder{offs: []int64{100}}
	if _, err := c.DoMany(ctx, KindPage, "file2", other.offs, other.decode); err != nil || len(other.calls) != 1 {
		t.Fatalf("page of another file: %v, decoded %d times", err, len(other.calls))
	}
	if n := c.Invalidate("file"); n != 6 {
		t.Fatalf("Invalidate(file) dropped %d entries, want its 5 pages and its reader", n)
	}

	// A failed decode is handed to the caller, keeps nothing and
	// leaves no flight behind for the next caller to wait on.
	boom := errors.New("boom")
	failing := &pageDecoder{offs: []int64{7, 8}, err: boom}
	if _, err := c.DoMany(ctx, KindPage, "file", failing.offs, failing.decode); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the decode's", err)
	}
	retry := &pageDecoder{offs: []int64{7, 8}}
	get(retry)
	if !reflect.DeepEqual(retry.calls, [][]int{{0, 1}}) {
		t.Fatalf("after a failed decode the retry was asked for %v", retry.calls)
	}

	var off *Cache
	direct := &pageDecoder{offs: []int64{1, 2}}
	for i := 0; i < 2; i++ {
		if vals, err := off.DoMany(ctx, KindPage, "file", direct.offs, direct.decode); err != nil || len(vals) != 2 {
			t.Fatalf("nil DoMany = %v, %v", vals, err)
		}
	}
	if !reflect.DeepEqual(direct.calls, [][]int{{0, 1}, {0, 1}}) {
		t.Fatalf("nil cache decoded %v, want everything each time", direct.calls)
	}
}

// TestPagesYieldToEveryOtherKind: pages fill what the other kinds
// leave free and are the first to go when those need the room.
func TestPagesYieldToEveryOtherKind(t *testing.T) {
	c := New(100)
	ctx := context.Background()
	form := func(id string) {
		t.Helper()
		if _, err := c.Do(ctx, "fm", id, func(context.Context) (any, int64, error) { return id, 20, nil }); err != nil {
			t.Fatal(err)
		}
	}
	pages := func(offs ...int64) *pageDecoder {
		t.Helper()
		d := &pageDecoder{offs: offs}
		if _, err := c.DoMany(ctx, KindPage, "data", offs, d.decode); err != nil {
			t.Fatal(err)
		}
		return d
	}
	form("a")
	form("b")
	pages(0, 1, 2, 3, 4, 5, 6, 7) // 80 bytes of pages into 60 free
	if c.Bytes() != 100 || c.Len() != 8 {
		t.Fatalf("resident = %d bytes / %d entries, want 100 / 8 (two forms, the six newest pages)", c.Bytes(), c.Len())
	}
	form("c")
	form("d")
	form("e") // the forms now need the whole budget
	if d := pages(7); len(d.calls) != 1 {
		t.Fatal("a page outlived a non-page entry's need for its room")
	}
	for _, id := range []string{"a", "b", "c", "d", "e"} {
		decoded := false
		if _, err := c.Do(ctx, "fm", id, func(context.Context) (any, int64, error) { decoded = true; return id, 20, nil }); err != nil || decoded {
			t.Fatalf("form %s was evicted while pages came and went (%v)", id, err)
		}
	}
}

// TestDoManyCallersLeadingEachOthersPages: two callers that each lead
// a decode the other joins finish their own before waiting, whatever
// the interleaving (run under -race).
func TestDoManyCallersLeadingEachOthersPages(t *testing.T) {
	ctx := context.Background()
	for round := 0; round < 200; round++ {
		c := New(1 << 20)
		var wg sync.WaitGroup
		for _, offs := range [][]int64{{1, 2, 3}, {3, 2, 1}, {2, 4}} {
			d := &pageDecoder{offs: offs}
			wg.Add(1)
			go func() {
				defer wg.Done()
				vals, err := c.DoMany(ctx, KindPage, "file", d.offs, d.decode)
				if err != nil {
					t.Error(err)
					return
				}
				for i, v := range vals {
					if v.(string) != fmt.Sprint(d.offs[i]) {
						t.Errorf("value %d = %v, want %d", i, v, d.offs[i])
					}
				}
			}()
		}
		wg.Wait()
		if m := c.Registry().Snapshot().Counter("objcache.misses"); m != 4 {
			t.Fatalf("round %d: %d decodes of 4 distinct pages", round, m)
		}
	}
}
