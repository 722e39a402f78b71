package objectstore

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"rottnest/internal/simtime"
)

// TestStackCanonicalOrder pins base → fault → retry → instrument →
// cache by what each layer counts. The fault layer fails a GET once and
// makes a conditional PUT land but report failure; the retries under
// the meter absorb both, so the meter counts one GET and one PUT — the
// extra attempt and the read-back GET show only as retry work — and
// the repeat GET is a cache hit the meter never sees.
func TestStackCanonicalOrder(t *testing.T) {
	ctx := simtime.With(context.Background(), simtime.NewSession())
	base := NewMemStore(simtime.NewVirtualClock())
	model := DefaultS3Model()
	st := NewStack(base, StackOptions{
		Faults:  &FaultProfile{AmbiguousPut: 1, Script: FailNth(OpGet, 1)},
		Retry:   &RetryPolicy{Seed: 1},
		Latency: &model,
	})
	if st.Store != Store(st.Cache) || st.Base != Store(base) {
		t.Fatal("the embedded store is not the outermost layer")
	}
	if err := base.Put(ctx, "a", []byte("v")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if got, err := st.Get(ctx, "a"); err != nil || string(got) != "v" {
			t.Fatalf("GET %d = %q, %v", i, got, err)
		}
	}
	if err := st.PutIfAbsent(ctx, "b", []byte("w")); err != nil {
		t.Fatalf("ambiguous PUT surfaced: %v", err)
	}
	snap := st.MetricsSnapshot()
	for name, want := range map[string]int64{
		"fault.transient":          1,
		"fault.ambiguous_puts":     1,
		"retry.retries":            1,
		"retry.ambiguous_resolved": 1,
		"store.gets":               1,
		"store.puts":               1,
		"cache.misses":             1,
		"cache.hits":               1,
	} {
		if got := snap.Counter(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

func TestStackLayerGating(t *testing.T) {
	base := NewMemStore(simtime.NewVirtualClock())
	st := NewStack(base, StackOptions{CacheBytes: -1})
	if st.Store != Store(base) {
		t.Fatal("empty options should yield the bare base store")
	}
	if st.Fault != nil || st.Retry != nil || st.Instrumented != nil || st.Cache != nil {
		t.Fatalf("unexpected layers: %+v", st)
	}
	// CacheBytes 0 means cache on at the default budget.
	st = NewStack(base, StackOptions{})
	if st.Cache == nil || st.Store != Store(st.Cache) {
		t.Fatal("zero CacheBytes should enable the default cache")
	}
}

// TestStackExtendsStack: NewStack over a Stack keeps the base's handles
// and puts its own layers on top, so a cache added later sits above the
// base's meter.
func TestStackExtendsStack(t *testing.T) {
	ctx := context.Background()
	base := NewMemStore(simtime.NewVirtualClock())
	model := DefaultS3Model()
	inner := NewStack(base, StackOptions{Retry: &RetryPolicy{}, Latency: &model, CacheBytes: -1})
	outer := NewStack(inner, StackOptions{})
	if outer.Base != Store(base) || outer.Retry != inner.Retry || outer.Instrumented != inner.Instrumented || outer.Metrics != inner.Metrics {
		t.Fatalf("extension lost the base's handles: %+v", outer)
	}
	if outer.Cache == nil || inner.Cache != nil {
		t.Fatal("the cache belongs to the extension only")
	}
	if err := outer.Put(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := outer.Get(ctx, "k"); err != nil {
			t.Fatal(err)
		}
	}
	if gets := inner.Metrics.Gets.Load(); gets != 1 {
		t.Fatalf("meter saw %d GETs, want 1 (the repeat is a hit above it)", gets)
	}
}

// TestStackRegistryMatchesMetrics pins the one count behind both
// views: the stack's merged snapshot renders the Instrumented layer's
// Metrics under "store.*" names.
func TestStackRegistryMatchesMetrics(t *testing.T) {
	ctx := simtime.With(context.Background(), simtime.NewSession())
	base := NewMemStore(simtime.NewVirtualClock())
	model := DefaultS3Model()
	st := NewStack(base, StackOptions{Latency: &model, CacheBytes: -1})
	for i := 0; i < 5; i++ {
		key := fmt.Sprintf("k%d", i)
		if err := st.Put(ctx, key, make([]byte, 100+i)); err != nil {
			t.Fatal(err)
		}
		if _, err := st.Get(ctx, key); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.List(ctx, ""); err != nil {
		t.Fatal(err)
	}
	m := st.Metrics.Snapshot()
	if m.Gets != 5 || m.Puts != 5 || m.Lists != 1 {
		t.Fatalf("unexpected totals: %+v", m)
	}
	snap := st.MetricsSnapshot()
	for name, want := range map[string]int64{
		"store.gets": m.Gets, "store.puts": m.Puts, "store.lists": m.Lists,
		"store.heads": m.Heads, "store.deletes": m.Deletes,
		"store.bytes_read": m.BytesRead, "store.bytes_written": m.BytesWritten,
	} {
		if got := snap.Counter(name); got != want {
			t.Fatalf("%s = %d, Metrics say %d", name, got, want)
		}
	}
}

// TestFanGetRegistryConcurrent hammers the counters from parallel
// FanGet branches; run under -race via make check.
func TestFanGetRegistryConcurrent(t *testing.T) {
	base := NewMemStore(simtime.NewVirtualClock())
	model := DefaultS3Model()
	st := NewStack(base, StackOptions{Latency: &model, CacheBytes: -1})
	ctx := context.Background()
	const objects = 8
	for i := 0; i < objects; i++ {
		if err := st.Put(ctx, fmt.Sprintf("obj%d", i), make([]byte, 4096)); err != nil {
			t.Fatal(err)
		}
	}
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sctx := simtime.With(ctx, simtime.NewSession())
			reqs := make([]RangeRequest, objects)
			for i := range reqs {
				reqs[i] = RangeRequest{Key: fmt.Sprintf("obj%d", i), Offset: int64(w * 16), Length: 256}
			}
			if _, err := FanGet(sctx, st, reqs); err != nil {
				t.Error(err)
			}
		}(w)
	}
	wg.Wait()
	snap := st.MetricsSnapshot()
	wantGets := int64(workers * objects)
	if got := snap.Counter("store.gets"); got != wantGets {
		t.Fatalf("store.gets = %d, want %d", got, wantGets)
	}
	if got, want := snap.Counter("store.bytes_read"), int64(workers*objects*256); got != want {
		t.Fatalf("store.bytes_read = %d, want %d", got, want)
	}
}
