package objectstore

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"rottnest/internal/simtime"
)

func TestStackCanonicalOrder(t *testing.T) {
	base := NewMemStore(simtime.NewVirtualClock())
	model := DefaultS3Model()
	st := NewStack(base, StackOptions{
		Faults:  &FaultProfile{},
		Retry:   RetryPolicy{Enabled: true},
		Latency: &model,
	})
	if st.Fault == nil || st.Retry == nil || st.Instrumented == nil || st.Cache == nil {
		t.Fatalf("missing layers: %+v", st)
	}
	// Outer → inner must be cache → instrument → retry → fault → base.
	if st.Store != Store(st.Cache) {
		t.Fatal("cache is not outermost")
	}
	if st.Cache.Inner() != Store(st.Instrumented) {
		t.Fatal("instrument is not directly under cache")
	}
	if st.Instrumented.Inner() != Store(st.Retry) {
		t.Fatal("retry is not directly under instrument")
	}
	if st.Retry.Inner() != Store(st.Fault) {
		t.Fatal("fault is not directly under retry")
	}
	if st.Fault.Inner() != Store(base) {
		t.Fatal("base is not innermost")
	}
	// The chain walkers must reach each layer from the top.
	if FindCached(st.Store) != st.Cache || FindInstrumented(st.Store) != st.Instrumented || FindRetry(st.Store) != st.Retry {
		t.Fatal("chain walkers lost a layer")
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
		if err := st.Store.Put(ctx, key, make([]byte, 100+i)); err != nil {
			t.Fatal(err)
		}
		if _, err := st.Store.Get(ctx, key); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.Store.List(ctx, ""); err != nil {
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
		if err := st.Store.Put(ctx, fmt.Sprintf("obj%d", i), make([]byte, 4096)); err != nil {
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
			if _, err := FanGet(sctx, st.Store, reqs); err != nil {
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
