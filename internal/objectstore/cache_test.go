package objectstore

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"rottnest/internal/simtime"
)

func newCachedWorld(t *testing.T, opts CacheOptions) (*CachedStore, *Metrics, *MemStore) {
	t.Helper()
	mem := NewMemStore(simtime.NewVirtualClock())
	inst, metrics := Instrument(mem, DefaultS3Model())
	return NewCachedStore(inst, opts), metrics, mem
}

func TestCachedStoreHitSkipsStoreAndLatency(t *testing.T) {
	ctx := context.Background()
	cached, metrics, _ := newCachedWorld(t, CacheOptions{})
	if err := cached.Put(ctx, "a", []byte("hello world")); err != nil {
		t.Fatal(err)
	}

	session := simtime.NewSession()
	sctx := simtime.With(ctx, session)
	got, err := cached.GetRange(sctx, "a", 0, 5)
	if err != nil || string(got) != "hello" {
		t.Fatalf("cold read = %q, %v", got, err)
	}
	coldLatency := session.Elapsed()
	if coldLatency == 0 {
		t.Fatal("cold read charged no latency")
	}
	coldGets := metrics.Gets.Load()

	session2 := simtime.NewSession()
	got, err = cached.GetRange(simtime.With(ctx, session2), "a", 0, 5)
	if err != nil || string(got) != "hello" {
		t.Fatalf("warm read = %q, %v", got, err)
	}
	if session2.Elapsed() != 0 {
		t.Fatalf("cache hit charged %v, want zero store latency", session2.Elapsed())
	}
	if metrics.Gets.Load() != coldGets {
		t.Fatalf("cache hit issued a GET (%d -> %d)", coldGets, metrics.Gets.Load())
	}
	st := cached.Registry().Snapshot()
	if st.Counter("cache.hits") != 1 || st.Counter("cache.misses") != 1 || st.Counter("cache.bytes_saved") != 5 {
		t.Fatalf("counters = %v, want 1 hit / 1 miss / 5 bytes saved", st.Counters)
	}
}

func TestCachedStoreKeyedByRange(t *testing.T) {
	ctx := context.Background()
	cached, _, _ := newCachedWorld(t, CacheOptions{})
	if err := cached.Put(ctx, "a", []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	first, _ := cached.GetRange(ctx, "a", 0, 4)
	second, _ := cached.GetRange(ctx, "a", 4, 4)
	if string(first) != "0123" || string(second) != "4567" {
		t.Fatalf("got %q / %q", first, second)
	}
	if st := cached.Registry().Snapshot(); st.Counter("cache.hits") != 0 || st.Counter("cache.misses") != 2 {
		t.Fatalf("distinct ranges must be distinct entries: %v", st.Counters)
	}
	// Suffix range and full Get are their own entries too.
	if got, err := cached.GetRange(ctx, "a", -3, 0); err != nil || string(got) != "789" {
		t.Fatalf("suffix = %q, %v", got, err)
	}
	if got, err := cached.Get(ctx, "a"); err != nil || string(got) != "0123456789" {
		t.Fatalf("full = %q, %v", got, err)
	}
	if got, err := cached.GetRange(ctx, "a", -3, 0); err != nil || string(got) != "789" {
		t.Fatalf("suffix rehit = %q, %v", got, err)
	}
	if st := cached.Registry().Snapshot(); st.Counter("cache.hits") != 1 || st.Counter("cache.misses") != 4 {
		t.Fatalf("counters = %v, want 1 hit / 4 misses", st.Counters)
	}
}

func TestCachedStoreLRUEviction(t *testing.T) {
	ctx := context.Background()
	// Budget of 1000 bytes with 250-byte objects: the cache holds
	// four; the fifth insert evicts the least recently used.
	cached, _, _ := newCachedWorld(t, CacheOptions{MaxBytes: 1000})
	payload := bytes.Repeat([]byte("x"), 250)
	for i := 0; i < 5; i++ {
		key := fmt.Sprintf("obj-%d", i)
		if err := cached.Put(ctx, key, payload); err != nil {
			t.Fatal(err)
		}
		if _, err := cached.Get(ctx, key); err != nil {
			t.Fatal(err)
		}
	}
	if got := cached.Registry().Snapshot().Counter("cache.evictions"); got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
	// obj-0 was evicted; obj-4 is resident.
	if _, err := cached.Get(ctx, "obj-0"); err != nil {
		t.Fatal(err)
	}
	if _, err := cached.Get(ctx, "obj-4"); err != nil {
		t.Fatal(err)
	}
	if st := cached.Registry().Snapshot(); st.Counter("cache.hits") != 1 || st.Counter("cache.misses") != 6 {
		t.Fatalf("counters = %v, want obj-0 re-miss and obj-4 hit", st.Counters)
	}
}

func TestCachedStoreDeleteInvalidates(t *testing.T) {
	ctx := context.Background()
	cached, _, _ := newCachedWorld(t, CacheOptions{})
	if err := cached.Put(ctx, "a", []byte("content")); err != nil {
		t.Fatal(err)
	}
	if _, err := cached.Get(ctx, "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := cached.GetRange(ctx, "a", 0, 3); err != nil {
		t.Fatal(err)
	}
	if err := cached.Delete(ctx, "a"); err != nil {
		t.Fatal(err)
	}
	// All ranges of the key are gone: reads must see the store's
	// truth (NotFound), not cached bytes.
	if _, err := cached.Get(ctx, "a"); err != ErrNotFound {
		t.Fatalf("read after delete = %v, want ErrNotFound", err)
	}
	if _, err := cached.GetRange(ctx, "a", 0, 3); err != ErrNotFound {
		t.Fatalf("range read after delete = %v, want ErrNotFound", err)
	}
}

func TestCachedStorePutInvalidates(t *testing.T) {
	ctx := context.Background()
	cached, _, _ := newCachedWorld(t, CacheOptions{})
	if err := cached.Put(ctx, "a", []byte("old-bytes")); err != nil {
		t.Fatal(err)
	}
	if got, _ := cached.GetRange(ctx, "a", 0, 3); string(got) != "old" {
		t.Fatalf("got %q", got)
	}
	// The lake never overwrites, but the wrapper still invalidates if
	// someone does.
	if err := cached.Put(ctx, "a", []byte("new-bytes")); err != nil {
		t.Fatal(err)
	}
	if got, _ := cached.GetRange(ctx, "a", 0, 3); string(got) != "new" {
		t.Fatalf("stale read after overwrite: %q", got)
	}
}

// gateStore holds every GetRange after its bytes were read, so a test
// can land another operation while the read is still in flight.
type gateStore struct {
	Store
	read    chan struct{} // receives once per GetRange that has its bytes
	release chan struct{}
}

func (g *gateStore) Clock() simtime.Clock { return ClockOf(g.Store) }

func (g *gateStore) GetRange(ctx context.Context, key string, offset, length int64) ([]byte, error) {
	data, err := g.Store.GetRange(ctx, key, offset, length)
	g.read <- struct{}{}
	<-g.release
	return data, err
}

// TestCachedStoreReadAcrossDeleteIsNotKept is the stale-insert
// regression: a GetRange that fetched its bytes before a Delete landed
// must not make them resident afterwards, or every later read of the
// deleted key is served from cache instead of ErrNotFound — hiding
// vacuumed index files from the stale-index replan.
func TestCachedStoreReadAcrossDeleteIsNotKept(t *testing.T) {
	ctx := context.Background()
	mem := NewMemStore(simtime.NewVirtualClock())
	if err := mem.Put(ctx, "a", []byte("doomed-bytes")); err != nil {
		t.Fatal(err)
	}
	gate := &gateStore{Store: mem, read: make(chan struct{}, 2), release: make(chan struct{})}
	cached := NewCachedStore(gate, CacheOptions{})

	inFlight := make(chan error, 1)
	go func() {
		got, err := cached.GetRange(ctx, "a", 0, 6)
		if err == nil && string(got) != "doomed" {
			err = fmt.Errorf("in-flight read = %q", got)
		}
		inFlight <- err
	}()
	<-gate.read
	if err := cached.Delete(ctx, "a"); err != nil {
		t.Fatal(err)
	}
	close(gate.release)
	// The read that raced the delete is still served its bytes.
	if err := <-inFlight; err != nil {
		t.Fatal(err)
	}
	if _, err := cached.GetRange(ctx, "a", 0, 6); !errors.Is(err, ErrNotFound) {
		t.Fatalf("read after delete = %v (counters %v), want ErrNotFound", err, cached.Registry().Snapshot().Counters)
	}
}

// blockingStore delays GetRange until released, to hold reads
// in flight.
type blockingStore struct {
	Store
	mu      sync.Mutex
	gets    int
	release chan struct{}
}

func (b *blockingStore) Clock() simtime.Clock { return ClockOf(b.Store) }

func (b *blockingStore) GetRange(ctx context.Context, key string, offset, length int64) ([]byte, error) {
	b.mu.Lock()
	b.gets++
	b.mu.Unlock()
	<-b.release
	return b.Store.GetRange(ctx, key, offset, length)
}

func (b *blockingStore) Get(ctx context.Context, key string) ([]byte, error) {
	return b.GetRange(ctx, key, 0, -1)
}

func TestCachedStoreSingleflight(t *testing.T) {
	ctx := context.Background()
	mem := NewMemStore(simtime.NewVirtualClock())
	if err := mem.Put(ctx, "a", []byte("shared-bytes")); err != nil {
		t.Fatal(err)
	}
	blocking := &blockingStore{Store: mem, release: make(chan struct{})}
	cached := NewCachedStore(blocking, CacheOptions{})

	const readers = 8
	var wg sync.WaitGroup
	results := make([][]byte, readers)
	errs := make([]error, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = cached.GetRange(ctx, "a", 0, 6)
		}(i)
	}
	// Let every reader reach the flight, then release the one
	// upstream GET.
	deadline := time.Now().Add(5 * time.Second)
	for {
		blocking.mu.Lock()
		started := blocking.gets
		blocking.mu.Unlock()
		if started == 1 {
			// One leader in flight. Give followers a moment to park.
			time.Sleep(10 * time.Millisecond)
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("leader never reached the store (gets=%d)", started)
		}
		time.Sleep(time.Millisecond)
	}
	close(blocking.release)
	wg.Wait()

	for i := 0; i < readers; i++ {
		if errs[i] != nil || string(results[i]) != "shared" {
			t.Fatalf("reader %d = %q, %v", i, results[i], errs[i])
		}
	}
	blocking.mu.Lock()
	upstream := blocking.gets
	blocking.mu.Unlock()
	if upstream != 1 {
		t.Fatalf("upstream GETs = %d, want 1 (singleflight)", upstream)
	}
	st := cached.Registry().Snapshot()
	if st.Counter("cache.misses")+st.Counter("cache.coalesced_gets")+st.Counter("cache.hits") != readers {
		t.Fatalf("counters don't account for all readers: %v", st.Counters)
	}
	if got := st.Counter("cache.misses"); got != 1 {
		t.Fatalf("misses = %d, want 1 leader", got)
	}
}

func TestFanGetCoalescesAdjacentRanges(t *testing.T) {
	ctx := context.Background()
	cached, metrics, _ := newCachedWorld(t, CacheOptions{})
	data := make([]byte, 1<<20)
	for i := range data {
		data[i] = byte(i % 251)
	}
	if err := cached.Put(ctx, "obj", data); err != nil {
		t.Fatal(err)
	}
	if err := cached.Put(ctx, "other", data); err != nil {
		t.Fatal(err)
	}

	reqs := []RangeRequest{
		{Key: "obj", Offset: 0, Length: 100},       // |
		{Key: "obj", Offset: 100_000, Length: 50},  // | gap < 128 KiB: merge
		{Key: "obj", Offset: 500_000, Length: 100}, // gap > 128 KiB: separate
		{Key: "other", Offset: 20, Length: 30},     // different key
		{Key: "obj", Offset: 100_050, Length: 40},  // adjacent to second: merge
		{Key: "obj", Offset: -24, Length: 0},       // suffix: never merged
	}
	before := metrics.Gets.Load()
	session := simtime.NewSession()
	got, err := FanGet(simtime.With(ctx, session), cached, reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range reqs {
		var want []byte
		if r.Offset < 0 {
			want = data[len(data)+int(r.Offset):]
		} else {
			want = data[r.Offset : r.Offset+r.Length]
		}
		if !bytes.Equal(got[i], want) {
			t.Fatalf("req %d: got %d bytes, want %d (first diff at content)", i, len(got[i]), len(want))
		}
	}
	// 6 requests collapse into 4 GETs: [0,100090) merged,
	// [500000,500100), other, suffix.
	if gets := metrics.Gets.Load() - before; gets != 4 {
		t.Fatalf("issued %d GETs, want 4", gets)
	}
}

func TestFanGetCoalescingDisabledWithoutCache(t *testing.T) {
	ctx := context.Background()
	mem := NewMemStore(simtime.NewVirtualClock())
	inst, metrics := Instrument(mem, DefaultS3Model())
	if err := inst.Put(ctx, "obj", bytes.Repeat([]byte("z"), 100)); err != nil {
		t.Fatal(err)
	}
	before := metrics.Gets.Load()
	reqs := []RangeRequest{
		{Key: "obj", Offset: 0, Length: 10},
		{Key: "obj", Offset: 10, Length: 10},
	}
	if _, err := FanGet(ctx, inst, reqs); err != nil {
		t.Fatal(err)
	}
	if gets := metrics.Gets.Load() - before; gets != 2 {
		t.Fatalf("uncached FanGet issued %d GETs, want 2 (no coalescing)", gets)
	}
}

func TestCoalesceRangesMapping(t *testing.T) {
	reqs := []RangeRequest{
		{Key: "k", Offset: 100, Length: 10},
		{Key: "k", Offset: 100, Length: 10}, // duplicate
		{Key: "k", Offset: 105, Length: 20}, // overlap
		{Key: "k", Offset: 300, Length: 5},
	}
	issued, refs := coalesceRanges(reqs, 8)
	if len(issued) != 2 {
		t.Fatalf("issued = %v, want 2 merged requests", issued)
	}
	if issued[0].Offset != 100 || issued[0].Length != 25 {
		t.Fatalf("merged = %+v, want [100,125)", issued[0])
	}
	for i, r := range reqs[:3] {
		if refs[i].issued != 0 || refs[i].off != r.Offset-100 || refs[i].length != r.Length {
			t.Fatalf("ref %d = %+v", i, refs[i])
		}
	}
	if refs[3].issued != 1 || refs[3].off != 0 {
		t.Fatalf("ref 3 = %+v", refs[3])
	}
}

func TestCachedStoreConcurrentMixedOps(t *testing.T) {
	// Race-detector workout: concurrent reads, writes, deletes, and
	// flushes over a small keyspace.
	ctx := context.Background()
	cached, _, _ := newCachedWorld(t, CacheOptions{MaxBytes: 4096})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", (w+i)%5)
				switch i % 5 {
				case 0:
					_ = cached.Put(ctx, key, bytes.Repeat([]byte{byte(i)}, 64))
				case 1, 2:
					_, _ = cached.GetRange(ctx, key, 0, 16)
				case 3:
					_ = cached.Delete(ctx, key)
				default:
					if i%40 == 4 {
						cached.Flush()
					}
					_, _ = cached.Get(ctx, key)
				}
			}
		}(w)
	}
	wg.Wait()
}
