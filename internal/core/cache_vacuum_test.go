package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"rottnest/internal/component"
	"rottnest/internal/lake"
	"rottnest/internal/objectstore"
	"rottnest/internal/parquet"
	"rottnest/internal/simtime"
	"rottnest/internal/workload"
)

// TestCacheSurvivesCompactAndVacuum primes the read cache with
// searches against small index files, then compacts the index and
// vacuums — physically deleting index objects whose components are
// cache-resident — and verifies that searches stay correct and that
// reads of the deleted objects through the cached store report
// not-found rather than serving stale cached bytes.
func TestCacheSurvivesCompactAndVacuum(t *testing.T) {
	ctx := context.Background()
	e := newEnv(t, uuidSchema, Config{Timeout: time.Hour})
	gen := workload.NewUUIDGen(31)

	var keys [][16]byte
	for i := 0; i < 4; i++ {
		ks, _ := e.appendUUIDs(t, gen, 300)
		keys = append(keys, ks...)
		if _, err := e.cli.Index(ctx, "id", component.KindTrie); err != nil {
			t.Fatal(err)
		}
	}

	// Prime: repeated searches load index tails, components, and data
	// pages into the cache.
	for i := 0; i < 40; i++ {
		k := keys[i*7%len(keys)]
		res, err := e.cli.Search(ctx, uuidQuery(k))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Matches) != 1 {
			t.Fatalf("key matched %d times before compact", len(res.Matches))
		}
	}
	// What must hold is residency — bytes of objects about to be
	// deleted sitting in the cache. (Hits there were came from the
	// Index calls re-reading the metadata log, which a handle no longer
	// does.)
	if s := e.cli.Metrics(); s.Counter("cache.misses") == 0 || s.Counter("cache.evictions") != 0 {
		t.Fatalf("priming left nothing resident in the cache: %v", s.Counters)
	}

	// Remember the small index files that compaction will supersede.
	entries, err := e.cli.Meta().ListFor(ctx, "id", component.KindTrie)
	if err != nil {
		t.Fatal(err)
	}
	oldKeys := make([]string, 0, len(entries))
	for _, en := range entries {
		oldKeys = append(oldKeys, en.IndexKey)
	}

	if _, err := e.cli.Compact(ctx, "id", component.KindTrie, CompactOptions{}); err != nil {
		t.Fatal(err)
	}
	e.clock.Advance(2 * time.Hour) // old files leave the timeout window
	if _, err := e.cli.Vacuum(ctx, VacuumOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := e.cli.CheckExistence(ctx); err != nil {
		t.Fatal(err)
	}

	// The vacuumed objects were cache-resident; the cached store must
	// not resurrect them.
	cached := e.cli.store.Cache
	if cached == nil {
		t.Fatal("client has no cached store")
	}
	deletedSeen := 0
	for _, k := range oldKeys {
		if _, err := e.store.Head(ctx, k); err == nil {
			continue // kept by the timeout rule
		}
		deletedSeen++
		if _, err := cached.Get(ctx, k); !errors.Is(err, objectstore.ErrNotFound) {
			t.Fatalf("stale cache read of vacuumed %s: err = %v", k, err)
		}
	}
	if deletedSeen == 0 {
		t.Fatal("vacuum deleted no superseded index files; scenario not exercised")
	}

	// Searches after vacuum read the compacted index and stay correct.
	for i := 0; i < 40; i++ {
		k := keys[i*11%len(keys)]
		res, err := e.cli.Search(ctx, uuidQuery(k))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Matches) != 1 {
			t.Fatalf("key matched %d times after vacuum", len(res.Matches))
		}
	}
}

// TestConcurrentCacheVacuumInvariants is a randomized storm of
// appends, index builds, index compactions, vacuums, and searches
// against a cache-enabled client. It verifies the protocol invariants
// under delete-heavy maintenance with a warm cache:
//
//   - Existence holds at the end;
//   - no search errors and no search ever returns a foreign value
//     (which a stale cached range would produce);
//   - every live planted key is found exactly once afterwards, and
//     deleted keys never resurface;
//   - the cache actually participated (hits > 0).
func TestConcurrentCacheVacuumInvariants(t *testing.T) {
	ctx := context.Background()
	e := newEnv(t, uuidSchema, Config{Timeout: time.Hour})
	gen := workload.NewUUIDGen(77)

	var mu sync.Mutex
	live := make(map[[16]byte]bool)
	deleted := make(map[[16]byte]bool)
	var paths []string

	appendBatch := func(rng *rand.Rand) error {
		n := 80 + rng.Intn(80)
		mu.Lock()
		keys := gen.Batch(n)
		mu.Unlock()
		path, err := appendKeys(ctx, e, keys)
		if err != nil {
			return err
		}
		mu.Lock()
		for _, k := range keys {
			live[k] = true
		}
		paths = append(paths, path)
		mu.Unlock()
		return nil
	}

	deleteSome := func(rng *rand.Rand) error {
		mu.Lock()
		if len(paths) == 0 {
			mu.Unlock()
			return nil
		}
		path := paths[rng.Intn(len(paths))]
		mu.Unlock()
		snap, err := e.table.Snapshot(ctx)
		if err != nil {
			return err
		}
		if _, ok := snap.File(path); !ok {
			return nil // compacted away
		}
		row := uint32(rng.Intn(40))
		vals, _, _, err := parquet.ScanColumn(ctx, e.store, e.table.Root()+path, 0)
		if err != nil || int(row) >= len(vals.Bytes) {
			return nil
		}
		var victim [16]byte
		copy(victim[:], vals.Bytes[row])
		mu.Lock()
		if !live[victim] {
			mu.Unlock()
			return nil // already deleted via another row/file
		}
		mu.Unlock()
		if err := e.table.DeleteRows(ctx, path, []uint32{row}); err != nil {
			if errors.Is(err, lake.ErrConflict) {
				return nil
			}
			return err
		}
		mu.Lock()
		delete(live, victim)
		deleted[victim] = true
		mu.Unlock()
		return nil
	}

	searchOne := func(rng *rand.Rand) error {
		mu.Lock()
		var k [16]byte
		found := false
		for key := range live {
			k, found = key, true
			break
		}
		mu.Unlock()
		if !found {
			return nil
		}
		res, err := e.cli.Search(ctx, uuidQuery(k))
		if err != nil {
			return fmt.Errorf("search: %w", err)
		}
		for _, m := range res.Matches {
			if string(m.Value) != string(k[:]) {
				return fmt.Errorf("search returned foreign value (stale read?)")
			}
		}
		return nil
	}

	ops := []func(*rand.Rand) error{
		appendBatch,
		deleteSome,
		searchOne,
		searchOne, // search-heavy mix keeps the cache hot
		func(*rand.Rand) error {
			_, err := e.cli.Index(ctx, "id", component.KindTrie)
			return ignoreAbort(err)
		},
		func(*rand.Rand) error {
			_, err := e.cli.Compact(ctx, "id", component.KindTrie, CompactOptions{})
			return ignoreAbort(err)
		},
		func(*rand.Rand) error {
			// Age everything out, then vacuum: superseded index files
			// (often cache-resident) are physically deleted mid-storm.
			e.clock.Advance(2 * time.Hour)
			_, err := e.cli.Vacuum(ctx, VacuumOptions{})
			return err
		},
	}

	for i := 0; i < 3; i++ {
		if err := appendBatch(rand.New(rand.NewSource(int64(i)))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.cli.Index(ctx, "id", component.KindTrie); err != nil {
		t.Fatal(err)
	}

	const workers = 6
	const opsPerWorker = 20
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(4000 + w)))
			for i := 0; i < opsPerWorker; i++ {
				op := ops[rng.Intn(len(ops))]
				if err := op(rng); err != nil {
					errs[w] = fmt.Errorf("worker %d op %d: %w", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	if err := e.cli.CheckExistence(ctx); err != nil {
		t.Fatal(err)
	}
	if s := e.cli.Metrics(); s.Counter("cache.hits") == 0 {
		t.Fatalf("storm produced no cache hits: %v", s.Counters)
	}

	if _, err := e.cli.Index(ctx, "id", component.KindTrie); err != nil {
		t.Fatal(err)
	}
	checked := 0
	for k := range live {
		res, err := e.cli.Search(ctx, uuidQuery(k))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Matches) != 1 {
			t.Fatalf("live key %x matched %d times", k, len(res.Matches))
		}
		checked++
		if checked >= 120 {
			break
		}
	}
	checked = 0
	for k := range deleted {
		res, err := e.cli.Search(ctx, uuidQuery(k))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Matches) != 0 {
			t.Fatalf("deleted key %x resurrected (stale read)", k)
		}
		checked++
		if checked >= 40 {
			break
		}
	}
}

// ignoreAbort treats the protocol's abort-and-retry outcomes as
// benign: the storm's clock advances can push an in-flight index or
// compact past the timeout, which is exactly the abort the protocol
// prescribes (vacuum collects the orphaned upload).
func ignoreAbort(err error) error {
	if errors.Is(err, ErrTimeout) || errors.Is(err, ErrAborted) {
		return nil
	}
	return err
}

// appendKeys appends one batch of uuid rows outside the testing.TB
// helpers (storm workers must return errors, not t.Fatal).
func appendKeys(ctx context.Context, e *env, keys [][16]byte) (string, error) {
	b := parquet.NewBatch(uuidSchema)
	ids := make([][]byte, len(keys))
	pay := make([][]byte, len(keys))
	for i, k := range keys {
		kk := k
		ids[i] = kk[:]
		pay[i] = []byte("p")
	}
	b.Cols[0] = parquet.ColumnValues{Bytes: ids}
	b.Cols[1] = parquet.ColumnValues{Bytes: pay}
	return e.table.Append(ctx, b, parquet.WriterOptions{RowGroupRows: 64, PageBytes: 1024})
}

// getHookStore runs hook once, right after the next successful ranged
// read of key returns from the store below — while the reader above
// still holds the bytes and has not decoded them yet.
type getHookStore struct {
	objectstore.Store
	mu   sync.Mutex
	key  string
	hook func()
}

func (s *getHookStore) Clock() simtime.Clock { return objectstore.ClockOf(s.Store) }

func (s *getHookStore) GetRange(ctx context.Context, key string, off, n int64) ([]byte, error) {
	data, err := s.Store.GetRange(ctx, key, off, n)
	s.mu.Lock()
	hook := s.hook
	if err == nil && key == s.key && hook != nil {
		s.hook = nil
	} else {
		hook = nil
	}
	s.mu.Unlock()
	if hook != nil {
		hook()
	}
	return data, err
}

// TestLakeVacuumDropsDataFilePages: decoded pages are tagged with
// their data file's key, so the lake-vacuum hook that reports a removed
// data file drops its resident pages with everything else cached of
// it, and a page of it being decoded across the delete is served to
// the query that asked but never becomes resident.
func TestLakeVacuumDropsDataFilePages(t *testing.T) {
	ctx := context.Background()
	clock := simtime.NewVirtualClock()
	hooked := &getHookStore{Store: objectstore.NewMemStore(clock)}
	model := objectstore.DefaultS3Model()
	store := objectstore.NewStack(hooked, objectstore.StackOptions{Latency: &model, CacheBytes: -1})
	table, err := lake.CreateWith(ctx, store, "lake", uuidSchema, lake.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	e := &env{clock: clock, store: store, table: table,
		cli: NewClient(table, Config{IndexDir: "rottnest", Timeout: time.Hour})}
	gen := workload.NewUUIDGen(41)
	inFlight, inFlightPath := e.appendUUIDs(t, gen, 400)
	resident, residentPath := e.appendUUIDs(t, gen, 400)
	if _, err := e.cli.Index(ctx, "id", component.KindTrie); err != nil {
		t.Fatal(err)
	}
	// Queries are pinned to the version that names the two small files;
	// lake compaction rewrites them and vacuum then deletes them.
	pinned, err := table.Version(ctx)
	if err != nil {
		t.Fatal(err)
	}
	at := func(k [16]byte) Query {
		q := uuidQuery(k)
		q.Snapshot = pinned
		return q
	}
	for i := 0; i < 2; i++ {
		before := e.cli.Metrics()
		res, err := e.cli.Search(ctx, at(resident[7]))
		if err != nil || len(res.Matches) != 1 || res.Stats.PagesProbed == 0 {
			t.Fatalf("priming search %d: %+v, %v", i, res, err)
		}
		if d := e.cli.Metrics().Sub(before); i == 1 && d.Counter("objcache.misses") != 0 {
			t.Fatalf("repeat decoded %d objects; the page is not resident and the scenario not exercised", d.Counter("objcache.misses"))
		}
	}

	var removed []string
	hooked.key = table.Root() + inFlightPath
	hooked.hook = func() {
		if _, err := table.Compact(ctx, 1<<30, 0); err != nil {
			t.Error(err)
			return
		}
		clock.Advance(2 * time.Hour)
		latest, err := table.Version(ctx)
		if err != nil {
			t.Error(err)
			return
		}
		if removed, err = table.Vacuum(ctx, latest, time.Hour); err != nil {
			t.Error(err)
		}
	}
	res, err := e.cli.Search(ctx, at(inFlight[5]))
	if err != nil || len(res.Matches) != 1 {
		t.Fatalf("search whose page read straddles the vacuum: %+v, %v", res, err)
	}
	for _, path := range []string{inFlightPath, residentPath} {
		if !slices.Contains(removed, path) {
			t.Fatalf("lake vacuum removed %v, not %s; scenario not exercised", removed, path)
		}
		key := table.Root() + path
		if n := e.cli.objc.Invalidate(key); n != 0 {
			t.Errorf("%d decoded pages of vacuumed %s are resident", n, path)
		}
		if n := e.cli.store.Cache.Invalidate(key); n != 0 {
			t.Errorf("%d byte ranges of vacuumed %s are resident", n, path)
		}
	}
}
