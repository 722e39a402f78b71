package core

import (
	"context"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"rottnest/internal/component"
	"rottnest/internal/lake"
	"rottnest/internal/objectstore"
	"rottnest/internal/simtime"
	"rottnest/internal/workload"
)

// holdStore delays reads: every GET sleeps delay of real time, so
// concurrent searches overlap, and once armed the first GetRange of a
// key containing match signals held and waits for release.
type holdStore struct {
	objectstore.Store
	delay time.Duration

	mu      sync.Mutex
	match   string
	held    chan struct{}
	release chan struct{}
}

func (h *holdStore) arm(match string) {
	h.mu.Lock()
	h.match, h.held, h.release = match, make(chan struct{}), make(chan struct{})
	h.mu.Unlock()
}

func (h *holdStore) GetRange(ctx context.Context, key string, off, n int64) ([]byte, error) {
	time.Sleep(h.delay)
	h.mu.Lock()
	hold := h.match != "" && strings.Contains(key, h.match)
	var held, release chan struct{}
	if hold {
		h.match, held, release = "", h.held, h.release
	}
	h.mu.Unlock()
	if hold {
		close(held)
		<-release
	}
	return h.Store.GetRange(ctx, key, off, n)
}

func (h *holdStore) Get(ctx context.Context, key string) ([]byte, error) {
	time.Sleep(h.delay)
	return h.Store.Get(ctx, key)
}

// tallyWorld is a trie-indexed uuid table over a metered holdStore.
func tallyWorld(t *testing.T, delay time.Duration) (*lake.Table, *holdStore, *objectstore.Metrics, [][16]byte) {
	t.Helper()
	clock := simtime.NewVirtualClock()
	hold := &holdStore{Store: objectstore.NewMemStore(clock), delay: delay}
	inst, metrics := objectstore.Instrument(hold, objectstore.LatencyModel{})
	table, err := lake.CreateWith(context.Background(), inst, "lake", uuidSchema, lake.OpenOptions{Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	e := &env{clock: clock, table: table}
	gen := workload.NewUUIDGen(61)
	var keys [][16]byte
	for i := 0; i < 2; i++ {
		ks, _ := e.appendUUIDs(t, gen, 400)
		keys = append(keys, ks...)
	}
	cli := NewClient(table, Config{IndexDir: "rottnest", Clock: clock})
	if _, err := cli.Index(context.Background(), "id", component.KindTrie); err != nil {
		t.Fatal(err)
	}
	return table, hold, metrics, keys
}

// TestConcurrentSearchesCountOwnGETs runs eight cold searches at once:
// each reports exactly the GETs it issues alone, and together they
// report exactly what the store served. Subtracting store-global
// snapshots instead charged each search its neighbours' GETs too.
func TestConcurrentSearchesCountOwnGETs(t *testing.T) {
	ctx := context.Background()
	table, _, metrics, keys := tallyWorld(t, 2*time.Millisecond)
	cfg := coldConfig()
	cfg.IndexDir = "rottnest"
	cli := NewClient(table, cfg)
	if _, err := cli.Search(ctx, uuidQuery(keys[0])); err != nil { // reads the metadata log once
		t.Fatal(err)
	}

	const searches = 8
	solo := make([]int64, searches)
	for i := range solo {
		before := metrics.Snapshot()
		res, err := cli.Search(ctx, uuidQuery(keys[i*97]))
		if err != nil {
			t.Fatal(err)
		}
		if served := metrics.Snapshot().Sub(before).Gets; res.Stats.GETs != served || served == 0 {
			t.Fatalf("solo search %d reported %d GETs, store served %d", i, res.Stats.GETs, served)
		}
		solo[i] = res.Stats.GETs
	}

	before := metrics.Snapshot()
	got := make([]int64, searches)
	errs := make([]error, searches)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := cli.Search(ctx, uuidQuery(keys[i*97]))
			if errs[i] = err; err == nil {
				got[i] = res.Stats.GETs
			}
		}(i)
	}
	wg.Wait()
	var sum int64
	for i := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if got[i] != solo[i] {
			t.Errorf("search %d reported %d GETs concurrently, %d alone", i, got[i], solo[i])
		}
		sum += got[i]
	}
	if served := metrics.Snapshot().Sub(before).Gets; sum != served {
		t.Fatalf("searches reported %d GETs in all, store served %d", sum, served)
	}
}

// TestSearchCountsOnOuterTally: a search run under a caller's tally
// (a maintenance job, a harness op) counts its requests on both.
func TestSearchCountsOnOuterTally(t *testing.T) {
	table, _, metrics, keys := tallyWorld(t, 0)
	cli := NewClient(table, Config{IndexDir: "rottnest"})
	var outer objectstore.Metrics
	before := metrics.Snapshot()
	res, err := cli.Search(objectstore.WithTally(context.Background(), &outer), uuidQuery(keys[3]))
	if err != nil {
		t.Fatal(err)
	}
	served := metrics.Snapshot().Sub(before)
	if o := outer.Snapshot(); res.Stats.GETs == 0 || o.Gets != res.Stats.GETs || o.BytesRead != res.Stats.BytesRead || o != served {
		t.Fatalf("search reported %d GETs / %d bytes, outer tally %+v, store served %+v",
			res.Stats.GETs, res.Stats.BytesRead, o, served)
	}
}

// awaitJoin returns once some goroutine waits on a cache flight: with
// the flight's leader held in the store, that is a search joining it.
func awaitJoin(t *testing.T) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if strings.Contains(string(buf[:runtime.Stack(buf, true)]), "internal/cache.(*Cache[...]).Wait(") {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("no search joined the held flight")
		}
	}
}

// TestJoinedFlightCountsNoRequest: a search that joins another search's
// in-flight read issued no request and reports none; the search that
// led the flight reports the read.
func TestJoinedFlightCountsNoRequest(t *testing.T) {
	ctx := context.Background()
	table, hold, metrics, keys := tallyWorld(t, 0)
	q := uuidQuery(keys[5])
	solo, err := NewClient(table, Config{IndexDir: "rottnest"}).Search(ctx, q)
	if err != nil || solo.Stats.GETs == 0 {
		t.Fatalf("solo search: %v, %d GETs", err, solo.Stats.GETs)
	}

	cli := NewClient(table, Config{IndexDir: "rottnest"})
	before := metrics.Snapshot()
	// The leader plans, probes and is held at its data-page read, so
	// everything but that page is resident when the follower starts.
	hold.arm("/data/")
	leader := make(chan *Result, 1)
	go func() {
		res, err := cli.Search(ctx, q)
		if err != nil {
			t.Error(err)
		}
		leader <- res
	}()
	<-hold.held
	follower := make(chan *Result, 1)
	go func() {
		res, err := cli.Search(ctx, q)
		if err != nil {
			t.Error(err)
		}
		follower <- res
	}()
	awaitJoin(t)
	close(hold.release)
	lres, fres := <-leader, <-follower
	if lres == nil || fres == nil {
		t.FailNow()
	}
	m := cli.Metrics()
	if m.Counter("objcache.coalesced")+m.Counter("cache.coalesced_gets") == 0 {
		t.Fatal("the follower joined no flight")
	}
	if fres.Stats.GETs != 0 || fres.Stats.BytesRead != 0 {
		t.Fatalf("follower reported %d GETs / %d bytes, want none", fres.Stats.GETs, fres.Stats.BytesRead)
	}
	if lres.Stats.GETs != solo.Stats.GETs {
		t.Fatalf("leader reported %d GETs, %d alone", lres.Stats.GETs, solo.Stats.GETs)
	}
	if served := metrics.Snapshot().Sub(before).Gets; served != lres.Stats.GETs {
		t.Fatalf("store served %d GETs, leader reported %d", served, lres.Stats.GETs)
	}
}
