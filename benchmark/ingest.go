package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rottnest/internal/component"
	"rottnest/internal/core"
	"rottnest/internal/ingest"
	"rottnest/internal/objectstore"
	"rottnest/internal/obs"
)

// ingestStats is what ingest_live measured beyond its query window.
type ingestStats struct {
	drain   time.Duration
	lateMax time.Duration
	// maintenance counts the requests issued under the scheduler's
	// context: its jobs and its polling.
	maintenance objectstore.Snapshot
	// onCovered is how many files the scheduler reported to OnCovered;
	// covered is how many the benchmark saw covered.
	onCovered, covered int
	prog               obs.Snapshot
}

// schedulerRun is a running Scheduler.Run that can be stopped once.
type schedulerRun struct {
	cancel context.CancelFunc
	done   chan error
	once   sync.Once
	err    error
}

func startScheduler(ctx context.Context, sched *ingest.Scheduler) *schedulerRun {
	ctx, cancel := context.WithCancel(ctx)
	r := &schedulerRun{cancel: cancel, done: make(chan error, 1)}
	go func() { r.done <- sched.Run(ctx) }()
	return r
}

// stop cancels the run, waits for it to return, and reports its error.
func (r *schedulerRun) stop() error {
	r.once.Do(func() {
		r.cancel()
		r.err = <-r.done
	})
	return r.err
}

// coverage reads, through the bare store, which files every spec
// covers.
func coverage(ctx context.Context, cli *core.Client) (map[string]bool, error) {
	entries, err := cli.Meta().List(ctx)
	if err != nil {
		return nil, err
	}
	count := make(map[string]int)
	for _, spec := range lakeSpecs {
		seen := make(map[string]bool)
		for _, e := range entries {
			if e.Column != spec.Column || e.Kind != spec.Kind {
				continue
			}
			for _, f := range e.Files {
				if !seen[f] {
					seen[f] = true
					count[f]++
				}
			}
		}
	}
	all := make(map[string]bool)
	for f, n := range count {
		if n == len(lakeSpecs) {
			all[f] = true
		}
	}
	return all, nil
}

// runIngestLive runs the same layers the other way round: an open-loop
// producer appends batches through the ingest writer, the maintenance
// scheduler indexes, compacts and vacuums behind it with caches smaller
// than the working set, and an open-loop querier rotates the four
// classes over everything acked so far, through the scheduler's
// client. After --seconds the producer and querier stop and the
// scheduler drains.
func runIngestLive(ctx context.Context, cfg runConfig) (*runResult, error) {
	res := newRunResult()
	nFiles := int(cfg.seconds * cfg.sz.batchesPerSec)
	if nFiles < 1 {
		nFiles = 1
	}
	w, gen, setup, err := generateWorld(ctx, cfg, cfg.sz.batchRows, nFiles)
	if err != nil {
		return nil, err
	}
	defer w.close()
	res.e2e["setup_s"] = setup

	st, ls := &ingestStats{}, &loadStats{bt: newBuildTimes()}
	var onCovered atomic.Int64
	wr := w.newWriter(cfg.sz.batchRows)
	sched := ingest.NewScheduler(w.table, ingest.SchedulerOptions{
		Config: core.Config{IndexDir: indexDir, CacheBytes: cfg.sz.cacheBytes, DecodedCacheBytes: cfg.sz.decodedCacheBytes},
		Writer: wr,
		Specs:  lakeSpecs,
		// Index jobs only. At the default of 8 index files per kind the
		// first compaction lands somewhere in the second half of a 20 s
		// window or not at all, which splits runs into two populations
		// (lag 3.6 s or 5 s); build_compact is where compaction is
		// measured.
		Policy: core.MaintainPolicy{CompactWhenEntries: 1 << 30},
		OnCovered: func(string, int64, time.Duration) {
			onCovered.Add(1)
		},
	})
	cli := sched.Client()
	// The poller watches coverage through the bare store: it neither
	// sleeps nor counts, so observing costs the system nothing but CPU.
	watcher, err := w.newClient(ctx, w.bare, core.Config{CacheBytes: -1, DecodedCacheBytes: -1, PlanCacheTTLVersions: -1})
	if err != nil {
		return nil, err
	}

	var rec *recorder
	runner := &opRunner{}
	if cfg.trace {
		rec = newRecorder()
		runner.rec = rec
	}
	w.store.setSleeping(true)
	maintenance := &objectstore.Metrics{}
	maintCtx := withScope(ctx, &scope{tally: maintenance})
	daemon := startScheduler(maintCtx, sched)
	defer daemon.stop()

	var (
		// mu guards ls.acks, ls.lags, waiting, latestVer and the errors.
		mu               sync.Mutex
		waiting          = make(map[string]*fileData)
		latestVer        int64
		wg               sync.WaitGroup
		loadErr, pollErr error
	)
	before := w.store.counts()
	start := time.Now()

	// Poller: every pollEvery, which acked files are now covered by all
	// three specs. A file's lag runs from its ack to the poll that first
	// saw it covered.
	pollDone := make(chan struct{})
	pollStop := make(chan struct{})
	go func() {
		defer close(pollDone)
		tick := time.NewTicker(cfg.sz.pollEvery)
		defer tick.Stop()
		for {
			select {
			case <-pollStop:
				return
			case <-tick.C:
			}
			all, err := coverage(ctx, watcher)
			now := time.Now()
			mu.Lock()
			pollErr = err
			for path, f := range waiting {
				if all[path] {
					ls.lags = append(ls.lags, ms(now.Sub(f.ackedAt)))
					delete(waiting, path)
				}
			}
			mu.Unlock()
			if err != nil {
				return
			}
		}
	}()

	// Producer: batch i is due at i/batchesPerSec whatever happened to
	// the batches before it; its ack latency runs from then.
	prodPace := &pacer{start: start, interval: time.Duration(float64(time.Second) / cfg.sz.batchesPerSec)}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i, f := range gen {
			due := prodPace.wait(i)
			wg.Add(1)
			go func(f *fileData) {
				defer wg.Done()
				lat, err := w.load(ctx, wr, f, due)
				mu.Lock()
				defer mu.Unlock()
				if err != nil {
					loadErr = errors.Join(loadErr, err)
					return
				}
				ls.acks = append(ls.acks, ms(lat))
				waiting[f.path] = f
				if f.version > latestVer {
					latestVer = f.version
				}
			}(f)
		}
	}()

	// Querier: seconds*queriesPerSec operations due at random times of
	// the window (randomArrivals), operation i of class i mod 4, over the
	// files acked by then.
	version := func() int64 {
		mu.Lock()
		defer mu.Unlock()
		return latestVer
	}
	liveOp := func(ctx context.Context, q *query) ([]hit, error) { return search(ctx, cli, q) }
	var (
		samplesMu sync.Mutex
		samples   []*sample
	)
	progBefore := cli.Metrics()
	rng := rand.New(rand.NewSource(cfg.seed ^ 0x11fe))
	arrivals := randomArrivals(rng, int(cfg.seconds*cfg.sz.queriesPerSec), cfg.window())
	queryPace := &pacer{start: start, offsets: arrivals}
	win := measure(w.store, func() []*sample {
		var qwg sync.WaitGroup
		for i := range arrivals {
			due := queryPace.wait(i)
			files := w.loaded()
			if len(files) == 0 {
				continue // nothing acked yet: nothing to ask for
			}
			q := makeQuery(rng, class(i%int(nClasses)), files)
			qwg.Add(1)
			go func() {
				defer qwg.Done()
				lo := version()
				s := runner.run(ctx, q, due, liveOp)
				s.versionLo, s.versionHi = lo, version()
				samplesMu.Lock()
				samples = append(samples, s)
				samplesMu.Unlock()
			}()
		}
		qwg.Wait()
		return samples
	})
	wg.Wait()
	if loadErr != nil {
		return nil, fmt.Errorf("ingest: %w", loadErr)
	}

	// Drain: the scheduler keeps running until every acked file is
	// covered by every spec, then is stopped and brought to rest.
	drainStart := time.Now()
	for {
		mu.Lock()
		done := len(waiting) == 0 || pollErr != nil
		mu.Unlock()
		if done || time.Since(drainStart) > cfg.sz.drainMax {
			break
		}
		time.Sleep(cfg.sz.pollEvery)
	}
	close(pollStop)
	<-pollDone
	if pollErr != nil {
		return nil, fmt.Errorf("coverage poll: %w", pollErr)
	}
	if err := daemon.stop(); err != nil && !errors.Is(err, context.Canceled) {
		return nil, fmt.Errorf("scheduler: %w", err)
	}
	if err := sched.Quiesce(maintCtx); err != nil {
		return nil, fmt.Errorf("quiesce: %w", err)
	}
	if err := wr.Close(ctx); err != nil {
		return nil, err
	}
	st.drain = time.Since(drainStart)
	w.store.setSleeping(false)
	// Everything counts here: ingest, maintenance, polling, queries.
	ls.requests = w.store.counts().Sub(before).Requests()
	// Data became searchable at the rate it was indexed: its bytes over
	// the time from the first append until the last file was covered.
	ls.buildWall, ls.buildBytes = cfg.window()+st.drain, w.rawBytes()
	st.maintenance = maintenance.Snapshot()
	st.prog = cli.Metrics().Sub(progBefore)
	st.onCovered = int(onCovered.Load())
	st.covered = len(ls.lags)
	st.lateMax = prodPace.maxLate
	if queryPace.maxLate > st.lateMax {
		st.lateMax = queryPace.maxLate
	}

	// The oracle wants files in commit order.
	sort.Slice(w.files, func(i, j int) bool {
		a, b := w.files[i], w.files[j]
		if a.version != b.version {
			return a.version < b.version
		}
		return a.seq < b.seq
	})
	or := newOracle(w.files)
	win.verify(or)
	res.addWindow(win)
	res.attempted += len(gen)
	res.failed += len(gen) - len(ls.acks)

	// Every acked file must have become covered within the drain.
	if len(waiting) > 0 {
		res.invalid = append(res.invalid, fmt.Sprintf("ingest_live: %d of %d files not covered by every spec %.0f s after the window", len(waiting), len(gen), cfg.sz.drainMax.Seconds()))
	}
	// Validity: the caches were smaller than the working set and plans
	// were invalidated under the queries, or this is not the workload
	// it claims to be.
	if st.prog.Counter("cache.evictions") == 0 {
		res.invalid = append(res.invalid, "ingest_live saw no byte-cache eviction: the working set fits the cache")
	}
	if st.prog.Counter("search.plan_cache_invalidations") == 0 {
		res.invalid = append(res.invalid, "ingest_live saw no plan invalidation")
	}
	if err := finalCheck(ctx, cfg, w, res); err != nil {
		return nil, err
	}

	in := traceInput{rec: rec, w: w, ls: ls, win: win, prog: st.prog, ingest: st}
	return res, finish(ctx, cfg, res, in, win.getsPerQuery())
}

// finalCheck reopens the table with a fresh client on the bare store
// and finds a seeded sample of acked keys, and checks that every spec
// covers every file.
func finalCheck(ctx context.Context, cfg runConfig, w *world, res *runResult) error {
	cli, err := w.newClient(ctx, w.bare, core.Config{})
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(cfg.seed ^ 0xf17a1))
	or := newOracle(w.files)
	for i := 0; i < cfg.sz.finalKeys; i++ {
		q := makeQuery(rng, classUUID, w.files)
		s := &sample{q: q}
		s.hits, s.err = search(ctx, cli, q)
		res.attempted++
		if ok, _, why := or.check(s); !ok {
			res.failed++
			if len(res.failures) < 5 {
				res.failures = append(res.failures, "final check: "+why)
			}
		}
	}
	statuses, err := cli.Status(ctx)
	if err != nil {
		return err
	}
	covered := make(map[component.Kind]int)
	for _, st := range statuses {
		covered[st.Kind] = st.CoveredFiles
	}
	for _, spec := range lakeSpecs {
		if covered[spec.Kind] != len(w.files) {
			res.invalid = append(res.invalid, fmt.Sprintf("final check: %s covers %d of %d files", spec.Kind, covered[spec.Kind], len(w.files)))
		}
	}
	return nil
}
