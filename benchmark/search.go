package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"rottnest/internal/core"
	"rottnest/internal/obs"
)

// searchWorld is the world both search workloads query.
type searchWorld struct {
	*world
	gen *generator
	cli *core.Client // the client that maintains the indexes
	ls  *loadStats
}

// buildSearchWorld generates, loads and indexes the world: every file
// acked through the ingest writer, then one Index call per kind, which
// leaves one index file per kind. The index builds do not sleep; their
// requests are counted all the same.
func buildSearchWorld(ctx context.Context, cfg runConfig) (*searchWorld, error) {
	w, err := newWorld(ctx, cfg.tmpRoot(), cfg.sz.sleepScale)
	if err != nil {
		return nil, err
	}
	sw := &searchWorld{world: w, gen: newGenerator(cfg.seed, cfg.sz.searchRows), ls: &loadStats{bt: newBuildTimes()}}
	if sw.cli, err = w.newClient(ctx, w.store, core.Config{}); err == nil {
		wr := w.newWriter(cfg.sz.searchRows)
		if err = w.indexRound(ctx, wr, sw.cli, sw.gen.files(cfg.sz.searchFiles), sw.ls, false); err == nil {
			err = wr.Close(ctx)
		}
		sw.ls.writer = wr.Registry().Snapshot()
	}
	if err != nil {
		w.close()
		return nil, err
	}
	sw.ls.requests = w.store.counts().Requests()
	return sw, nil
}

// incrementalStep is where the search workloads' build rate and
// searchable lag come from: after the window, one more file of an
// eighth the rows is appended and indexed with sleeps on. The big build
// of set-up is four seconds of pure CPU, which on a shared machine
// drifts by a quarter over minutes; this step is mostly round trips.
func (sw *searchWorld) incrementalStep(ctx context.Context, cfg runConfig) error {
	rows := max(64, cfg.sz.searchRows/8) // 64: the least a vector index takes
	sw.gen.rows = rows
	f := sw.gen.file()
	step := &loadStats{bt: newBuildTimes()}
	before := sw.store.counts()
	wr := sw.newWriter(rows)
	err := sw.indexRound(ctx, wr, sw.cli, []*fileData{f}, step, true)
	sw.store.setSleeping(false)
	if err == nil {
		err = wr.Close(ctx)
	}
	if err != nil {
		return fmt.Errorf("incremental step: %w", err)
	}
	ls := sw.ls
	ls.acks = append(ls.acks, step.acks...)
	ls.lags = step.lags
	ls.buildWall, ls.buildBytes = step.bt.total(), f.rawBytes
	ls.requests += sw.store.counts().Sub(before).Requests()
	return nil
}

// rotation pre-generates n queries, query i of class i mod 4, so the
// measured loop draws no random numbers and allocates nothing of its
// own.
func rotation(seed int64, n int, files []*fileData) []*query {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	out := make([]*query, n)
	for i := range out {
		out[i] = makeQuery(rng, class(i%int(nClasses)), files)
	}
	return out
}

// coldOp is the stateless searcher: open the table, build a default
// client, run one query. Nothing is reused between operations. A
// traced run adds up the clients' own counters in prog.
func coldOp(w *world, prog *progSum) func(context.Context, *query) ([]hit, error) {
	return func(ctx context.Context, q *query) ([]hit, error) {
		cli, err := w.newClient(ctx, w.store, core.Config{})
		if err != nil {
			return nil, err
		}
		hits, err := search(ctx, cli, q)
		if prog != nil {
			prog.add(cli.Metrics())
		}
		return hits, err
	}
}

func runSearchColdstart(ctx context.Context, cfg runConfig) (*runResult, error) {
	res := newRunResult()
	setupStart := time.Now()
	w, err := buildSearchWorld(ctx, cfg)
	if err != nil {
		return nil, err
	}
	defer w.close()
	or := newOracle(w.files)
	// Room for one operation per client every 40 ms: more than a cold
	// query can do against a 30 ms store.
	queries := rotation(cfg.seed, cfg.sz.coldClients*int(cfg.seconds*25+1)+cfg.sz.coldWarmup, w.files)
	runner := &opRunner{}
	var (
		rec  *recorder
		prog *progSum
	)
	if cfg.trace {
		rec, prog = newRecorder(), &progSum{}
	}
	op := coldOp(w.world, prog)
	exec := func(ctx context.Context, q *query) *sample { return runner.run(ctx, q, time.Now(), op) }
	w.store.setSleeping(true)
	warm := closedLoop(ctx, cfg.sz.coldClients, farFuture(), cfg.sz.coldWarmup,
		func(i int) *query { return queries[i] }, exec)
	if err := firstError("warm-up", warm); err != nil {
		return nil, err
	}
	queries = queries[cfg.sz.coldWarmup:]
	res.e2e["setup_s"] = time.Since(setupStart).Seconds()

	runner.rec = rec
	if prog != nil {
		prog.sum = obs.Snapshot{} // the warm-up's clients do not count
	}
	win := measure(w.store, func() []*sample {
		until := time.Now().Add(cfg.window())
		return closedLoop(ctx, cfg.sz.coldClients, until, 0,
			func(i int) *query { return queries[i%len(queries)] }, exec)
	})
	w.store.setSleeping(false)
	win.verify(or)
	res.addWindow(win)
	if err := w.incrementalStep(ctx, cfg); err != nil {
		return nil, err
	}

	in := traceInput{rec: rec, w: w.world, ls: w.ls, win: win}
	if prog != nil {
		in.prog = prog.sum
	}
	return res, finish(ctx, cfg, res, in, win.getsPerQuery())
}

// hotSequence pre-draws which universe entry each operation asks for:
// Zipf over the universe, so a few queries are asked over and over.
func hotSequence(seed int64, n, universe int, s float64) []int {
	rng := rand.New(rand.NewSource(seed ^ 0x407))
	z := rand.NewZipf(rng, s, 1, uint64(universe-1))
	out := make([]int, n)
	for i := range out {
		out[i] = int(z.Uint64())
	}
	return out
}

func runSearchHot(ctx context.Context, cfg runConfig) (*runResult, error) {
	res := newRunResult()
	setupStart := time.Now()
	w, err := buildSearchWorld(ctx, cfg)
	if err != nil {
		return nil, err
	}
	defer w.close()
	or := newOracle(w.files)

	// Per class a universe of distinct queries; operation i asks for
	// universe[i mod 4][seq[i]].
	n := cfg.sz.hotUniverse
	pool := rotation(cfg.seed, n*int(nClasses), w.files)
	seq := hotSequence(cfg.seed, 1<<16, n, cfg.sz.zipfS)
	pick := func(i int) *query {
		c := i % int(nClasses)
		return pool[seq[i%len(seq)]*int(nClasses)+c]
	}

	// One shared long-lived client. Priming asks every universe query
	// once with sleeps off, then the warm-up runs the real mix; the
	// GETs that fill the caches are counted from here.
	fromClient := w.store.counts()
	cli, err := w.newClient(ctx, w.store, core.Config{})
	if err != nil {
		return nil, err
	}
	runner := &opRunner{}
	hotOp := func(ctx context.Context, q *query) ([]hit, error) { return search(ctx, cli, q) }
	exec := func(ctx context.Context, q *query) *sample { return runner.run(ctx, q, time.Now(), hotOp) }
	prime := closedLoop(ctx, 1, farFuture(), len(pool), func(i int) *query { return pool[i] }, exec)
	if err := firstError("prime", prime); err != nil {
		return nil, err
	}
	w.store.setSleeping(true)
	warm := closedLoop(ctx, cfg.sz.hotClients, farFuture(), cfg.sz.hotWarmup, pick, exec)
	if err := firstError("warm-up", warm); err != nil {
		return nil, err
	}
	res.e2e["setup_s"] = time.Since(setupStart).Seconds()

	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
		runner.rec = rec
	}
	before := cli.Metrics()
	win := measure(w.store, func() []*sample {
		until := time.Now().Add(cfg.window())
		return closedLoop(ctx, cfg.sz.hotClients, until, 0,
			func(i int) *query { return pick(cfg.sz.hotWarmup + i) }, exec)
	})
	w.store.setSleeping(false)
	prog := cli.Metrics().Sub(before)
	win.verify(or)
	res.addWindow(win)

	// Validity: the universe fits the default caches, so the measured
	// window must not reach the store.
	if perOp := float64(win.store.Gets) / float64(len(win.samples)); perOp >= 0.01 {
		res.invalid = append(res.invalid, fmt.Sprintf("search_hot issued %.3f GETs per query in the measured window; the working set no longer fits the caches", perOp))
	}
	// A hot client's GETs are the ones that warmed it, per distinct
	// query: the window itself issues none.
	warming := w.store.counts().Sub(fromClient)
	if err := w.incrementalStep(ctx, cfg); err != nil {
		return nil, err
	}
	in := traceInput{rec: rec, w: w.world, ls: w.ls, win: win, prog: prog}
	return res, finish(ctx, cfg, res, in, float64(warming.Gets)/float64(len(pool)))
}
