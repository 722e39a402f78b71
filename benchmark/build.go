package main

import (
	"context"
	"fmt"
	"time"

	"rottnest/internal/core"
)

// setupRepeats is how often the cheap set-ups (generate the inputs,
// create an empty table) are repeated; setup_s is their median.
const setupRepeats = 7

// generateWorld is the whole set-up of the workloads that build their
// world inside the measured part: an empty table and the generated
// files, not yet loaded. It runs setupRepeats times and keeps the last
// world; the inputs are the same each time.
func generateWorld(ctx context.Context, cfg runConfig, rowsPerFile, files int) (*world, []*fileData, float64, error) {
	var (
		w       *world
		gen     []*fileData
		elapsed []float64
	)
	for i := 0; i < setupRepeats; i++ {
		if w != nil {
			w.close()
		}
		start := time.Now()
		var err error
		if w, err = newWorld(ctx, cfg.tmpRoot(), cfg.sz.sleepScale); err != nil {
			return nil, nil, 0, err
		}
		gen = newGenerator(cfg.seed, rowsPerFile).files(files)
		elapsed = append(elapsed, time.Since(start).Seconds())
	}
	return w, gen, median(elapsed), nil
}

// runBuildCompact is the batch pipeline, single goroutine, sleeps on:
// rounds of (append files; Index each kind), then Compact each kind,
// then Vacuum. What it built is then checked by cold queries of every
// class, which is also where its query metrics come from. The work is
// fixed by --seconds (files per round scale with it), not cut off by
// the clock, so every run indexes the same bytes.
func runBuildCompact(ctx context.Context, cfg runConfig) (*runResult, error) {
	res := newRunResult()
	perRound := int(float64(cfg.sz.buildFilesPerRound)*cfg.seconds/20 + 0.5)
	if perRound < 1 {
		perRound = 1
	}
	w, gen, setup, err := generateWorld(ctx, cfg, cfg.sz.buildRows, cfg.sz.buildRounds*perRound)
	if err != nil {
		return nil, err
	}
	defer w.close()
	res.e2e["setup_s"] = setup

	w.store.setSleeping(true)
	ls := &loadStats{bt: newBuildTimes()}
	before := w.store.counts()
	wr := w.newWriter(cfg.sz.buildRows)
	cli, err := w.newClient(ctx, w.store, core.Config{})
	if err != nil {
		return nil, err
	}
	for round := 0; round < cfg.sz.buildRounds; round++ {
		if err := w.indexRound(ctx, wr, cli, gen[round*perRound:(round+1)*perRound], ls, true); err != nil {
			return nil, err
		}
	}
	if err := compactAll(ctx, cli, ls.bt); err != nil {
		return nil, err
	}
	if err := wr.Close(ctx); err != nil {
		return nil, err
	}
	ls.writer = wr.Registry().Snapshot()
	ls.requests = w.store.counts().Sub(before).Requests()
	ls.buildWall, ls.buildBytes = ls.bt.total(), w.rawBytes()
	// Appends, Index and Compact calls, one Vacuum: all succeeded or
	// the run already returned the error.
	res.attempted = len(gen) + (cfg.sz.buildRounds+1)*len(lakeSpecs) + 1

	// One index file per kind must cover every file.
	statuses, err := cli.Status(ctx)
	if err != nil {
		return nil, err
	}
	for _, st := range statuses {
		if st.Entries != 1 || st.CoveredFiles != len(gen) {
			res.invalid = append(res.invalid, fmt.Sprintf("build_compact left %s/%s with %d index files covering %d of %d files",
				st.Column, st.Kind, st.Entries, st.CoveredFiles, len(gen)))
		}
	}

	// Verification: cold queries against what was built, sleeps on.
	or := newOracle(w.files)
	n := cfg.sz.verifyPerClass * int(nClasses)
	queries := rotation(cfg.seed, n, w.files)
	runner := &opRunner{}
	var (
		rec  *recorder
		prog *progSum
	)
	if cfg.trace {
		rec, prog = newRecorder(), &progSum{}
		runner.rec = rec
	}
	op := coldOp(w, prog)
	win := measure(w.store, func() []*sample {
		return closedLoop(ctx, 2, farFuture(), n,
			func(i int) *query { return queries[i] },
			func(ctx context.Context, q *query) *sample { return runner.run(ctx, q, time.Now(), op) })
	})
	w.store.setSleeping(false)
	win.verify(or)
	res.addWindow(win)

	in := traceInput{rec: rec, w: w, ls: ls, win: win}
	if prog != nil {
		in.prog = prog.sum
	}
	return res, finish(ctx, cfg, res, in, win.getsPerQuery())
}
