package bench

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"rottnest/internal/component"
	"rottnest/internal/core"
)

// Fig8Result holds the scaling series of Figure 8.
type Fig8Result struct {
	// Workers are the cluster sizes swept.
	Workers []int
	// BruteLatency[app][i] is brute-force latency at Workers[i];
	// BruteCost is worker-seconds per query. Apps: "substring",
	// "uuid", "vector".
	BruteLatency map[string][]time.Duration
	BruteCost    map[string][]float64
	// RottnestLatency/Cost are the same sweep for Rottnest searchers
	// (Fig 8c/8d): latency ~flat, cost ~linear.
	RottnestWorkers []int
	RottnestLatency map[string][]time.Duration
	RottnestCost    map[string][]float64
}

// Fig8Scaling reproduces Figure 8: brute force scales near-linearly
// to ~32 workers then hits a knee at 64 (latency gain evaporates,
// cost per query jumps), while Rottnest — depth-bound on object
// storage — barely improves with more searchers and its cost rises
// almost linearly.
func Fig8Scaling(opts Options) (*Fig8Result, error) {
	ctx := context.Background()
	out := opts.out()
	res := &Fig8Result{
		Workers:         []int{1, 2, 4, 8, 16, 32, 64},
		RottnestWorkers: []int{1, 2, 4, 8},
		BruteLatency:    map[string][]time.Duration{},
		BruteCost:       map[string][]float64{},
		RottnestLatency: map[string][]time.Duration{},
		RottnestCost:    map[string][]float64{},
	}
	if opts.Quick {
		res.Workers = []int{1, 8, 32, 64}
	}

	// Build the three application worlds.
	batches := opts.scaleInt(64, 16)
	uw, err := newUUIDWorld(opts.Seed, batches, opts.scaleInt(4000, 1000))
	if err != nil {
		return nil, err
	}
	tw, err := newTextWorld(opts.Seed+1, batches, opts.scaleInt(1200, 300))
	if err != nil {
		return nil, err
	}
	vw, err := newVectorWorld(opts.Seed+2, opts.scaleInt(40000, 8000), 32, 10)
	if err != nil {
		return nil, err
	}

	type app struct {
		name    string
		world   *world
		column  string
		kind    component.Kind
		pred    func([]byte) bool
		queries []core.Query
	}
	needle := []byte(tw.needles[0])
	key := uw.keys[123]
	qv := vw.queryVs[0]
	apps := []app{
		{"substring", tw.world, "body", component.KindFM,
			func(v []byte) bool { return bytes.Contains(v, needle) }, tw.queries(3)},
		{"uuid", uw.world, "id", component.KindTrie,
			func(v []byte) bool { return bytes.Equal(v, key[:]) }, uw.queries(3)},
		{"vector", vw.world, "emb", component.KindIVFPQ,
			func(v []byte) bool { return false },
			[]core.Query{{Column: "emb", Vector: qv, K: 10, NProbe: 16, Snapshot: -1}}},
	}

	// Brute-force sweep (Fig 8a/8b).
	fmt.Fprintln(out, "# Fig 8a/8b: brute force scaling (latency / worker-seconds per query)")
	for _, a := range apps {
		res.BruteLatency[a.name] = nil
		res.BruteCost[a.name] = nil
		for _, w := range res.Workers {
			lat, err := bruteForceLatency(ctx, a.world.table, w, a.column, a.pred)
			if err != nil {
				return nil, err
			}
			res.BruteLatency[a.name] = append(res.BruteLatency[a.name], lat)
			res.BruteCost[a.name] = append(res.BruteCost[a.name], lat.Seconds()*float64(w))
		}
	}
	fmt.Fprintf(out, "%-10s", "workers")
	for _, w := range res.Workers {
		fmt.Fprintf(out, "%-12d", w)
	}
	fmt.Fprintln(out)
	for _, a := range apps {
		fmt.Fprintf(out, "%-10s", a.name)
		for _, lat := range res.BruteLatency[a.name] {
			fmt.Fprintf(out, "%-12s", lat.Round(time.Millisecond))
		}
		fmt.Fprintln(out)
		fmt.Fprintf(out, "%-10s", "  $ (ws)")
		for _, c := range res.BruteCost[a.name] {
			fmt.Fprintf(out, "%-12.1f", c)
		}
		fmt.Fprintln(out)
	}

	// Rottnest sweep (Fig 8c/8d): index everything, then model S
	// searchers by widening the per-query fan width S-fold — the
	// depth-bound chains do not shrink, so latency stays flat while
	// S instances burn cost.
	fmt.Fprintln(out, "\n# Fig 8c/8d: Rottnest scaling (latency / worker-seconds per query)")
	for _, a := range apps {
		if _, err := a.world.indexAndCompact(ctx, a.column, a.kind); err != nil {
			return nil, err
		}
	}
	fmt.Fprintf(out, "%-10s", "searchers")
	for _, w := range res.RottnestWorkers {
		fmt.Fprintf(out, "%-12d", w)
	}
	fmt.Fprintln(out)
	for _, a := range apps {
		for _, s := range res.RottnestWorkers {
			a.world.client = core.NewClient(a.world.table, core.Config{
				IndexDir: "rottnest", SearchWidth: 32 * s,
			})
			lat, err := a.world.searchLatency(ctx, a.queries)
			if err != nil {
				return nil, err
			}
			res.RottnestLatency[a.name] = append(res.RottnestLatency[a.name], lat)
			res.RottnestCost[a.name] = append(res.RottnestCost[a.name], lat.Seconds()*float64(s))
		}
		fmt.Fprintf(out, "%-10s", a.name)
		for _, lat := range res.RottnestLatency[a.name] {
			fmt.Fprintf(out, "%-12s", lat.Round(time.Millisecond))
		}
		fmt.Fprintln(out)
		fmt.Fprintf(out, "%-10s", "  $ (ws)")
		for _, c := range res.RottnestCost[a.name] {
			fmt.Fprintf(out, "%-12.2f", c)
		}
		fmt.Fprintln(out)
	}
	return res, nil
}

// MinimumLatencyResult holds the paper's Section VII-A numbers.
type MinimumLatencyResult struct {
	// Rottnest1 is single-searcher Rottnest latency per application.
	Rottnest1 map[string]time.Duration
	// Brute64 is 64-worker brute-force latency per application.
	Brute64 map[string]time.Duration
	// Speedup is Brute64/Rottnest1.
	Speedup map[string]float64
}

// MinimumLatency reproduces the minimum-latency-threshold comparison
// of Section VII-A: single-searcher Rottnest beats 64-worker brute
// force by a large factor on all three applications (the paper
// reports 4.3x/4.3x/5.4x with thresholds 4.6s/1.7s/2.3s).
func MinimumLatency(opts Options) (*MinimumLatencyResult, error) {
	out := opts.out()
	fig8, err := Fig8Scaling(Options{Seed: opts.Seed, Quick: opts.Quick})
	if err != nil {
		return nil, err
	}
	res := &MinimumLatencyResult{
		Rottnest1: map[string]time.Duration{},
		Brute64:   map[string]time.Duration{},
		Speedup:   map[string]float64{},
	}
	last := len(fig8.Workers) - 1
	fmt.Fprintln(out, "# Minimum latency thresholds (VII-A)")
	fmt.Fprintf(out, "%-10s %-14s %-14s %-8s\n", "app", "rottnest@1", "brute@64", "speedup")
	for _, app := range []string{"substring", "uuid", "vector"} {
		r1 := fig8.RottnestLatency[app][0]
		b64 := fig8.BruteLatency[app][last]
		res.Rottnest1[app] = r1
		res.Brute64[app] = b64
		res.Speedup[app] = float64(b64) / float64(r1)
		fmt.Fprintf(out, "%-10s %-14s %-14s %.1fx\n",
			app, r1.Round(time.Millisecond), b64.Round(time.Millisecond), res.Speedup[app])
	}
	return res, nil
}
