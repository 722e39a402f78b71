// Command rottnest-bench regenerates the paper's evaluation figures
// (Section VII) on the simulated substrate. Each experiment prints
// the same series the paper plots; absolute numbers differ (the
// substrate is a simulator), but the shapes — who wins, where the
// knees and crossovers fall — are the reproduction targets recorded
// in EXPERIMENTS.md.
//
// Usage:
//
//	rottnest-bench [-quick] [-seed N] [-json FILE] [-trace FILE] [-cpuprofile FILE] [-memprofile FILE] <experiment|all>
//
// Experiments: fig7 fig8 fig9 fig10 fig11 fig12 fig13 latency lance
// throughput ablation distribution serve multi chaos sharded build
// planner ingest adaptive
//
// With -trace, experiments collect one exemplar span tree per search
// site ("EXPLAIN ANALYZE" for the measured queries) and the map
// {experiment: {site: tree}} is written as JSON.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"rottnest/internal/bench"
)

// experiment adapts a runner to the table's untyped signature.
func experiment[R any](run func(bench.Options) (R, error)) func(bench.Options) (any, error) {
	return func(o bench.Options) (any, error) { return run(o) }
}

var experiments = []struct {
	name string
	desc string
	run  func(bench.Options) (any, error)
}{
	{"fig7", "TCO phase diagrams: substring and UUID search", experiment(bench.Fig7PhaseDiagrams)},
	{"fig8", "brute-force and Rottnest scaling with cluster size", experiment(bench.Fig8Scaling)},
	{"fig9", "vector phase diagrams at recall 0.87/0.92/0.97", experiment(bench.Fig9VectorPhases)},
	{"fig10", "read granularity and page-read overhead", experiment(bench.Fig10ReadGranularity)},
	{"fig11", "in-situ querying ablation", experiment(bench.Fig11InSitu)},
	{"fig12", "TCO parameter sensitivity", experiment(bench.Fig12Sensitivity)},
	{"fig13", "compaction vs search latency", experiment(bench.Fig13Compaction)},
	{"latency", "minimum latency thresholds (VII-A)", experiment(bench.MinimumLatency)},
	{"lance", "in-situ Parquet vs ideal custom format (VII-C)", experiment(bench.CustomFormatComparison)},
	{"throughput", "QPS caps from the per-prefix GET limit (VII-D3)", experiment(bench.Throughput)},
	{"ablation", "design-choice ablations (componentization, block/page sizes, PQ M)", experiment(bench.Ablations)},
	{"distribution", "data-distribution sensitivity: text entropy vs phase boundary (VII-D2)", experiment(bench.DistributionSensitivity)},
	{"serve", "concurrent Zipf mix: GETs/query and cache hits with caches off, byte cache only, all caches", experiment(bench.Serve)},
	{"multi", "multi-predicate plans: page-set intersection GETs vs separate searches, shared-probe batching", experiment(bench.Multi)},
	{"chaos", "search latency overhead under a fault storm with retries on", experiment(bench.Chaos)},
	{"sharded", "scatter-gather serving: QPS vs shard count, hedged-request p99 with a slow replica", experiment(bench.Sharded)},
	{"build", "maintenance depth: GETs and dependent round trips of one Index and one FM Compact", experiment(bench.Maintenance)},
	{"planner", "probe-side fast path: FM superwalk occ-fetch dedup, cost-based AND short-circuit", experiment(bench.Planner)},
	{"ingest", "continuous ingestion: group-commit conditional-PUT amortization, requests per acked batch", experiment(bench.Ingest)},
	{"adaptive", "workload-adaptive maintenance: heat-driven scheduling vs index-everything vs scan-only on a Zipf mix", experiment(bench.Adaptive)},
}

func main() {
	quick := flag.Bool("quick", false, "smaller workloads (CI-sized)")
	seed := flag.Int64("seed", 1, "generator seed")
	jsonPath := flag.String("json", "", "write the experiment results as JSON to this file")
	tracePath := flag.String("trace", "", "write per-experiment search span trees as JSON to this file")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the experiment runs to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile (taken after the runs) to this file")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: rottnest-bench [-quick] [-seed N] [-json FILE] [-trace FILE] [-cpuprofile FILE] [-memprofile FILE] <experiment|all>")
		fmt.Fprintln(os.Stderr, "\nexperiments:")
		for _, e := range experiments {
			fmt.Fprintf(os.Stderr, "  %-12s %s\n", e.name, e.desc)
		}
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	target := flag.Arg(0)
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rottnest-bench: create %s: %v\n", *cpuProfile, err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "rottnest-bench: start CPU profile: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "rottnest-bench: create %s: %v\n", *memProfile, err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live-heap accounting before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "rottnest-bench: write heap profile: %v\n", err)
			}
		}()
	}
	opts := bench.Options{Seed: *seed, Quick: *quick, Out: os.Stdout}
	results := make(map[string]any)
	traces := make(map[string]map[string]*bench.TraceNode)
	ran := false
	for _, e := range experiments {
		if target != "all" && target != e.name {
			continue
		}
		ran = true
		if *tracePath != "" {
			opts.Trace = bench.NewTraceLog() // fresh log per experiment
		}
		fmt.Printf("=== %s: %s ===\n", e.name, e.desc)
		start := time.Now()
		res, err := e.run(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rottnest-bench %s: %v\n", e.name, err)
			os.Exit(1)
		}
		results[e.name] = res
		if nodes := opts.Trace.Nodes(); len(nodes) > 0 {
			traces[e.name] = nodes
		}
		fmt.Printf("=== %s done in %v ===\n\n", e.name, time.Since(start).Round(time.Millisecond))
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "rottnest-bench: unknown experiment %q\n\n", target)
		flag.Usage()
		os.Exit(2)
	}
	if *tracePath != "" {
		data, err := json.MarshalIndent(traces, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "rottnest-bench: marshal traces: %v\n", err)
			os.Exit(1)
		}
		data = append(data, '\n')
		if err := os.WriteFile(*tracePath, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "rottnest-bench: write %s: %v\n", *tracePath, err)
			os.Exit(1)
		}
		fmt.Printf("traces written to %s\n", *tracePath)
	}
	if *jsonPath != "" {
		var payload any = results
		if len(results) == 1 {
			for _, r := range results {
				payload = r // single experiment: write its result directly
			}
		}
		data, err := json.MarshalIndent(payload, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "rottnest-bench: marshal results: %v\n", err)
			os.Exit(1)
		}
		data = append(data, '\n')
		if err := os.WriteFile(*jsonPath, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "rottnest-bench: write %s: %v\n", *jsonPath, err)
			os.Exit(1)
		}
		fmt.Printf("results written to %s\n", *jsonPath)
	}
}
