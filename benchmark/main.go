// Command benchmark is Rottnest's wall-clock benchmark: it builds a
// real-clock deployment over a directory store whose every request
// really sleeps the S3 latency model, runs one of four workloads,
// checks every answer against what the generator knows, and prints
// every metric by name with its unit. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

// workloadDef names one workload, why it exists, and how to run it.
// BENCHMARK.json carries the same names and reasons.
type workloadDef struct {
	Name string
	Why  string
	run  func(context.Context, runConfig) (*runResult, error)
}

var workloadDefs = []workloadDef{
	{"search_coldstart", "Stateless searcher: every op opens the table and a new client, so log replay, meta listing, index open and dependent round trips do the work; closed loop, 4 clients, keys uniform.", runSearchColdstart},
	{"search_hot", "One long-lived default client, 64 Zipf(1.2) queries per class that fit its caches, so the store is idle and plan, set algebra, decode and allocation do the work; closed loop, 1 client.", runSearchHot},
	{"build_compact", "Batch pipeline with sleeps on: 3 rounds of append + Index x3, then Compact x3 and Vacuum, checked by cold queries; FM/trie/IVF-PQ build and merge do the work, the search path almost none.", runBuildCompact},
	{"ingest_live", "Open loop: 2 batches/s of 256 rows via ingest.Writer beside the index scheduler, 24 queries/s at random times, 2 MiB/1 MiB caches: writes beside reads, builds beside queries, eviction, invalidation.", runIngestLive},
}

func findWorkload(name string) *workloadDef {
	for i := range workloadDefs {
		if workloadDefs[i].Name == name {
			return &workloadDefs[i]
		}
	}
	return nil
}

func workloadNames() []string {
	names := make([]string, len(workloadDefs))
	for i, w := range workloadDefs {
		names[i] = w.Name
	}
	return names
}

// runSeconds is the measured window BENCHMARK.json asks for.
const runSeconds = 20

// printSpec writes BENCHMARK.json from the lists the program reports
// from, so the two cannot drift.
func printSpec(w io.Writer) error {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type endToEnd struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type perLayer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	spec := struct {
		Command    []string   `json:"command"`
		Paths      []string   `json:"paths"`
		RunSeconds int        `json:"run_seconds"`
		Workloads  []workload `json:"workloads"`
		EndToEnd   []endToEnd `json:"end_to_end"`
		PerLayer   []perLayer `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, d := range workloadDefs {
		spec.Workloads = append(spec.Workloads, workload{d.Name, d.Why})
	}
	for _, d := range endToEndMetrics {
		spec.EndToEnd = append(spec.EndToEnd, endToEnd{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayerMetrics {
		spec.PerLayer = append(spec.PerLayer, perLayer{d.Name, d.Unit, d.Better})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(spec)
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the one JSON object a run prints as its last line.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// buildReport selects the metric set of the run's mode: end-to-end
// metrics from an untraced run, per-layer metrics from a traced one.
// A metric the workload did not produce is an error, so a missing
// measurement cannot pass as zero.
func buildReport(res *runResult, trace bool) (*report, error) {
	rep := &report{
		Correct:   res.failed == 0 && len(res.invalid) == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   make(map[string]metricValue),
	}
	defs, values := endToEndMetrics, res.e2e
	if trace {
		defs, values = perLayerMetrics, res.layer
	}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		rep.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return rep, nil
}

func run(cfg runConfig) (*runResult, error) {
	def := findWorkload(cfg.workload)
	if def == nil {
		return nil, fmt.Errorf("unknown workload %q (have %v)", cfg.workload, workloadNames())
	}
	if err := os.RemoveAll(cfg.tmpRoot()); err != nil {
		return nil, err
	}
	defer os.RemoveAll(cfg.tmpRoot())
	return def.run(context.Background(), cfg)
}

func main() {
	var (
		cfg       = runConfig{sz: fullSizes()}
		trace     int
		selfcheck bool
		spec      bool
	)
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: search_coldstart, search_hot, build_compact, ingest_live")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&cfg.seconds, "seconds", runSeconds, "length of the measured window")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics, 0 = untraced run reporting end-to-end metrics")
	flag.StringVar(&cfg.outDir, "out", "out", "directory for traces and temporary stores")
	flag.BoolVar(&selfcheck, "selfcheck", false, "run every workload twice on seed 1 and once on seed 2 and compare")
	flag.BoolVar(&spec, "spec", false, "print BENCHMARK.json and exit")
	flag.Parse()
	cfg.trace = trace != 0

	if spec {
		if err := printSpec(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		return
	}

	if selfcheck {
		if !runSelfcheck(cfg) {
			os.Exit(1)
		}
		return
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	for _, why := range res.failures {
		fmt.Fprintln(os.Stderr, "failed op:", why)
	}
	for _, why := range res.invalid {
		fmt.Fprintln(os.Stderr, "invalid run:", why)
	}
	rep, err := buildReport(res, cfg.trace)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	printMetrics(os.Stdout, rep)
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
