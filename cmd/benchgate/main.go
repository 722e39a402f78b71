// Command benchgate guards the committed benchmark records: for each
// BENCH_*.json given, it compares the fields the manifest below names
// against the version committed at HEAD and fails if any regressed.
// Files not tracked at HEAD are skipped, so the gate never blocks a
// brand-new experiment; a listed field missing from either side of a
// tracked file fails it, so a renamed or deleted field cannot silently
// stop being gated.
//
// The manifest lists only fields that two regenerations at one commit
// agree on, under one of two rules:
//
//   - exact: a request or round-trip count, exact for a seed. It may
//     not grow at all, and a zero stays zero.
//   - 20 %, with a direction: a deterministic virtual-time figure
//     quantity that has no wall-clock counterpart in benchmark/.
//
// The baseline side of a comparison (separate_*, singleton_*,
// unordered_*, baseline_*, index_all_*) and ratios are never listed:
// a baseline getting cheaper is not a regression. Latencies and rates
// that benchmark/ measures on the wall clock are not in the records.
//
// Usage:
//
//	benchgate BENCH_multi.json BENCH_adaptive.json ...
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// rule is how far a field may move against its baseline.
type rule struct {
	bound        float64 // allowed fractional regression
	higherBetter bool
}

var (
	exact    = rule{}
	lower20  = rule{bound: 0.2}
	higher20 = rule{bound: 0.2, higherBetter: true}
)

// manifest is every gated field: record file, JSON path ("[*]" matches
// every array index), rule.
var manifest = []struct {
	file, path string
	rule       rule
}{
	{"BENCH_build.json", "maintenance[*].maint_gets", exact},
	{"BENCH_build.json", "maintenance[*].maint_levels", exact},
	{"BENCH_ingest.json", "grouped_commit_rounds", exact},
	{"BENCH_ingest.json", "ack_lists", exact},
	{"BENCH_ingest.json", "ack_gets", exact},
	{"BENCH_ingest.json", "ack_puts", exact},
	{"BENCH_multi.json", "intersect.compound_gets", exact},
	{"BENCH_multi.json", "intersect.compound_pages", exact},
	{"BENCH_multi.json", "batch.coalesced_probe_runs", exact},
	{"BENCH_planner.json", "superwalk.batched_occ_fetches", exact},
	{"BENCH_planner.json", "superwalk.batched_gets", exact},
	{"BENCH_planner.json", "ordering.ordered_gets", exact},
	{"BENCH_serve.json", "workloads[*].cold_gets_per_query", exact},
	{"BENCH_serve.json", "workloads[*].warm_gets_per_query", exact},
	{"BENCH_serve.json", "workloads[*].byte_gets_per_query", exact},
	{"BENCH_serve.json", "workloads[*].decoded_misses", exact},
	{"BENCH_sharded.json", "router_plan_lists", exact},
	{"BENCH_sharded.json", "router_plan_gets", exact},
	{"BENCH_sharded.json", "scaling[*].qps", higher20},
	{"BENCH_adaptive.json", "adaptive_maint_requests", exact},
	{"BENCH_adaptive.json", "adaptive_cold_index_entries", exact},
	{"BENCH_adaptive.json", "adaptive_hot_lag_p50_ns", lower20},
	{"BENCH_adaptive.json", "adaptive_hot_lag_p99_ns", lower20},
}

// baseline reads the committed version of a record: the one place
// benchgate touches the repository.
func baseline(path string) ([]byte, error) {
	return exec.Command("git", "show", "HEAD:"+path).Output()
}

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: benchgate BENCH_*.json")
		os.Exit(2)
	}
	failed := false
	for _, path := range os.Args[1:] {
		cur, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
			failed = true
			continue
		}
		old, err := baseline(path)
		if err != nil {
			fmt.Printf("benchgate: %s: no committed baseline, skipping\n", path)
			continue
		}
		checked, failures := gate(filepath.Base(path), old, cur)
		for _, f := range failures {
			fmt.Fprintf(os.Stderr, "benchgate: %s: %s\n", path, f)
		}
		failed = failed || len(failures) > 0
		fmt.Printf("benchgate: %s: %d gated fields checked\n", path, checked)
	}
	if failed {
		os.Exit(1)
	}
}

// gate compares one record's manifest fields, baseline old against
// current cur, and returns how many fields it checked and a line per
// regression, missing field or unreadable document.
func gate(file string, old, cur []byte) (checked int, failures []string) {
	oldF, err := numbers(old)
	if err != nil {
		return 0, []string{"baseline: " + err.Error()}
	}
	curF, err := numbers(cur)
	if err != nil {
		return 0, []string{err.Error()}
	}
	for _, e := range manifest {
		if e.file != file {
			continue
		}
		pattern := regexp.MustCompile("^" + strings.ReplaceAll(regexp.QuoteMeta(e.path), `\[\*\]`, `\[\d+\]`) + "$")
		keys := matching(oldF, pattern)
		if len(keys) == 0 {
			failures = append(failures, e.path+" missing from the baseline")
		}
		for _, k := range keys {
			was := oldF[k]
			now, ok := curF[k]
			if !ok {
				failures = append(failures, k+" missing")
				continue
			}
			checked++
			worse := now > was*(1+e.rule.bound)
			if e.rule.higherBetter {
				worse = now < was*(1-e.rule.bound)
			}
			if worse {
				failures = append(failures, fmt.Sprintf("%s regressed %.4g -> %.4g (%.0f%% allowed)", k, was, now, e.rule.bound*100))
			}
		}
	}
	return checked, failures
}

// matching returns the keys of fields that match pattern, sorted.
func matching(fields map[string]float64, pattern *regexp.Regexp) []string {
	var keys []string
	for k := range fields {
		if pattern.MatchString(k) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// numbers flattens a JSON document to path -> value for every numeric
// field. Paths look like "scaling[2].qps".
func numbers(data []byte) (map[string]float64, error) {
	var doc any
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	var walk func(prefix string, v any)
	walk = func(prefix string, v any) {
		switch t := v.(type) {
		case float64:
			out[prefix] = t
		case map[string]any:
			for k, child := range t {
				if prefix != "" {
					k = prefix + "." + k
				}
				walk(k, child)
			}
		case []any:
			for i, child := range t {
				walk(fmt.Sprintf("%s[%d]", prefix, i), child)
			}
		}
	}
	walk("", doc)
	return out, nil
}
