// Command benchgate guards the committed benchmark records: for each
// BENCH_*.json given, it compares the gated numeric fields against
// the version committed at HEAD and fails if any regressed by more
// than the threshold (default 20%). Files not tracked at HEAD are
// skipped, so the gate never blocks a brand-new experiment.
//
// Gated fields, by JSON key (case-insensitive):
//
//   - keys containing "qps" or "reduction" — higher is better; the
//     gate fails when the value drops more than the threshold below
//     the baseline. QPS pins virtual-time throughput; reduction pins
//     the adaptive scheduler's maintenance-request saving.
//   - keys containing "adaptive_hot_lag" — lower is better; the gate
//     fails when the adaptive regime's hot-partition searchable lag
//     grows more than the threshold above the baseline.
//   - keys starting "maint_", "ack_" or "router_plan_" — request and
//     round-trip counts of one maintenance call, of one acked ingest
//     batch, and of one hot routed query's plan, exact for a seed; they
//     may not grow at all, whatever the threshold, and a count of zero
//     must stay zero.
//
// Only virtual-time quantities are gated: they are deterministic for
// a fixed seed, unlike wall-clock rates, which would flake on shared
// CI hardware.
//
// Usage:
//
//	benchgate [-threshold 0.2] BENCH_multi.json BENCH_adaptive.json ...
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strings"
)

func main() {
	threshold := flag.Float64("threshold", 0.2, "maximum allowed fractional regression")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: benchgate [-threshold F] BENCH_*.json")
		os.Exit(2)
	}
	failed := false
	for _, path := range flag.Args() {
		cur, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
			failed = true
			continue
		}
		old, err := exec.Command("git", "show", "HEAD:"+path).Output()
		if err != nil {
			// Not tracked at HEAD: a new benchmark has no baseline.
			fmt.Printf("benchgate: %s: no committed baseline, skipping\n", path)
			continue
		}
		curF, err := gatedFields(cur)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: %s: %v\n", path, err)
			failed = true
			continue
		}
		oldF, err := gatedFields(old)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: %s (HEAD): %v\n", path, err)
			failed = true
			continue
		}
		keys := make([]string, 0, len(oldF))
		for k := range oldF {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		checked := 0
		for _, k := range keys {
			was := oldF[k]
			now, ok := curF[k]
			if !ok || was.value < 0 || (was.value == 0 && !was.exact) {
				continue
			}
			checked++
			allowed := *threshold
			if was.exact {
				allowed = 0
			}
			if was.higherBetter {
				if now.value < was.value*(1-allowed) {
					fmt.Fprintf(os.Stderr, "benchgate: %s: %s regressed %.1f -> %.1f (%.0f%% < -%.0f%% allowed)\n",
						path, k, was.value, now.value, (now.value/was.value-1)*100, allowed*100)
					failed = true
				}
			} else {
				if now.value > was.value*(1+allowed) {
					fmt.Fprintf(os.Stderr, "benchgate: %s: %s regressed %.3g -> %.3g (+%.0f%% allowed)\n",
						path, k, was.value, now.value, allowed*100)
					failed = true
				}
			}
		}
		fmt.Printf("benchgate: %s: %d gated fields checked\n", path, checked)
	}
	if failed {
		os.Exit(1)
	}
}

// gated is one gated numeric field, its direction, and whether it is
// an exact count that may not regress at all.
type gated struct {
	value        float64
	higherBetter bool
	exact        bool
}

// gatedFields flattens a JSON document to path -> gated value for
// every numeric field whose key matches a gated pattern. Paths look
// like "scaling[2].qps".
func gatedFields(data []byte) (map[string]gated, error) {
	var doc any
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, err
	}
	out := make(map[string]gated)
	var walk func(prefix string, v any)
	walk = func(prefix string, v any) {
		switch t := v.(type) {
		case map[string]any:
			for k, child := range t {
				p := k
				if prefix != "" {
					p = prefix + "." + k
				}
				if f, ok := child.(float64); ok {
					lk := strings.ToLower(k)
					switch {
					case strings.Contains(lk, "qps") || strings.Contains(lk, "reduction"):
						out[p] = gated{value: f, higherBetter: true}
					case strings.Contains(lk, "adaptive_hot_lag"):
						out[p] = gated{value: f, higherBetter: false}
					case strings.HasPrefix(lk, "maint_") || strings.HasPrefix(lk, "ack_") || strings.HasPrefix(lk, "router_plan_"):
						out[p] = gated{value: f, exact: true}
					}
					continue
				}
				walk(p, child)
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
