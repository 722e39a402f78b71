package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// runOnce runs one workload in a process of its own, as the driver
// does, so peak memory and caches start clean, and parses its report.
func runOnce(cfg runConfig, workload string, seed int64) (*report, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self,
		"-workload", workload,
		"-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
		"-trace", "0", "-out", cfg.outDir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var rep report
	if err := json.Unmarshal(lines[len(lines)-1], &rep); err != nil {
		return nil, fmt.Errorf("%s seed %d: last line is not a report: %w", workload, seed, err)
	}
	return &rep, nil
}

// runSelfcheck runs every workload twice on seed 1 and once on seed 2
// and prints each end-to-end metric side by side with its bound. It
// reports false if a run was incorrect or two runs of the same seed
// disagree by more than the bound.
func runSelfcheck(cfg runConfig) bool {
	ok := true
	for _, wl := range workloadNames() {
		var reps [3]*report
		for i, seed := range []int64{1, 1, 2} {
			rep, err := runOnce(cfg, wl, seed)
			if err != nil {
				fmt.Fprintln(os.Stderr, "selfcheck:", err)
				return false
			}
			if !rep.Correct {
				fmt.Printf("%s seed %d: incorrect (%d of %d failed)\n", wl, seed, rep.Failed, rep.Attempted)
				ok = false
			}
			reps[i] = rep
		}
		fmt.Printf("\n%s\n%-28s %14s %14s %14s %8s %8s\n", wl, "metric", "seed 1", "seed 1 again", "seed 2", "differ", "bound")
		for _, d := range endToEndMetrics {
			a, b, c := reps[0].Metrics[d.Name].Value, reps[1].Metrics[d.Name].Value, reps[2].Metrics[d.Name].Value
			differ := math.Abs(a-b) / math.Min(a, b)
			verdict := ""
			if differ > d.Bound {
				verdict = "  DISAGREE"
				ok = false
			}
			fmt.Printf("%-28s %14.4f %14.4f %14.4f %7.2f%% %7.0f%%%s\n", d.Name, a, b, c, differ*100, d.Bound*100, verdict)
		}
	}
	return ok
}
