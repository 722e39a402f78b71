package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// smokeSizes shrinks every workload to a toy: a GET sleeps 1 ms, worlds
// are one or two files of a few hundred rows.
func smokeSizes() sizes {
	return sizes{
		sleepScale:  1.0 / 30,
		searchFiles: 2, searchRows: 500,
		coldClients: 2, coldWarmup: 2,
		hotClients: 2, hotUniverse: 8, hotWarmup: 20, zipfS: 1.2,
		buildRounds: 2, buildFilesPerRound: 1, buildRows: 500, verifyPerClass: 1,
		batchRows: 256, batchesPerSec: 4, queriesPerSec: 20,
		drainMax: 10 * time.Second, pollEvery: 50 * time.Millisecond,
		cacheBytes: 256 << 10, decodedCacheBytes: 64 << 10,
		finalKeys: 16,
	}
}

// TestSmokeAllWorkloads runs every workload traced at toy scale, which
// takes every path of the benchmark: set-up, the measured loop, the
// oracle, the validity conditions, the layer drive and the trace. It
// checks that both metric sets are complete and the trace is sound.
func TestSmokeAllWorkloads(t *testing.T) {
	seconds := map[string]float64{"search_coldstart": 1, "search_hot": 1, "build_compact": 20, "ingest_live": 2}
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			cfg := runConfig{workload: name, seed: 1, seconds: seconds[name], trace: true, outDir: t.TempDir(), sz: smokeSizes()}
			res, err := run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.attempted == 0 || res.failed != 0 || len(res.invalid) != 0 {
				t.Fatalf("attempted %d failed %d failures %v invalid %v", res.attempted, res.failed, res.failures, res.invalid)
			}
			for _, traced := range []bool{false, true} {
				rep, err := buildReport(res, traced)
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Correct {
					t.Errorf("report is not correct: %+v", rep)
				}
			}
			for _, d := range endToEndMetrics {
				if v := res.e2e[d.Name]; !(v > 0) {
					t.Errorf("end-to-end metric %s = %v, want a positive number", d.Name, v)
				}
			}
			if _, err := os.Stat(cfg.tmpRoot()); !os.IsNotExist(err) {
				t.Errorf("temporary stores left behind: %v", err)
			}
			checkTrace(t, filepath.Join(cfg.outDir, name+".trace.jsonl"))
		})
	}
}

// checkTrace parses the trace: every span has a known parent or is a
// root, and shares its parent's operation id.
func checkTrace(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	byID := make(map[int64]span)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("trace line %q: %v", sc.Text(), err)
		}
		if _, dup := byID[s.ID]; dup || s.ID == 0 {
			t.Fatalf("span id %d is zero or used twice", s.ID)
		}
		byID[s.ID] = s
	}
	if len(byID) == 0 {
		t.Fatal("empty trace")
	}
	roots := 0
	for _, s := range byID {
		if s.End < s.Start {
			t.Errorf("span %d ends before it starts", s.ID)
		}
		if s.Parent == 0 {
			roots++
			continue
		}
		parent, ok := byID[s.Parent]
		if !ok {
			t.Errorf("span %d (%s) has unknown parent %d", s.ID, s.Name, s.Parent)
			continue
		}
		if parent.Op != s.Op {
			t.Errorf("span %d (%s) has op %d but its parent has op %d", s.ID, s.Name, s.Op, parent.Op)
		}
	}
	if roots == 0 {
		t.Error("trace has no root span")
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json in step with the
// metric and workload lists the program reports.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark directory:", err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadDefs) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloadDefs))
	}
	for i, d := range workloadDefs {
		if len(d.Why) > 200 {
			t.Errorf("workload %s: its reason has %d characters, the driver takes 200", d.Name, len(d.Why))
		}
		if w := spec.Workloads[i]; w.Name != d.Name || w.Why != d.Why {
			t.Errorf("workload %d: BENCHMARK.json %+v, program %q: %q", i, w, d.Name, d.Why)
		}
	}
	if len(spec.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(spec.EndToEnd), len(endToEndMetrics))
	}
	for i, d := range endToEndMetrics {
		if m := spec.EndToEnd[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, program %+v", i, m, d)
		}
	}
	if len(spec.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(spec.PerLayer), len(perLayerMetrics))
	}
	for i, d := range perLayerMetrics {
		if m := spec.PerLayer[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, program %+v", i, m, d)
		}
	}
}
