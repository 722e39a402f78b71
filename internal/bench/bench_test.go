package bench

import (
	"math"
	"testing"
)

// The tests here assert the SHAPES the paper reports — who wins, by
// roughly what factor, where knees and crossovers fall — not absolute
// numbers (the substrate is a simulator).

// skipUnderRace skips an experiment shape test when the race detector
// is compiled in: latencies here mix virtual store time with real
// wall-clock CPU time, and race instrumentation inflates the latter
// 5-20x, breaking the thresholds (and the package timeout). The
// concurrency these experiments drive is race-covered by the focused
// tests in objectstore, core, and harness; `make check` reruns this
// package without -race so the shapes still gate.
func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("wall-clock-coupled shape thresholds are invalid under -race")
	}
}

func TestFig10Shapes(t *testing.T) {
	skipUnderRace(t)
	res, err := Fig10ReadGranularity(Options{Seed: 1, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	for conc, series := range res.Granularity {
		// Flat region: 4KB and 1MB cost the same.
		if series[4<<10] != series[1<<20] {
			t.Fatalf("conc %d: latency not flat below 1MB: %v vs %v", conc, series[4<<10], series[1<<20])
		}
		// Linear region: 64MB costs several times 4MB.
		ratio := float64(series[64<<20]) / float64(series[4<<20])
		if ratio < 3 {
			t.Fatalf("conc %d: 64MB/4MB latency ratio %.2f, want throughput-bound growth", conc, ratio)
		}
	}
	// Page read+decode within 2x of the raw byte range (paper:
	// "little difference").
	if float64(res.PageReadLatency) > 2*float64(res.RawRangeLatency) {
		t.Fatalf("page read %v vs raw range %v", res.PageReadLatency, res.RawRangeLatency)
	}
}

func TestFig8Shapes(t *testing.T) {
	skipUnderRace(t)
	res, err := Fig8Scaling(Options{Seed: 2, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	last := len(res.Workers) - 1
	for _, app := range []string{"substring", "uuid", "vector"} {
		lat := res.BruteLatency[app]
		// Latency falls from 1 worker to 32.
		if lat[0] <= lat[last-1] {
			t.Fatalf("%s: brute latency did not fall: %v", app, lat)
		}
		// Knee: the last doubling gains < 1.7x.
		if g := float64(lat[last-1]) / float64(lat[last]); g > 1.7 {
			t.Fatalf("%s: no knee at 64 workers (gain %.2f)", app, g)
		}
		// Cost per query rises past the knee.
		cost := res.BruteCost[app]
		if cost[last] <= cost[last-1] {
			t.Fatalf("%s: cost did not rise past the knee: %v", app, cost)
		}
		// Rottnest: latency ~flat with searchers (within 30%), cost
		// grows superlinearly relative to latency gain.
		rlat := res.RottnestLatency[app]
		if f := float64(rlat[0]) / float64(rlat[len(rlat)-1]); f > 1.5 {
			t.Fatalf("%s: rottnest latency improved %0.2fx with searchers; should be ~flat", app, f)
		}
		rcost := res.RottnestCost[app]
		if rcost[len(rcost)-1] < 3*rcost[0] {
			t.Fatalf("%s: rottnest cost not ~linear in searchers: %v", app, rcost)
		}
	}
}

func TestMinimumLatencyShape(t *testing.T) {
	skipUnderRace(t)
	res, err := MinimumLatency(Options{Seed: 3, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	for app, speedup := range res.Speedup {
		// Paper: Rottnest@1 beats brute@64 "by a large margin"
		// (4.3-5.4x at paper scale).
		if speedup < 2 {
			t.Fatalf("%s: speedup %.2f, want single-searcher Rottnest well ahead of 64-worker brute force", app, speedup)
		}
	}
}

func TestFig7Shapes(t *testing.T) {
	skipUnderRace(t)
	res, err := Fig7PhaseDiagrams(Options{Seed: 4, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	// Windows span >= 3 orders of magnitude at 10 months (paper: >4).
	if math.Log10(res.SubstringHi/res.SubstringLo) < 3 {
		t.Fatalf("substring window %.1e..%.1e too narrow", res.SubstringLo, res.SubstringHi)
	}
	if math.Log10(res.UUIDHi/res.UUIDLo) < 3 {
		t.Fatalf("uuid window %.1e..%.1e too narrow", res.UUIDLo, res.UUIDHi)
	}
	// The trie index is far smaller relative to raw than the FM
	// index (what flattens the uuid boundary).
	subRatio := float64(res.Substring.IndexBytes) / float64(res.Substring.RawBytes)
	uuidRatio := float64(res.UUID.IndexBytes) / float64(res.UUID.RawBytes)
	if uuidRatio >= subRatio {
		t.Fatalf("index/raw ratios: uuid %.2f vs substring %.2f", uuidRatio, subRatio)
	}
	// Break-even arrives within weeks at 100 queries/day (paper:
	// days).
	if res.SubstringBreakEvenDays > 60 || res.UUIDBreakEvenDays > 30 {
		t.Fatalf("break-evens: substring %.1f days, uuid %.1f days", res.SubstringBreakEvenDays, res.UUIDBreakEvenDays)
	}
}

func TestFig9Shapes(t *testing.T) {
	skipUnderRace(t)
	res, err := Fig9VectorPhases(Options{Seed: 5, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 3 {
		t.Fatalf("points = %d", len(res.Points))
	}
	for _, p := range res.Points {
		if p.Reached < p.Target-0.03 {
			t.Fatalf("target %.2f only reached %.3f", p.Target, p.Reached)
		}
		if math.Log10(p.WindowHi/p.WindowLo) < 3 {
			t.Fatalf("target %.2f: window too narrow", p.Target)
		}
	}
	// Higher targets need more work (nprobe strictly nondecreasing
	// and strictly more at 0.97 than 0.87).
	if res.Points[2].NProbe <= res.Points[0].NProbe {
		t.Fatalf("nprobe did not rise with recall target: %d vs %d", res.Points[0].NProbe, res.Points[2].NProbe)
	}
	// The winning region barely moves across targets (paper's key
	// conclusion).
	if res.WindowShift > 0.5 {
		t.Fatalf("window shifted %.2f orders of magnitude across recall targets", res.WindowShift)
	}
}

func TestFig11Shapes(t *testing.T) {
	skipUnderRace(t)
	res, err := Fig11InSitu(Options{Seed: 6, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	// Storing a data copy raises the brute-force boundary (Rottnest
	// loses low-query-volume territory).
	if res.CopyLo <= res.BaselineLo {
		t.Fatalf("data copy did not raise the brute-force boundary: %.1e vs %.1e", res.CopyLo, res.BaselineLo)
	}
	// The unoptimized reader lowers the copy-data boundary (Rottnest
	// loses high-query-volume territory).
	if res.UnoptHi >= res.BaselineHi {
		t.Fatalf("unoptimized reader did not lower the copy-data boundary: %.1e vs %.1e", res.UnoptHi, res.BaselineHi)
	}
}

func TestFig12Shapes(t *testing.T) {
	skipUnderRace(t)
	res, err := Fig12Sensitivity(Options{Seed: 7, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	n := len(res.Factors)
	// Observation 1: scaling cpq_r down expands the top boundary;
	// the bottom boundary barely moves.
	if res.CPQWindows[0][1] <= res.CPQWindows[n-1][1] {
		t.Fatal("cheaper queries did not expand the copy-data boundary")
	}
	if r := res.CPQWindows[0][0] / res.CPQWindows[n-1][0]; r < 0.5 || r > 2 {
		t.Fatalf("cpq_r scaling moved the brute-force boundary %.2fx", r)
	}
	// Scaling cpm_r down expands the bottom boundary.
	if res.CPMWindows[0][0] >= res.CPMWindows[n-1][0] {
		t.Fatal("smaller index did not lower the brute-force boundary")
	}
	// Observation 2: break-even time scales with ic_r.
	for i := 1; i < n; i++ {
		if math.IsNaN(res.ICBreakEvens[i]) || math.IsNaN(res.ICBreakEvens[i-1]) {
			continue
		}
		if res.ICBreakEvens[i] <= res.ICBreakEvens[i-1] {
			t.Fatalf("break-even not increasing in ic_r: %v", res.ICBreakEvens)
		}
	}
}

func TestFig13Shapes(t *testing.T) {
	skipUnderRace(t)
	res, err := Fig13Compaction(Options{Seed: 8, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, series := range [][]Fig13Point{res.Substring, res.UUID} {
		first, last := series[0], series[len(series)-1]
		// Uncompacted latency grows with dataset size.
		if last.Uncompacted <= first.Uncompacted {
			t.Fatalf("uncompacted latency did not grow: %v -> %v", first.Uncompacted, last.Uncompacted)
		}
		// Compacted latency grows far less than uncompacted.
		uncompGrowth := float64(last.Uncompacted) / float64(first.Uncompacted)
		compGrowth := float64(last.Compacted) / float64(first.Compacted)
		if compGrowth >= uncompGrowth {
			t.Fatalf("compaction did not flatten latency growth: %.2fx vs %.2fx", compGrowth, uncompGrowth)
		}
	}
	// At the largest size, compaction wins outright for UUID search.
	last := res.UUID[len(res.UUID)-1]
	if last.Compacted >= last.Uncompacted {
		t.Fatalf("uuid: compacted %v not faster than uncompacted %v at %d files",
			last.Compacted, last.Uncompacted, last.IndexFilesBefore)
	}
}

func TestCustomFormatShapes(t *testing.T) {
	skipUnderRace(t)
	res, err := CustomFormatComparison(Options{Seed: 9, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Targets {
		ratio := float64(res.Rottnest[i]) / float64(res.Custom[i])
		// Paper: comparable latency (2.09 vs 1.90 etc). Allow 2x.
		if ratio > 2 {
			t.Fatalf("recall %.2f: rottnest %v vs custom %v (%.2fx)", res.Targets[i], res.Rottnest[i], res.Custom[i], ratio)
		}
		if ratio < 0.8 {
			t.Fatalf("recall %.2f: custom format should not be slower than in-situ", res.Targets[i])
		}
	}
}

func TestThroughputShapes(t *testing.T) {
	skipUnderRace(t)
	res, err := Throughput(Options{Seed: 10, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range []string{"uuid", "substring", "vector"} {
		if res.RequestsPerQuery[app] < 2 {
			t.Fatalf("%s: %d requests per query is implausibly low", app, res.RequestsPerQuery[app])
		}
		// The cap must be finite and far below the dedicated-system
		// regime but comfortably above interactive rates.
		if res.MaxQPS[app] < 10 || res.MaxQPS[app] > 5500 {
			t.Fatalf("%s: max QPS %.0f out of the plausible band", app, res.MaxQPS[app])
		}
	}
}

func TestAblationShapes(t *testing.T) {
	skipUnderRace(t)
	res, err := Ablations(Options{Seed: 11, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	// Componentization beats downloading a multi-MB index per query.
	if res.ComponentizedLookup >= res.WholeFileLookup {
		t.Fatalf("componentized %v not faster than whole-file %v", res.ComponentizedLookup, res.WholeFileLookup)
	}
	// FM: larger blocks mean fewer dependent requests at this scale.
	if res.FMBlockLatency[16<<10] <= res.FMBlockLatency[1<<20] {
		t.Fatalf("fm block sweep inverted: %v vs %v", res.FMBlockLatency[16<<10], res.FMBlockLatency[1<<20])
	}
	// Trie: latency flat through the flat region, worse at 8MB leaves.
	if res.TrieComponentLatency[8<<20] <= res.TrieComponentLatency[128<<10] {
		t.Fatalf("oversized trie components should pay transfer time: %v vs %v",
			res.TrieComponentLatency[8<<20], res.TrieComponentLatency[128<<10])
	}
	// PQ: recall and size both rise with M.
	if !(res.PQRecall[4] < res.PQRecall[16]) || !(res.PQBytes[4] < res.PQBytes[16]) {
		t.Fatalf("PQ sweep not monotone: recall %v bytes %v", res.PQRecall, res.PQBytes)
	}
	// Pages: probes flat to 1MB targets, costlier at 16MB.
	if res.PageProbeLatency[300<<10] != res.PageProbeLatency[64<<10] {
		t.Fatalf("small-page probes should be identical: %v vs %v",
			res.PageProbeLatency[300<<10], res.PageProbeLatency[64<<10])
	}
	if res.PageProbeLatency[16<<20] <= res.PageProbeLatency[300<<10] {
		t.Fatal("oversized pages should pay transfer time")
	}
}

func TestDistributionSensitivityShapes(t *testing.T) {
	skipUnderRace(t)
	res, err := DistributionSensitivity(Options{Seed: 12, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) < 3 {
		t.Fatalf("points = %d", len(res.Points))
	}
	// Lower entropy (higher skew) compresses the raw data better than
	// the index, raising the index/raw ratio...
	for i := 1; i < len(res.Points); i++ {
		if res.Points[i].IndexRatio <= res.Points[i-1].IndexRatio {
			t.Fatalf("index ratio not increasing with skew: %+v", res.Points)
		}
	}
	// ...which pushes the brute-force boundary up (Fig 12's cpm_r
	// effect driven by data, not a knob).
	first, last := res.Points[0], res.Points[len(res.Points)-1]
	if first.WindowLo == 0 || last.WindowLo == 0 {
		t.Fatalf("boundary missing: %+v", res.Points)
	}
	if last.WindowLo <= first.WindowLo {
		t.Fatalf("boundary did not track the ratio: %.3g -> %.3g", first.WindowLo, last.WindowLo)
	}
}

func TestChaosShapes(t *testing.T) {
	skipUnderRace(t)
	res, err := Chaos(Options{Seed: 5, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults.Total() == 0 {
		t.Fatal("storm injected no faults")
	}
	if res.Retries == 0 {
		t.Fatal("retry layer did no work under the storm")
	}
	// Recovery is not free: backoff waits and latency spikes charge
	// virtual time, so the storm pass cannot beat the clean pass.
	if res.StormLatency < res.CleanLatency {
		t.Fatalf("storm latency %v below clean %v", res.StormLatency, res.CleanLatency)
	}
}
