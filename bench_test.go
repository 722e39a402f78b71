package rottnest_test

import (
	"testing"

	"rottnest/internal/bench"
)

// Each benchmark regenerates one of the paper's evaluation figures at
// CI scale (bench.Options.Quick). One iteration = one full experiment
// — the interesting output is the experiment's own series (run
// cmd/rottnest-bench to see it printed); the benchmark timings track
// the harness cost itself.

func benchOpts(i int) bench.Options {
	return bench.Options{Seed: int64(1 + i), Quick: true}
}

// BenchmarkFig7PhaseDiagrams regenerates Figure 7: TCO phase diagrams
// for substring and UUID search.
func BenchmarkFig7PhaseDiagrams(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Fig7PhaseDiagrams(benchOpts(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8Scaling regenerates Figure 8: brute-force and Rottnest
// scaling with cluster size.
func BenchmarkFig8Scaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Fig8Scaling(benchOpts(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9VectorPhases regenerates Figure 9: vector phase
// diagrams at recall targets 0.87/0.92/0.97.
func BenchmarkFig9VectorPhases(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Fig9VectorPhases(benchOpts(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig10ReadGranularity regenerates Figure 10: object-store
// read-granularity latency and page-read overhead.
func BenchmarkFig10ReadGranularity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Fig10ReadGranularity(benchOpts(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig11InSitu regenerates Figure 11: the in-situ querying
// ablation (data copy / unoptimized reader).
func BenchmarkFig11InSitu(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Fig11InSitu(benchOpts(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig12Sensitivity regenerates Figure 12: TCO parameter
// sensitivity for vector search at recall 0.92.
func BenchmarkFig12Sensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Fig12Sensitivity(benchOpts(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig13Compaction regenerates Figure 13: search latency on
// uncompacted vs compacted index files.
func BenchmarkFig13Compaction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Fig13Compaction(benchOpts(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMinimumLatency regenerates the Section VII-A minimum
// latency threshold comparison (table T1).
func BenchmarkMinimumLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.MinimumLatency(benchOpts(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCustomFormatComparison regenerates the Section VII-C
// Rottnest-vs-custom-format comparison (table T2).
func BenchmarkCustomFormatComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.CustomFormatComparison(benchOpts(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkThroughput regenerates the Section VII-D3 QPS-cap analysis.
func BenchmarkThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Throughput(benchOpts(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblations regenerates the design-choice ablation sweeps.
func BenchmarkAblations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Ablations(benchOpts(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDistributionSensitivity regenerates the VII-D2 entropy
// sweep extension experiment.
func BenchmarkDistributionSensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.DistributionSensitivity(benchOpts(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeColdVsWarm runs the serving experiment: concurrent
// clients replaying a Zipf query mix with caches off, the byte cache
// only, and every cache primed.
func BenchmarkServeColdVsWarm(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Serve(benchOpts(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSearchUnderFaults measures the retry layer's latency
// overhead when a seeded fault storm hits the search path.
func BenchmarkSearchUnderFaults(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Chaos(benchOpts(i)); err != nil {
			b.Fatal(err)
		}
	}
}
