package bench

import (
	"testing"

	"rottnest/internal/fmindex"
	"rottnest/internal/ivfpq"
	"rottnest/internal/postings"
	"rottnest/internal/trie"
	"rottnest/internal/workload"
)

// TestBuildBenchShapes runs the build experiment in quick mode and
// asserts its shape: every stage ran and reports a positive rate. How
// much faster SA-IS and the full FM pipeline are than the retained
// seed implementations on 1 MB of text is logged, not asserted — the
// ratio of two stopwatches is a property of the host (2.2x here, 1.96x
// beside another process), and BENCH_build.json records it.
func TestBuildBenchShapes(t *testing.T) {
	if raceEnabled {
		t.Skip("build speedup ratios are meaningless under the race detector")
	}
	if testing.Short() {
		t.Skip("short mode")
	}
	res, err := IndexBuild(Options{Seed: 11, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("SA-IS %.1fms, oracle %.1fms (%.2fx); FM build %.1fms, seed path %.1fms (%.2fx)",
		res.SuffixArray.SAISMs, res.SuffixArray.OracleMs, res.SuffixArray.Speedup,
		res.FM.BuildMs, res.FM.ReferenceMs, res.FM.Speedup)
	if res.SuffixArray.SAISMs <= 0 || res.SuffixArray.OracleMs <= 0 || res.FM.BuildMs <= 0 || res.FM.ReferenceMs <= 0 {
		t.Errorf("a build stage reports no time: %+v %+v", res.SuffixArray, res.FM)
	}
	if res.Trie.RowsPerSec <= 0 || res.IVFPQ.RowsPerSec <= 0 {
		t.Errorf("non-positive direct build rate: trie %.0f, ivfpq %.0f",
			res.Trie.RowsPerSec, res.IVFPQ.RowsPerSec)
	}
	if len(res.EndToEnd) != 3 {
		t.Fatalf("expected 3 end-to-end measurements, got %d", len(res.EndToEnd))
	}
	for _, e := range res.EndToEnd {
		if e.RowsPerSec <= 0 {
			t.Errorf("%s: non-positive end-to-end rate", e.Kind)
		}
	}
	// Maintenance is as deep as its data dependencies: plan (LIST — the
	// world's long-lived handles remember the logs, so no log fan), read
	// (footer, chunks — or tails, manifests, every source's blocks),
	// upload, commit. It was one level per GET: 15 and 56.
	for i, want := range []MaintenanceDepth{{Call: "index", Levels: 5}, {Call: "compact_fm_3", Levels: 6}} {
		if got := res.Maintenance[i]; got.Call != want.Call || got.Levels != want.Levels || got.Gets < got.Levels {
			t.Errorf("maintenance depth %d = %+v, want %s at %d levels", i, got, want.Call, want.Levels)
		}
	}
}

func BenchmarkIndexBuildFM(b *testing.B) {
	text, starts, refs := buildText(5, 1<<20)
	b.SetBytes(int64(len(text)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fmindex.Build(text, starts, refs, fmindex.BuildOptions{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(text))/1e6/b.Elapsed().Seconds()*float64(b.N), "MB/s")
}

func BenchmarkIndexBuildTrie(b *testing.B) {
	const n = 100_000
	keys := workload.NewUUIDGen(5).Batch(n)
	refs := make([]postings.PageRef, n)
	for i := range refs {
		refs[i] = postings.PageRef{File: uint32(i / 1024), Page: uint32(i % 1024)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trie.Build(keys, refs, trie.BuildOptions{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}

func BenchmarkIndexBuildIVFPQ(b *testing.B) {
	const n = 20_000
	vecs := workload.NewVectorGen(workload.VectorConfig{Seed: 5, Dim: 32, Clusters: 64, Spread: 0.2}).Batch(n)
	refs := make([]postings.RowRef, n)
	for i := range refs {
		refs[i] = postings.RowRef{File: uint32(i % 4), Row: int64(i)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ivfpq.Build(vecs, refs, ivfpq.BuildOptions{Seed: 5, NList: 64, KMeansIters: 8, TrainSample: 10_000}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}
