package ivfpq

import (
	"context"
	"fmt"
	"testing"

	"rottnest/internal/objectstore"
	"rottnest/internal/workload"
)

// benchVectors generates the wall-clock benchmark's vector shape
// (benchmark/world.go: dim 32, 64 clusters, spread 0.18).
func benchVectors(n int) [][]float32 {
	return workload.NewVectorGen(workload.VectorConfig{Seed: 11, Dim: 32, Clusters: 64, Spread: 0.18}).Batch(n)
}

// BenchmarkIVFPQBuild builds with default options at the wall-clock
// benchmark's sizes: a 500-row search-workload step, a 6,000-row
// build_compact round, and the 18,000 vectors its merge rebuilds.
// It uses only exported API, so the file runs unchanged in an older
// checkout for the before side of a pair.
func BenchmarkIVFPQBuild(b *testing.B) {
	for _, n := range []int{500, 6000, 18000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			vecs := benchVectors(n)
			refs := seqRefs(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Build(vecs, refs, BuildOptions{Seed: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkIVFPQMerge merges three 6,000-vector sources, the IVF-PQ
// Compact of build_compact.
func BenchmarkIVFPQMerge(b *testing.B) {
	ctx := context.Background()
	store := objectstore.NewMemStore(nil)
	vecs := benchVectors(18000)
	var sources []*Index
	var maps []map[uint32]uint32
	for i := 0; i < 3; i++ {
		part := vecs[i*6000 : (i+1)*6000]
		sources = append(sources, buildAndOpen(b, store, fmt.Sprintf("%d.index", i), part, seqRefs(len(part)), BuildOptions{Seed: 1}))
		maps = append(maps, map[uint32]uint32{0: uint32(i)})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Merge(ctx, sources, maps, BuildOptions{Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
