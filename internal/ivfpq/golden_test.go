package ivfpq

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"testing"

	"rottnest/internal/objectstore"
	"rottnest/internal/postings"
	"rottnest/internal/workload"
)

// ivfpqGoldenHash is the SHA-256 of the index file built by the
// original serial implementation (pre-vectorized seed code) for
// goldenIVFPQInput. The unrolled l2sq keeps a single accumulator, so
// every distance that is measured has the seed's bits; the pruned
// nearest-centroid search skips only centroids that are provably not
// the (distance, index) minimum, so every assignment is the seed's;
// and the coordinate sums are accumulated serially in point order. So
// k-means converges to the bit-identical centroids and the file must
// not change.
const ivfpqGoldenHash = "3105c0b77f72e25bf164274d7ee3b3e80b8fe32f0fa88928d584f7cf585549e4"

func goldenIVFPQInput() ([][]float32, []postings.RowRef) {
	vecs := workload.NewVectorGen(workload.VectorConfig{Seed: 42, Dim: 16, Clusters: 32, Spread: 0.2}).Batch(2000)
	refs := make([]postings.RowRef, len(vecs))
	for i := range refs {
		refs[i] = postings.RowRef{File: uint32(i % 3), Row: int64(i)}
	}
	return vecs, refs
}

func TestBuildGoldenBytes(t *testing.T) {
	vecs, refs := goldenIVFPQInput()
	opts := BuildOptions{Seed: 7, NList: 32, KMeansIters: 6, TrainSample: 1500}
	data, err := Build(vecs, refs, opts)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.Sum256(data)
	if got := hex.EncodeToString(h[:]); got != ivfpqGoldenHash {
		t.Fatalf("IVF-PQ index bytes diverged from the seed build:\n got %s\nwant %s", got, ivfpqGoldenHash)
	}

	// The parallel build must be independent of the worker count.
	prev := runtime.GOMAXPROCS(1)
	serial, err := Build(vecs, refs, opts)
	runtime.GOMAXPROCS(prev)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serial, data) {
		t.Fatal("IVF-PQ index bytes differ between GOMAXPROCS=1 and parallel build")
	}
}

func TestL2sqBoundedMatchesFull(t *testing.T) {
	gen := workload.NewVectorGen(workload.VectorConfig{Seed: 9, Dim: 13, Clusters: 4, Spread: 1.0})
	vecs := gen.Batch(64)
	for i := 1; i < len(vecs); i++ {
		full := l2sq(vecs[0], vecs[i])
		// A bound at or above the true distance must return the exact
		// full value.
		if got := l2sqBounded(vecs[0], vecs[i], full); got != full {
			t.Fatalf("l2sqBounded(bound=full) = %v, want %v", got, full)
		}
		// A tight bound may abandon early, but never below the bound.
		if got := l2sqBounded(vecs[0], vecs[i], full/4); got < full/4 && got != full {
			t.Fatalf("l2sqBounded abandoned at %v below bound %v", got, full/4)
		}
	}
	// Odd lengths exercise the scalar tail.
	a := []float32{1, 2, 3}
	b := []float32{4, 5, 6}
	if got := l2sq(a, b); got != 27 {
		t.Fatalf("l2sq tail = %v, want 27", got)
	}
}

// ivfpqMergedGoldenHash is the SHA-256 of the file Merge emits for the
// golden input split into three sources. Pinned before a merge read
// each source's lists in one fan through the one list decoder, and
// unchanged by it.
const ivfpqMergedGoldenHash = "6f2058d93c34425b75eb6c59a6f3fe0b73bdd0b8c4757f83f672b6015e1144df"

func TestMergeGoldenBytes(t *testing.T) {
	ctx := context.Background()
	store := objectstore.NewMemStore(nil)
	vecs, refs := goldenIVFPQInput()
	opts := BuildOptions{Seed: 7, NList: 32, KMeansIters: 6, TrainSample: 1500}
	var sources []*Index
	third := len(vecs) / 3
	for i := 0; i < 3; i++ {
		lo, hi := i*third, (i+1)*third
		if i == 2 {
			hi = len(vecs)
		}
		sources = append(sources, buildAndOpen(t, store, fmt.Sprintf("%d.index", i), vecs[lo:hi], refs[lo:hi], opts))
	}
	same := map[uint32]uint32{0: 0, 1: 1, 2: 2}
	data, err := Merge(ctx, sources, []map[uint32]uint32{same, same, same}, opts)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.Sum256(data)
	if got := hex.EncodeToString(h[:]); got != ivfpqMergedGoldenHash {
		t.Fatalf("merged IVF-PQ index bytes diverged:\n got %s\nwant %s", got, ivfpqMergedGoldenHash)
	}
}
