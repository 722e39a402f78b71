package ivfpq

import (
	"context"
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"testing"

	"rottnest/internal/component"
	"rottnest/internal/objectstore"
	"rottnest/internal/postings"
	"rottnest/internal/workload"
)

func buildAndOpen(t testing.TB, store objectstore.Store, key string, vecs [][]float32, refs []postings.RowRef, opts BuildOptions) *Index {
	t.Helper()
	ctx := context.Background()
	data, err := Build(vecs, refs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Put(ctx, key, data); err != nil {
		t.Fatal(err)
	}
	r, err := component.Open(ctx, store, key, component.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Open(ctx, r)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// Entries returns the ref of every indexed vector, list by list,
// through the index's one list decoder.
func (ix *Index) Entries(ctx context.Context) ([]postings.RowRef, error) {
	lists, err := ix.decodeLists(ctx)
	if err != nil {
		return nil, err
	}
	var refs []postings.RowRef
	for _, members := range lists {
		for _, mb := range members {
			refs = append(refs, mb.ref)
		}
	}
	return refs, nil
}

func seqRefs(n int) []postings.RowRef {
	refs := make([]postings.RowRef, n)
	for i := range refs {
		refs[i] = postings.RowRef{File: 0, Row: int64(i)}
	}
	return refs
}

func TestKMeansBasics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Two well-separated clusters must be found.
	var pts [][]float32
	for i := 0; i < 50; i++ {
		pts = append(pts, []float32{float32(rng.NormFloat64() * 0.1), 0})
		pts = append(pts, []float32{10 + float32(rng.NormFloat64()*0.1), 0})
	}
	cents := new(assigner).kmeans(pts, 2, 20, rng, make([]int32, len(pts)))
	if len(cents) != 2 {
		t.Fatalf("centroids = %d", len(cents))
	}
	lo, hi := cents[0][0], cents[1][0]
	if lo > hi {
		lo, hi = hi, lo
	}
	if lo > 1 || hi < 9 {
		t.Fatalf("centroids at %v and %v, want ~0 and ~10", lo, hi)
	}
	// k > n clamps.
	if got := new(assigner).kmeans(pts[:3], 10, 5, rng, make([]int32, 3)); len(got) != 3 {
		t.Fatalf("clamp: %d centroids", len(got))
	}
	if got := new(assigner).kmeans(nil, 5, 5, rng, nil); got != nil {
		t.Fatal("empty points")
	}
}

func TestSearchRecallWithRefine(t *testing.T) {
	ctx := context.Background()
	store := objectstore.NewMemStore(nil)
	gen := workload.NewVectorGen(workload.VectorConfig{Seed: 2, Dim: 32, Clusters: 32, Spread: 0.2})
	const n = 8000
	vecs := gen.Batch(n)
	ix := buildAndOpen(t, store, "v.index", vecs, seqRefs(n), BuildOptions{NList: 64, M: 8, Seed: 3})

	queries := gen.Queries(30)
	const k = 10
	var recallSum float64
	for _, q := range queries {
		cands, err := ix.Search(ctx, q, 16, 200)
		if err != nil {
			t.Fatal(err)
		}
		// Refine: exact rerank of the candidates.
		full := make([][]float32, len(cands))
		for i, c := range cands {
			full[i] = vecs[c.Ref.Row]
		}
		top := ExactRerank(q, cands, full, k)
		got := make([]int, len(top))
		for i, c := range top {
			got[i] = int(c.Ref.Row)
		}
		truth := workload.ExactNearest(vecs, q, k)
		recallSum += workload.Recall(got, truth)
	}
	recall := recallSum / float64(len(queries))
	if recall < 0.8 {
		t.Fatalf("recall@10 = %.3f, want >= 0.8", recall)
	}
}

func TestRecallImprovesWithNprobe(t *testing.T) {
	ctx := context.Background()
	store := objectstore.NewMemStore(nil)
	gen := workload.NewVectorGen(workload.VectorConfig{Seed: 4, Dim: 32, Clusters: 64, Spread: 0.25})
	const n = 6000
	vecs := gen.Batch(n)
	ix := buildAndOpen(t, store, "v.index", vecs, seqRefs(n), BuildOptions{NList: 64, M: 8, Seed: 5})

	queries := gen.Queries(25)
	const k = 10
	recallAt := func(nprobe int) float64 {
		var sum float64
		for _, q := range queries {
			cands, err := ix.Search(ctx, q, nprobe, 300)
			if err != nil {
				t.Fatal(err)
			}
			full := make([][]float32, len(cands))
			for i, c := range cands {
				full[i] = vecs[c.Ref.Row]
			}
			top := ExactRerank(q, cands, full, k)
			got := make([]int, len(top))
			for i, c := range top {
				got[i] = int(c.Ref.Row)
			}
			sum += workload.Recall(got, workload.ExactNearest(vecs, q, k))
		}
		return sum / float64(len(queries))
	}
	low, high := recallAt(1), recallAt(32)
	if high < low {
		t.Fatalf("recall fell with nprobe: %.3f -> %.3f", low, high)
	}
	if high < 0.85 {
		t.Fatalf("recall@10 with nprobe=32: %.3f", high)
	}
}

func TestSearchRequestPattern(t *testing.T) {
	// A search is one root read (at open) plus one fan of list
	// component reads — width, not depth.
	ctx := context.Background()
	inner := objectstore.NewMemStore(nil)
	gen := workload.NewVectorGen(workload.VectorConfig{Seed: 6, Dim: 16, Clusters: 16, Spread: 0.2})
	const n = 4000
	vecs := gen.Batch(n)
	data, err := Build(vecs, seqRefs(n), BuildOptions{NList: 32, M: 4, Seed: 7, TargetComponentBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	inner.Put(ctx, "v.index", data)
	store, metrics := objectstore.Instrument(inner, objectstore.DefaultS3Model())
	r, err := component.Open(ctx, store, "v.index", component.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Open(ctx, r)
	if err != nil {
		t.Fatal(err)
	}
	before := metrics.Snapshot()
	if _, err := ix.Search(ctx, vecs[0], 8, 100); err != nil {
		t.Fatal(err)
	}
	gets := metrics.Snapshot().Sub(before).Gets
	if gets > 8 {
		t.Fatalf("search issued %d GETs for nprobe=8", gets)
	}
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(nil, nil, BuildOptions{}); err == nil {
		t.Fatal("empty build accepted")
	}
	if _, err := Build([][]float32{{1, 2}}, seqRefs(2), BuildOptions{}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := Build([][]float32{{1, 2}, {1, 2, 3}}, seqRefs(2), BuildOptions{}); err == nil {
		t.Fatal("ragged vectors accepted")
	}
}

func TestQueryValidation(t *testing.T) {
	ctx := context.Background()
	store := objectstore.NewMemStore(nil)
	vecs := workload.NewVectorGen(workload.VectorConfig{Seed: 8, Dim: 8, Clusters: 4}).Batch(100)
	ix := buildAndOpen(t, store, "v.index", vecs, seqRefs(100), BuildOptions{M: 4})
	if _, err := ix.Search(ctx, []float32{1, 2}, 4, 10); err == nil {
		t.Fatal("wrong query dim accepted")
	}
	// nprobe out of range clamps rather than failing.
	if _, err := ix.Search(ctx, vecs[0], 10000, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Search(ctx, vecs[0], 0, 10); err != nil {
		t.Fatal(err)
	}
}

func TestEntriesAccounting(t *testing.T) {
	ctx := context.Background()
	store := objectstore.NewMemStore(nil)
	const n = 500
	vecs := workload.NewVectorGen(workload.VectorConfig{Seed: 9, Dim: 8, Clusters: 4}).Batch(n)
	ix := buildAndOpen(t, store, "v.index", vecs, seqRefs(n), BuildOptions{M: 4})
	if ix.NumVectors() != n || ix.Dim() != 8 {
		t.Fatalf("NumVectors=%d Dim=%d", ix.NumVectors(), ix.Dim())
	}
	refs, err := ix.Entries(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != n {
		t.Fatalf("Entries = %d, want %d", len(refs), n)
	}
	seen := make(map[int64]bool, n)
	for _, r := range refs {
		if seen[r.Row] {
			t.Fatalf("duplicate ref row %d", r.Row)
		}
		seen[r.Row] = true
	}
}

func TestDimNotDivisibleByM(t *testing.T) {
	// dim=10 with requested M=8 must adjust to a divisor.
	ctx := context.Background()
	store := objectstore.NewMemStore(nil)
	rng := rand.New(rand.NewSource(10))
	vecs := make([][]float32, 200)
	for i := range vecs {
		v := make([]float32, 10)
		for j := range v {
			v[j] = float32(rng.NormFloat64())
		}
		vecs[i] = v
	}
	ix := buildAndOpen(t, store, "v.index", vecs, seqRefs(200), BuildOptions{M: 8})
	if _, err := ix.Search(ctx, vecs[0], 4, 10); err != nil {
		t.Fatal(err)
	}
}

func TestExactRerank(t *testing.T) {
	q := []float32{0, 0}
	cands := []Candidate{
		{Ref: postings.RowRef{Row: 0}, Dist: 99},
		{Ref: postings.RowRef{Row: 1}, Dist: 1},
		{Ref: postings.RowRef{Row: 2}, Dist: 50},
	}
	vectors := [][]float32{{5, 0}, {1, 0}, {0.1, 0}}
	top := ExactRerank(q, cands, vectors, 2)
	if len(top) != 2 || top[0].Ref.Row != 2 || top[1].Ref.Row != 1 {
		t.Fatalf("rerank = %+v", top)
	}
}

func BenchmarkIVFPQSearch(b *testing.B) {
	ctx := context.Background()
	store := objectstore.NewMemStore(nil)
	gen := workload.NewVectorGen(workload.VectorConfig{Seed: 13, Dim: 32, Clusters: 32})
	vecs := gen.Batch(20000)
	ix := buildAndOpen(b, store, "v.index", vecs, seqRefs(len(vecs)), BuildOptions{NList: 128, M: 8, Seed: 14})
	queries := gen.Queries(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ix.Search(ctx, queries[i%len(queries)], 16, 200); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSearchAbandonIdentity pins that early abandonment never changes
// Search's output: with the bound active the returned candidates must
// be identical — refs and distance bits — to a forced full scan, for
// candidate budgets below, at, and above the corpus size.
func TestSearchAbandonIdentity(t *testing.T) {
	ctx := context.Background()
	store := objectstore.NewMemStore(nil)
	gen := workload.NewVectorGen(workload.VectorConfig{Seed: 19, Dim: 32, Clusters: 48, Spread: 0.3})
	vecs := gen.Batch(4000)
	ix := buildAndOpen(t, store, "v.index", vecs, seqRefs(len(vecs)), BuildOptions{NList: 64, M: 8, Seed: 20})
	queries := gen.Queries(16)
	for _, maxCands := range []int{1, 7, 100, 5000, 0} {
		for qi, q := range queries {
			fast, err := ix.Search(ctx, q, 12, maxCands)
			if err != nil {
				t.Fatal(err)
			}
			adcAbandonDisabled = true
			full, err := ix.Search(ctx, q, 12, maxCands)
			adcAbandonDisabled = false
			if err != nil {
				t.Fatal(err)
			}
			if len(fast) != len(full) {
				t.Fatalf("q %d maxCands %d: %d candidates with abandon, %d without", qi, maxCands, len(fast), len(full))
			}
			for i := range fast {
				if fast[i].Ref != full[i].Ref ||
					math.Float32bits(fast[i].Dist) != math.Float32bits(full[i].Dist) {
					t.Fatalf("q %d maxCands %d cand %d: abandon %+v vs full %+v", qi, maxCands, i, fast[i], full[i])
				}
			}
		}
	}
}

// decodeScan is the pre-ADC baseline: reconstruct each candidate's
// approximate vector from its PQ codes (centroid + codewords) and
// score it with the L2 kernel. BenchmarkPQScanADC measures the
// table-gather scan against it.
func decodeScan(ctx context.Context, ix *Index, q []float32, nprobe, maxCandidates int) ([]Candidate, error) {
	type cd struct {
		list int
		dist float32
	}
	cds := make([]cd, len(ix.centroids))
	for i, c := range ix.centroids {
		cds[i] = cd{list: i, dist: l2sq(c, q)}
	}
	sort.Slice(cds, func(a, b int) bool { return cds[a].dist < cds[b].dist })
	if nprobe > len(cds) {
		nprobe = len(cds)
	}
	var cands []Candidate
	approx := make([]float32, ix.dim)
	for _, p := range cds[:nprobe] {
		d := ix.lists[p.list]
		if d.Count == 0 {
			continue
		}
		cent := ix.centroids[p.list]
		data, err := ix.r.Component(ctx, d.ComponentID)
		if err != nil {
			return nil, err
		}
		listData, err := listBytes(data, d)
		if err != nil {
			return nil, err
		}
		_, n := binary.Uvarint(listData)
		lpos := n
		for i := 0; i < d.Count; i++ {
			file, n := binary.Uvarint(listData[lpos:])
			lpos += n
			row, n := binary.Varint(listData[lpos:])
			lpos += n
			for m := 0; m < ix.m; m++ {
				cw := ix.codebooks[m][int(listData[lpos+m])]
				for j, v := range cw {
					approx[m*ix.subdim+j] = cent[m*ix.subdim+j] + v
				}
			}
			lpos += ix.m
			cands = append(cands, Candidate{Ref: postings.RowRef{File: uint32(file), Row: row}, Dist: l2sq(q, approx)})
		}
	}
	sortCandidates(cands)
	if maxCandidates > 0 && len(cands) > maxCandidates {
		cands = cands[:maxCandidates]
	}
	return cands, nil
}

// BenchmarkPQScanADC compares the ADC table-gather list scan against
// the decode-and-L2 baseline on the same index and queries. The ADC
// path must be the clear winner: m table adds per candidate versus a
// dim-wide reconstruction plus a dim-wide distance.
func BenchmarkPQScanADC(b *testing.B) {
	ctx := context.Background()
	store := objectstore.NewMemStore(nil)
	gen := workload.NewVectorGen(workload.VectorConfig{Seed: 23, Dim: 64, Clusters: 32})
	vecs := gen.Batch(20000)
	ix := buildAndOpen(b, store, "v.index", vecs, seqRefs(len(vecs)), BuildOptions{NList: 64, M: 8, Seed: 24})
	queries := gen.Queries(64)
	b.Run("adc", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ix.Search(ctx, queries[i%len(queries)], 16, 200); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := decodeScan(ctx, ix, queries[i%len(queries)], 16, 200); err != nil {
				b.Fatal(err)
			}
		}
	})
}
