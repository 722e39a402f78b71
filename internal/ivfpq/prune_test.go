package ivfpq

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// exhaustiveKMeans is the oracle the pruned k-means is held to: the
// algorithm as it stood before any pruning — every seed measured
// against every point, every Lloyd pass a full nearest scan from a
// zero assignment — consuming rng identically.
type exhaustiveKMeans struct {
	centroids [][]float32
	evals     int // distance evaluations
	reseeds   int // empty clusters re-seeded
	padded    bool
}

func runExhaustiveKMeans(points [][]float32, k, iters int, rng *rand.Rand) exhaustiveKMeans {
	var o exhaustiveKMeans
	if len(points) == 0 || k <= 0 {
		return o
	}
	if k > len(points) {
		k = len(points)
	}
	dim := len(points[0])
	first := points[rng.Intn(len(points))]
	o.centroids = append(o.centroids, append([]float32(nil), first...))
	dists := make([]float64, len(points))
	for i, p := range points {
		dists[i] = float64(l2sq(first, p))
	}
	o.evals += len(points)
	for len(o.centroids) < k {
		var total float64
		for _, d := range dists {
			total += d
		}
		if total == 0 {
			o.padded = true
			for len(o.centroids) < k {
				o.centroids = append(o.centroids, append([]float32(nil), first...))
			}
			break
		}
		target := rng.Float64() * total
		acc := 0.0
		pick := len(points) - 1
		for i, d := range dists {
			acc += d
			if acc >= target {
				pick = i
				break
			}
		}
		newC := append([]float32(nil), points[pick]...)
		o.centroids = append(o.centroids, newC)
		for i, p := range points {
			if d := float64(l2sq(newC, p)); d < dists[i] {
				dists[i] = d
			}
		}
		o.evals += len(points)
	}
	assign := make([]int, len(points))
	for it := 0; it < iters; it++ {
		changed := false
		for i, p := range points {
			c, _ := nearest(o.centroids, p)
			changed = changed || assign[i] != c
			assign[i] = c
		}
		o.evals += len(points) * k
		if !changed && it > 0 {
			break
		}
		sums := make([][]float64, k)
		counts := make([]int, k)
		for i := range sums {
			sums[i] = make([]float64, dim)
		}
		for i, p := range points {
			c := assign[i]
			counts[c]++
			for j, x := range p {
				sums[c][j] += float64(x)
			}
		}
		for c := 0; c < k; c++ {
			if counts[c] == 0 {
				o.reseeds++
				copy(o.centroids[c], points[rng.Intn(len(points))])
				continue
			}
			for j := 0; j < dim; j++ {
				o.centroids[c][j] = float32(sums[c][j] / float64(counts[c]))
			}
		}
	}
	return o
}

// sameBits reports the first coordinate at which two centroid sets
// differ bit for bit (NaNs included), or "".
func sameBits(got, want [][]float32) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d centroids, want %d", len(got), len(want))
	}
	for c := range want {
		for j := range want[c] {
			if math.Float32bits(got[c][j]) != math.Float32bits(want[c][j]) {
				return fmt.Sprintf("centroid %d[%d] = %v (%#x), want %v (%#x)", c, j,
					got[c][j], math.Float32bits(got[c][j]), want[c][j], math.Float32bits(want[c][j]))
			}
		}
	}
	return ""
}

// checkAssign runs the pruned search from the given references and
// fails unless every point lands exactly where nearest puts it.
func checkAssign(t testing.TB, points, centroids [][]float32, refs []int32) {
	t.Helper()
	asg := append([]int32(nil), refs...)
	var a assigner
	changed := a.assign(points, centroids, asg)
	wantChanged := false
	for i, p := range points {
		want, _ := nearest(centroids, p)
		if int(asg[i]) != want {
			t.Fatalf("point %d %v from reference %d: pruned search chose centroid %d, nearest chose %d",
				i, p, refs[i], asg[i], want)
		}
		wantChanged = wantChanged || int(refs[i]) != want
	}
	if changed != wantChanged {
		t.Fatalf("assign reported changed=%v, want %v", changed, wantChanged)
	}
}

// pruneDims straddle the kernel's unroll width (the scalar tail) and
// cover the subspace and full-vector widths the builds use.
var pruneDims = []int{1, 2, 3, 4, 5, 13, 32, 128}

// randomPoints draws n dim-dimensional points around a few centers at
// the given scale; grid > 0 snaps coordinates to a lattice so exact
// ties and duplicates are common.
func randomPoints(rng *rand.Rand, n, dim int, scale float64, grid int) [][]float32 {
	centers := make([][]float64, 1+rng.Intn(6))
	for c := range centers {
		centers[c] = make([]float64, dim)
		for j := range centers[c] {
			centers[c][j] = rng.NormFloat64() * 3
		}
	}
	pts := make([][]float32, n)
	for i := range pts {
		c := centers[rng.Intn(len(centers))]
		p := make([]float32, dim)
		for j := range p {
			x := c[j] + rng.NormFloat64()
			if grid > 0 {
				x = math.Round(x * float64(grid) / 8)
			}
			p[j] = float32(x * scale)
		}
		pts[i] = p
	}
	return pts
}

func randomRefs(rng *rand.Rand, n, k int) []int32 {
	refs := make([]int32, n)
	for i := range refs {
		refs[i] = int32(rng.Intn(k))
	}
	return refs
}

func TestAssignMatchesNearestTable(t *testing.T) {
	inf, nan := float32(math.Inf(1)), float32(math.NaN())
	cases := []struct {
		name              string
		points, centroids [][]float32
	}{
		{"exact ties go to the lowest index",
			[][]float32{{0, 0}, {1, 1}, {0.5, 0.5}, {2, 0}},
			[][]float32{{1, 0}, {0, 1}, {1, 0}, {-1, 0}, {0, -1}, {0, 1}}},
		{"duplicate centroids, point on top of them",
			[][]float32{{3, 4}, {3, 4}, {0, 0}},
			[][]float32{{9, 9}, {3, 4}, {3, 4}, {3, 4}, {0, 0}, {0, 0}}},
		{"one centroid",
			[][]float32{{1}, {2}, {3}},
			[][]float32{{7}}},
		{"huge and tiny coordinates",
			[][]float32{{1e18, -1e18}, {1e-18, 2e-18}, {-1e18, 1e-18}, {3e-18, 0}},
			[][]float32{{1e18, 1e18}, {-1e18, -1e18}, {0, 0}, {1e-18, 1e-18}, {1e18, -1e18}, {2e-18, 2e-18}}},
		{"distances that underflow to zero tie at zero",
			[][]float32{{1e-30, 0}, {0, 2e-30}},
			[][]float32{{3e-30, 0}, {0, 0}, {1e-30, 1e-30}}},
		{"distances that overflow",
			[][]float32{{3e38, 3e38}, {-3e38, 0}, {1e19, 1e19}},
			[][]float32{{-3e38, -3e38}, {3e38, 3e38}, {0, 0}, {2e19, 0}}},
		{"infinite and NaN points",
			[][]float32{{inf, 0}, {-inf, 1}, {nan, 0}, {0, nan}, {1, 1}},
			[][]float32{{0, 0}, {1, 1}, {5, 5}, {-2, 3}}},
		{"infinite and NaN centroids",
			[][]float32{{0, 0}, {1, 1}, {4, 4}, {inf, 1}, {nan, nan}},
			[][]float32{{inf, 0}, {1, 1}, {nan, 2}, {0, 0}, {-inf, -inf}, {4, 5}}},
		{"every centroid non-finite",
			[][]float32{{0, 0}, {1, 2}},
			[][]float32{{nan, 0}, {inf, 0}, {0, -inf}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := len(tc.centroids)
			// Every choice of one shared reference, then each point its own.
			for ref := 0; ref < k; ref++ {
				refs := make([]int32, len(tc.points))
				for i := range refs {
					refs[i] = int32((ref + i*(ref%2)) % k)
				}
				checkAssign(t, tc.points, tc.centroids, refs)
			}
		})
	}
}

func TestAssignMatchesNearestRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for _, dim := range pruneDims {
		for _, scale := range []float64{1, 1e18, 1e-18} {
			for _, grid := range []int{0, 4} {
				n, k := 40+rng.Intn(200), 1+rng.Intn(40)
				points := randomPoints(rng, n, dim, scale, grid)
				// Centroids: a mix of points (zero distances, duplicates)
				// and fresh draws; k may exceed n.
				centroids := randomPoints(rng, k, dim, scale, grid)
				for c := range centroids {
					if rng.Intn(3) == 0 {
						centroids[c] = append([]float32(nil), points[rng.Intn(n)]...)
					}
				}
				t.Run(fmt.Sprintf("dim=%d/scale=%g/grid=%d", dim, scale, grid), func(t *testing.T) {
					// Arbitrary references: correct whatever they are.
					checkAssign(t, points, centroids, randomRefs(rng, n, k))
					// The true nearest as reference: nothing changes.
					refs := make([]int32, n)
					for i, p := range points {
						c, _ := nearest(centroids, p)
						refs[i] = int32(c)
					}
					checkAssign(t, points, centroids, refs)
				})
			}
		}
	}
}

// TestAssignOnThePruningBoundary aims at the slack. Centroids x+v and
// x-v+w, with w perpendicular to v and ten thousand times shorter, are
// as far from x as each other and twice that apart to within a few
// parts in 10^9 — below float32 resolution — so the pruning rule sits
// on its boundary and rounding alone decides on which side the
// computed distances fall. With the slack set to zero the rule skips a
// centroid that ties or wins, and this test fails.
func TestAssignOnThePruningBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, dim := range pruneDims[1:] {
		var points, centroids [][]float32
		for trial := 0; trial < 256; trial++ {
			v, w := make([]float64, dim), make([]float64, dim)
			var vv, vw float64
			for j := range v {
				v[j], w[j] = rng.NormFloat64(), rng.NormFloat64()
				vv += v[j] * v[j]
				vw += v[j] * w[j]
			}
			x, near, far := make([]float32, dim), make([]float32, dim), make([]float32, dim)
			for j := range x {
				x[j] = float32(rng.NormFloat64())
				perp := (w[j] - vw/vv*v[j]) * 1e-4
				near[j], far[j] = float32(float64(x[j])+v[j]), float32(float64(x[j])-v[j]+perp)
			}
			points = append(points, x)
			centroids = append(centroids, far, near)
		}
		// Point i's pair is (2i, 2i+1); start it from either member.
		for side := 0; side < 2; side++ {
			refs := make([]int32, len(points))
			for i := range refs {
				refs[i] = int32(2*i + side)
			}
			checkAssign(t, points, centroids, refs)
		}
	}
}

// TestAssignWorkerCountIndependent runs a pass large enough to fan out
// on one worker and on several: same answers, and (under -race) no
// two workers touch one slot.
func TestAssignWorkerCountIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	points := randomPoints(rng, 5000, 4, 1, 0)
	centroids := randomPoints(rng, 200, 4, 1, 0)
	refs := randomRefs(rng, len(points), len(centroids))
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		checkAssign(t, points, centroids, refs)
		runtime.GOMAXPROCS(prev)
	}
}

// TestKMeansMatchesExhaustive holds a full pruned k-means run to the
// exhaustive oracle, centroid for centroid, bit for bit, and checks
// that the assignment it leaves behind is the last pass's.
func TestKMeansMatchesExhaustive(t *testing.T) {
	inf, nan := float32(math.Inf(1)), float32(math.NaN())
	type input struct {
		name     string
		points   [][]float32
		k, iters int
	}
	rng := rand.New(rand.NewSource(22))
	var inputs []input
	for _, dim := range pruneDims {
		inputs = append(inputs,
			input{fmt.Sprintf("dim=%d", dim), randomPoints(rng, 300, dim, 1, 0), 24, 12},
			input{fmt.Sprintf("dim=%d/lattice", dim), randomPoints(rng, 200, dim, 1, 2), 40, 12})
	}
	few := [][]float32{{1, 1}, {2, 2}, {3, 3}}
	var dups [][]float32
	for i := 0; i < 30; i++ {
		dups = append(dups, few[i%3])
	}
	special := randomPoints(rng, 60, 3, 1, 0)
	special[7] = []float32{inf, 0, 0}
	special[19] = []float32{0, nan, 0}
	special[33] = []float32{-inf, -inf, 1}
	inputs = append(inputs,
		input{"k >= n", randomPoints(rng, 17, 4, 1, 0), 64, 6},
		input{"k == n", randomPoints(rng, 32, 4, 1, 0), 32, 6},
		input{"three distinct values, padded and re-seeded", dups, 8, 6},
		input{"all points equal", [][]float32{{5, 5}, {5, 5}, {5, 5}, {5, 5}}, 3, 4},
		input{"huge", randomPoints(rng, 200, 4, 1e18, 0), 16, 8},
		input{"tiny", randomPoints(rng, 200, 4, 1e-18, 0), 16, 8},
		input{"non-finite points", special, 8, 8},
		input{"no iterations", randomPoints(rng, 50, 4, 1, 0), 8, 0},
		input{"PQ shape", randomPoints(rng, 1500, 4, 1, 0), 256, 12},
	)
	sawPad, sawReseed := false, false
	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			want := runExhaustiveKMeans(in.points, in.k, in.iters, rand.New(rand.NewSource(5)))
			sawPad = sawPad || want.padded
			sawReseed = sawReseed || want.reseeds > 0
			for _, procs := range []int{1, 4} {
				prev := runtime.GOMAXPROCS(procs)
				var a assigner
				asg := make([]int32, len(in.points))
				got := a.kmeans(in.points, in.k, in.iters, rand.New(rand.NewSource(5)), asg)
				runtime.GOMAXPROCS(prev)
				if diff := sameBits(got, want.centroids); diff != "" {
					t.Fatalf("GOMAXPROCS=%d: %s", procs, diff)
				}
				for i, c := range asg {
					if c < 0 || int(c) >= len(got) {
						t.Fatalf("asg[%d] = %d outside [0,%d)", i, c, len(got))
					}
				}
			}
		})
	}
	if !sawPad || !sawReseed {
		t.Fatalf("inputs never took the padding path (%v) or re-seeded an emptied cluster (%v)", sawPad, sawReseed)
	}
}

// pqTrainingSets reproduces what BuildInto hands its PQ trainer for n
// generated benchmark vectors: the residuals against a default coarse
// quantizer, one point set per subspace.
func pqTrainingSets(t testing.TB, n int) [][][]float32 {
	t.Helper()
	vecs := benchVectors(n)
	dim := len(vecs[0])
	opts := BuildOptions{Seed: 1}.withDefaults(n, dim)
	var a assigner
	asg := make([]int32, n)
	centroids := a.kmeans(vecs, opts.NList, opts.KMeansIters, rand.New(rand.NewSource(1)), asg)
	a.assign(vecs, centroids, asg)
	subdim := dim / opts.M
	sets := make([][][]float32, opts.M)
	for i, v := range vecs {
		res := make([]float32, dim)
		for j := range res {
			res[j] = v[j] - centroids[asg[i]][j]
		}
		for m := range sets {
			sets[m] = append(sets[m], res[m*subdim:(m+1)*subdim])
		}
	}
	return sets
}

// TestKMeansPrunes pins the gain as a count of distance evaluations,
// which repeats exactly, where a stopwatch would not: PQ training at
// the benchmark's round size measures at least four times fewer
// distances than the exhaustive loop, and inputs barely larger than
// the codebook — where the centroid-to-centroid distances are a real
// share of the work — never measure more than it.
func TestKMeansPrunes(t *testing.T) {
	const iters = 12
	var got, all int64
	for _, sub := range pqTrainingSets(t, 6000) {
		var a assigner
		a.kmeans(sub, pqCodebookSize, iters, rand.New(rand.NewSource(2)), make([]int32, len(sub)))
		got += a.evals.Load()
		all += int64(len(sub)) * pqCodebookSize * (iters + 1)
	}
	t.Logf("n=6000: %d evaluations, exhaustive %d (%.1fx fewer)", got, all, float64(all)/float64(got))
	if got*4 > all {
		t.Errorf("n=6000: %d distance evaluations, want at most a quarter of %d", got, all)
	}
	for _, n := range []int{300, 500} {
		for m, sub := range pqTrainingSets(t, n) {
			var a assigner
			a.kmeans(sub, pqCodebookSize, iters, rand.New(rand.NewSource(2)), make([]int32, n))
			want := runExhaustiveKMeans(sub, pqCodebookSize, iters, rand.New(rand.NewSource(2)))
			if m == 0 {
				t.Logf("n=%d: %d evaluations, exhaustive %d", n, a.evals.Load(), want.evals)
			}
			if a.evals.Load() > int64(want.evals) {
				t.Errorf("n=%d subspace %d: %d distance evaluations, exhaustive needs %d", n, m, a.evals.Load(), want.evals)
			}
		}
	}
}

// TestPruneSlackDomain pins the two ends of the slack: tiny for the
// dimensions builds use, and infinite (nothing pruned) where the
// error analysis stops holding.
func TestPruneSlackDomain(t *testing.T) {
	if rel, _ := pruneSlack(32); rel <= 0 || rel > 1e-4 {
		t.Fatalf("pruneSlack(32) relative slack = %v", rel)
	}
	rel, abs := pruneSlack(1<<20 + 1)
	if b := pruneBound(1, 1, rel, abs); !math.IsInf(float64(b), 1) {
		t.Fatalf("pruneBound past 2^20 dimensions = %v, want +Inf", b)
	}
	if b := pruneBound(0, 0, rel, abs); b == b {
		t.Fatalf("pruneBound(0, 0) past 2^20 dimensions = %v, want NaN (never exceeded)", b)
	}
}

// FuzzKMeansAssign decodes bytes into centroids, points and arbitrary
// references and requires the pruned search to agree with nearest on
// every point. raw mode reads float32 bit patterns, so NaN, ±Inf,
// subnormals and overflowing magnitudes all occur; otherwise each byte
// is a small lattice coordinate, which makes exact ties and duplicate
// centroids the common case.
func FuzzKMeansAssign(f *testing.F) {
	f.Add([]byte{0, 0, 1, 1, 2, 2, 0, 0, 1, 1, 9, 9, 1, 0, 3}, uint8(2), uint8(3), false)
	f.Add([]byte{5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5}, uint8(1), uint8(4), false)
	raw := binary.LittleEndian.AppendUint32(nil, math.Float32bits(float32(math.Inf(1))))
	raw = binary.LittleEndian.AppendUint32(raw, math.Float32bits(float32(math.NaN())))
	for _, x := range []float32{1e18, -1e18, 1e-18, 1e-40, 3e38, -3e38, 0, 1, 1, 2} {
		raw = binary.LittleEndian.AppendUint32(raw, math.Float32bits(x))
	}
	f.Add(raw, uint8(1), uint8(2), true)
	f.Add(raw, uint8(0), uint8(4), true)
	f.Fuzz(func(t *testing.T, data []byte, dimRaw, kRaw uint8, rawFloats bool) {
		dim, k := 1+int(dimRaw%9), 1+int(kRaw%24)
		if len(data) > 4<<10 {
			data = data[:4<<10]
		}
		var coords []float32
		if rawFloats {
			for ; len(data) >= 4; data = data[4:] {
				coords = append(coords, math.Float32frombits(binary.LittleEndian.Uint32(data)))
			}
		} else {
			for _, b := range data {
				coords = append(coords, float32(int(b%16)-8))
			}
		}
		var vecs [][]float32
		for ; len(coords) >= dim; coords = coords[dim:] {
			vecs = append(vecs, coords[:dim])
		}
		if len(vecs) <= k {
			t.Skip()
		}
		centroids, points := vecs[:k], vecs[k:]
		refs := make([]int32, len(points))
		for i, p := range points {
			refs[i] = int32(math.Float32bits(p[0]) % uint32(k))
		}
		checkAssign(t, points, centroids, refs)
	})
}
