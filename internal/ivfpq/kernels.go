package ivfpq

import "math"

// l2sq returns the squared Euclidean distance between equal-length
// vectors: the bounded kernel with an infinite bound. No partial sum
// compares greater than +Inf (NaN comparisons are false too), so the
// scan always completes and the floating-point additions happen in
// exactly the original serial order — k-means, and therefore the
// index bytes, are unchanged.
func l2sq(a, b []float32) float32 {
	return l2sqBounded(a, b, float32(math.Inf(1)))
}

// L2Sq returns the squared Euclidean distance over the common prefix
// of a and b (mismatched lengths clamp to the shorter, matching the
// tolerant behavior callers scoring raw stored vectors rely on). It
// runs the unrolled kernel with the same single-accumulator serial
// addition order as a naive scalar loop, so results are IEEE
// bit-identical to one.
func L2Sq(a, b []float32) float32 {
	if len(b) < len(a) {
		a = a[:len(b)]
	}
	return l2sq(a, b)
}

// l2sqBounded is l2sq with early abandonment: once the partial sum
// exceeds bound the final distance cannot beat it, so the scan stops
// and returns the (already > bound) partial. Partial sums of
// non-negative terms are monotone under IEEE rounding, and the
// additions run in the same order as l2sq, so a completed scan returns
// the bit-identical full distance.
func l2sqBounded(a, b []float32, bound float32) float32 {
	b = b[:len(a)]
	var sum float32
	i := 0
	for ; i+4 <= len(a); i += 4 {
		d0 := a[i] - b[i]
		d1 := a[i+1] - b[i+1]
		d2 := a[i+2] - b[i+2]
		d3 := a[i+3] - b[i+3]
		sum += d0 * d0
		sum += d1 * d1
		sum += d2 * d2
		sum += d3 * d3
		if sum > bound {
			return sum
		}
	}
	for ; i < len(a); i++ {
		d := a[i] - b[i]
		sum += d * d
	}
	return sum
}

// adcTables fills table (laid out m × pqCodebookSize) with the
// asymmetric-distance lookup tables for residual res: entry
// [m][j] is the squared distance between res's m-th subvector and
// codeword j of subquantizer m. One fill costs m·256 kernel calls and
// is amortized over every code string in the probed list; the fills
// use l2sq, so table entries are bit-identical to the previous inline
// construction.
func adcTables(table []float32, res []float32, codebooks [][][]float32, subdim int) {
	for m := range codebooks {
		sub := res[m*subdim : (m+1)*subdim]
		row := table[m*pqCodebookSize : (m+1)*pqCodebookSize]
		for j, cw := range codebooks[m] {
			row[j] = l2sq(sub, cw)
		}
	}
}

// adcDist gathers the ADC distance of one code string from table,
// unrolled by four, abandoning early once the partial sum exceeds
// bound (terms are non-negative, so partials are monotone and the
// final sum cannot recover). A completed gather accumulates in the
// same serial order as the scalar loop, so it is bit-identical;
// pass an infinite bound to force completion.
func adcDist(table []float32, codes []byte, bound float32) float32 {
	var sum float32
	i := 0
	for ; i+4 <= len(codes); i += 4 {
		sum += table[i*pqCodebookSize+int(codes[i])]
		sum += table[(i+1)*pqCodebookSize+int(codes[i+1])]
		sum += table[(i+2)*pqCodebookSize+int(codes[i+2])]
		sum += table[(i+3)*pqCodebookSize+int(codes[i+3])]
		if sum > bound {
			return sum
		}
	}
	for ; i < len(codes); i++ {
		sum += table[i*pqCodebookSize+int(codes[i])]
	}
	return sum
}

// adcBound tracks the k-th smallest distance seen so far with a
// fixed-capacity max-heap, serving as the early-abandon bound for
// adcDist: a candidate whose distance exceeds the current k-th best
// can never make the final top-k cut. k <= 0 disables the bound
// (bound stays +Inf and add is a no-op), which is also the
// abandon-off test hook's path.
type adcBound struct {
	k int
	h []float32
}

// bound returns the current k-th smallest distance, or +Inf until k
// distances have been seen.
func (b *adcBound) bound() float32 {
	if b.k <= 0 || len(b.h) < b.k {
		return float32(math.Inf(1))
	}
	return b.h[0]
}

// add offers a distance to the heap. NaN distances are harmless: NaN
// comparisons are false, so a NaN that reaches the root merely makes
// the bound permanently un-exceedable (abandonment off), never
// incorrect.
func (b *adcBound) add(d float32) {
	if b.k <= 0 {
		return
	}
	if len(b.h) < b.k {
		b.h = append(b.h, d)
		i := len(b.h) - 1
		for i > 0 {
			p := (i - 1) / 2
			if !(b.h[i] > b.h[p]) {
				break
			}
			b.h[i], b.h[p] = b.h[p], b.h[i]
			i = p
		}
		return
	}
	if !(d < b.h[0]) {
		return
	}
	b.h[0] = d
	i := 0
	for {
		l, r, m := 2*i+1, 2*i+2, i
		if l < len(b.h) && b.h[l] > b.h[m] {
			m = l
		}
		if r < len(b.h) && b.h[r] > b.h[m] {
			m = r
		}
		if m == i {
			break
		}
		b.h[i], b.h[m] = b.h[m], b.h[i]
		i = m
	}
}

// nearest is the exhaustive nearest-centroid scan: the index of the
// centroid closest to v (lowest index among ties) and the squared
// distance. The build path asks that question through assigner, which
// skips centroids that provably cannot win; this scan is the oracle the
// tests hold it to and its fallback for points whose reference
// distance is not finite. Early abandonment against the best distance
// so far is exact (see l2sqBounded): an abandoned candidate's true
// distance is at least the returned partial, which already exceeds
// bestD.
func nearest(centroids [][]float32, v []float32) (int, float32) {
	best, bestD := 0, float32(math.MaxFloat32)
	for i, c := range centroids {
		if d := l2sqBounded(c, v, bestD); d < bestD {
			best, bestD = i, d
		}
	}
	return best, bestD
}

// pruneSlack returns the relative and absolute slack of pruneBound for
// dim-dimensional vectors. Neither is a tunable: a computed l2sq is
// within a factor (1-u)^-(dim+2), u = 2^-24, of the true squared
// distance (one rounding for the difference, one for the square, at
// most dim for the serial sum) plus at most dim·2^-149 of underflow,
// and 8(dim+4)u and dim·2^-120 cover what the triangle inequality makes
// of that, the float64 evaluation of the bound and its rounding to
// float32 (proof: DESIGN.md §21). Past 2^20 dimensions the analysis
// stops holding and the slack is infinite: nothing is pruned.
func pruneSlack(dim int) (rel, abs float64) {
	if dim > 1<<20 {
		return math.Inf(1), 0
	}
	return float64(dim+4) / (1 << 21), math.Ldexp(float64(dim), -120)
}

// pruneBound is the one pruning rule of the build path. x is a point,
// a its reference centroid, b the best centroid found so far, and dxa
// and dxb their computed squared distances to x. A centroid c whose
// computed squared distance to a exceeds the returned bound satisfies
// l2sq(x, c) > l2sq(x, b) as computed, strictly, so it is not the
// (distance, index) minimum and need not be measured: by the triangle
// inequality d(x,c) >= d(a,c) - d(x,a) > d(x,b). Every operation here
// is monotone, so a bound taken at a cluster's radius covers each of
// its members. A non-finite argument gives a non-finite bound, which no
// distance exceeds.
func pruneBound(dxa, dxb float32, rel, abs float64) float32 {
	s := math.Sqrt(float64(dxa)) + math.Sqrt(float64(dxb))
	return float32(s*s*(1+rel) + abs)
}
