package ivfpq

import (
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"

	"rottnest/internal/parallel"
)

// assigner answers every "which centroid is nearest?" question of one
// build — kmeans++ seeding, each Lloyd pass, the coarse assignment and
// the PQ encode — and owns the scratch they share. K-means assignment
// and PQ encoding dominate index build time, and almost all of their
// distances cannot change the answer: each point comes with a
// reference centroid (its previous assignment, or its nearest seed),
// and pruneBound proves most other centroids farther than the best
// one known without measuring them. Every distance that is measured is
// the same l2sq value the exhaustive scan computes and the result is
// its (distance, index) minimum, so assignments, centroids and index
// bytes equal the exhaustive build's.
//
// Passes fan out over the shared worker pool under parallel's rule:
// work is partitioned by index, never by arrival, and each point's
// result lands in its own slot.
type assigner struct {
	// evals counts distance evaluations; tests pin the pruning as a
	// count with it.
	evals atomic.Int64

	cc     []float32 // k×k computed squared centroid distances
	order  []int32   // point indices grouped by reference centroid
	cursor []int32   // counting-sort cursors, one per centroid
	dref   []float32 // squared distance to the reference, by position in order
	dists  []float64 // seeding: squared distance to the nearest seed
	bound  []float32 // seeding: pruneBound at dists
	sums   []float64 // Lloyd update: k×dim coordinate sums
	counts []int     // Lloyd update: members per centroid
}

// evalsPerWorker is the least work worth a goroutine: some tens of
// microseconds of distance evaluations. Smaller passes run inline.
const evalsPerWorker = 1 << 13

// fan runs fn over [0, n) on as many workers as evals distance
// evaluations can keep busy.
func fan(evals, n int, fn func(lo, hi int)) {
	parallel.ForWorkers(min(runtime.GOMAXPROCS(0), 1+evals/evalsPerWorker), n, fn)
}

// grow returns s resized to n, reallocating only when it is too small;
// the contents are unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// train runs kmeans over points[picks] — over all of points when picks
// is nil — and leaves in refs (len(points)) the reference each point
// takes into the assign that follows: its last training assignment, or
// centroid 0 if it was not in the sample.
func (t *assigner) train(points [][]float32, picks []int, k, iters int, rng *rand.Rand, refs []int32) [][]float32 {
	if picks == nil {
		return t.kmeans(points, k, iters, rng, refs)
	}
	sample, asg := make([][]float32, len(picks)), make([]int32, len(picks))
	for i, pi := range picks {
		sample[i] = points[pi]
	}
	centroids := t.kmeans(sample, k, iters, rng, asg)
	clear(refs)
	for i, pi := range picks {
		refs[pi] = asg[i]
	}
	return centroids
}

// kmeans clusters points into k centroids with kmeans++ seeding and
// iters Lloyd iterations; k is clamped to len(points). It returns the
// centroids (sub-slices of one array) and leaves each point's last
// Lloyd assignment in asg (len(points)) — the centroids have moved
// once since, so it is a reference for a later assign, not the answer.
func (t *assigner) kmeans(points [][]float32, k, iters int, rng *rand.Rand, asg []int32) [][]float32 {
	if len(points) == 0 || k <= 0 {
		return nil
	}
	if k > len(points) {
		k = len(points)
	}
	n, dim := len(points), len(points[0])
	rel, abs := pruneSlack(dim)
	slab := make([]float32, k*dim)
	centroids := make([][]float32, k)
	for c := range centroids {
		centroids[c] = slab[c*dim : (c+1)*dim : (c+1)*dim]
	}

	// kmeans++ seeding with a running min-distance array. asg tracks
	// each point's nearest seed a, so a new seed s is measured against
	// a point only where l2sq(s, a) is within pruneBound of the point's
	// distance to a: beyond it s is strictly farther than a and cannot
	// lower the minimum. That costs one distance per earlier seed. The
	// same loop sums the distances for the next draw, in index order.
	first := points[rng.Intn(n)]
	copy(centroids[0], first)
	t.dists, t.bound, t.dref = grow(t.dists, n), grow(t.bound, n), grow(t.dref, n)
	dists, bound := t.dists, t.bound
	toSeeds := t.dref[:k] // distances from the new seed to each earlier one
	var total float64
	for i, p := range points {
		d := l2sq(first, p)
		dists[i], bound[i], asg[i] = float64(d), pruneBound(d, d, rel, abs), 0
		total += dists[i]
	}
	evals := n
	for j := 1; j < k; j++ {
		if total == 0 {
			// All remaining points coincide with centroids; pad with
			// copies to keep k slots.
			for ; j < k; j++ {
				copy(centroids[j], first)
			}
			break
		}
		target := rng.Float64() * total
		acc := 0.0
		pick := n - 1
		for i, d := range dists {
			acc += d
			if acc >= target {
				pick = i
				break
			}
		}
		newC := centroids[j]
		copy(newC, points[pick])
		for a := 0; a < j; a++ {
			toSeeds[a] = l2sq(centroids[a], newC)
		}
		evals += j
		total = 0
		for i := range dists {
			if !(toSeeds[asg[i]] > bound[i]) {
				evals++
				if d := l2sq(newC, points[i]); float64(d) < dists[i] {
					dists[i], bound[i], asg[i] = float64(d), pruneBound(d, d, rel, abs), int32(j)
				}
			}
			total += dists[i]
		}
	}
	t.evals.Add(int64(evals))

	t.sums, t.counts = grow(t.sums, k*dim), grow(t.counts, k)
	sums, counts := t.sums, t.counts
	for it := 0; it < iters; it++ {
		if changed := t.assign(points, centroids, asg); !changed && it > 0 {
			break
		}
		clear(sums)
		clear(counts)
		for i, p := range points {
			c := int(asg[i])
			counts[c]++
			sum := sums[c*dim : (c+1)*dim]
			for j, x := range p {
				sum[j] += float64(x)
			}
		}
		for c := 0; c < k; c++ {
			if counts[c] == 0 {
				// Re-seed empty clusters from a random point.
				copy(centroids[c], points[rng.Intn(n)])
				continue
			}
			for j := 0; j < dim; j++ {
				centroids[c][j] = float32(sums[c*dim+j] / float64(counts[c]))
			}
		}
	}
	return centroids
}

// assign replaces each asg[i], on entry any centroid index taken as
// point i's reference, with the index of the centroid nearest
// points[i] — exactly what nearest returns — and reports whether any
// entry changed.
//
// Points are grouped by reference. For a run of points sharing
// reference a, only centroids within pruneBound of the run's radius
// (its largest distance to a) are candidates at all, and a point
// measures a candidate c only while l2sq(a, c) is within pruneBound of
// its own distance to a and to the best centroid so far. Skipped
// centroids are strictly farther than that best; the result is the
// (distance, index) minimum over the rest, so ties go to the lowest
// index as in nearest. A point whose distance to its reference is not
// below MaxFloat32 (a non-finite coordinate, or overflow) takes the
// exhaustive scan.
func (t *assigner) assign(points, centroids [][]float32, asg []int32) bool {
	n, k := len(points), len(centroids)
	if n == 0 || k == 0 {
		return false
	}
	rel, abs := pruneSlack(len(points[0]))

	// Centroid-to-centroid distances, each pair measured once (l2sq is
	// symmetric bit for bit). Row f is folded with row k-1-f so every
	// index of the fan covers k-1 pairs.
	t.cc = grow(t.cc, k*k)
	cc := t.cc
	fan(k*k/2, (k+1)/2, func(lo, hi int) {
		for f := lo; f < hi; f++ {
			for _, a := range [2]int{f, k - 1 - f} {
				cc[a*k+a] = 0
				for c := a + 1; c < k; c++ {
					d := l2sq(centroids[a], centroids[c])
					cc[a*k+c], cc[c*k+a] = d, d
				}
				if k-1-f == f {
					break
				}
			}
		}
	})
	t.evals.Add(int64(k * (k - 1) / 2))

	// Counting sort of the points by reference.
	t.cursor, t.order, t.dref = grow(t.cursor, k), grow(t.order, n), grow(t.dref, n)
	cursor, order, dref := t.cursor, t.order, t.dref
	clear(cursor)
	for _, a := range asg {
		cursor[a]++
	}
	sum := int32(0)
	for a, c := range cursor {
		cursor[a] = sum
		sum += c
	}
	for i, a := range asg {
		order[cursor[a]] = int32(i)
		cursor[a]++
	}

	var changed atomic.Bool
	fan(8*n, n, func(lo, hi int) {
		var buf [512]int32 // candidate list on the stack; append moves a longer one to the heap once
		cand := buf[:0]
		evals, moved := 0, false
		for p := lo; p < hi; {
			// One run: the points of [p, q) share reference a.
			a := asg[order[p]]
			ca, row := centroids[a], cc[int(a)*k:(int(a)+1)*k]
			radius := float32(-1)
			q := p
			for ; q < hi && asg[order[q]] == a; q++ {
				d := l2sq(ca, points[order[q]])
				dref[q] = d
				if d < math.MaxFloat32 && d > radius {
					radius = d
				}
			}
			evals += q - p
			cand = cand[:0]
			if radius >= 0 {
				within := pruneBound(radius, radius, rel, abs)
				for c, d := range row {
					if !(d > within) && c != int(a) {
						cand = append(cand, int32(c))
					}
				}
			}
			for ; p < q; p++ {
				i := order[p]
				x, da := points[i], dref[p]
				best, bestD := a, da
				if da < math.MaxFloat32 {
					reach := pruneBound(da, da, rel, abs)
					for _, c := range cand {
						if row[c] > reach {
							continue
						}
						evals++
						d := l2sqBounded(centroids[c], x, bestD)
						if d < bestD || d == bestD && c < best {
							best, bestD = c, d
							reach = pruneBound(da, d, rel, abs)
						}
					}
				} else {
					evals += k
					b, _ := nearest(centroids, x)
					best = int32(b)
				}
				if best != a {
					asg[i], moved = best, true
				}
			}
		}
		t.evals.Add(int64(evals))
		if moved {
			changed.Store(true)
		}
	})
	return changed.Load()
}
