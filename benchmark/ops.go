package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"rottnest/internal/objectstore"
)

// opRunner runs operations under a scope of their own, so the store
// counts each operation's requests apart and, in a traced run, hangs
// its request spans under the operation's root span.
type opRunner struct {
	rec  *recorder // nil in an untraced run
	next atomic.Int64
}

// run executes one operation. due is when it was due to start: now for
// a closed loop, the schedule's time for an open loop. In a traced run
// every other operation records spans, so the same run also measures
// what tracing costs.
func (r *opRunner) run(ctx context.Context, q *query, due time.Time, do func(context.Context, *query) ([]hit, error)) *sample {
	id := r.next.Add(1)
	s := &sample{q: q}
	sc := &scope{op: id, tally: &objectstore.Metrics{}}
	if r.rec != nil && (id/int64(nClasses))%2 == 0 {
		s.traced = true
		sc.rec = r.rec
		s.root = r.rec.newID()
		sc.parent = s.root
	}
	start := time.Now()
	s.hits, s.err = do(withScope(ctx, sc), q)
	end := time.Now()
	s.end = end
	s.wall = end.Sub(start)
	s.latency = end.Sub(due)
	s.counts = sc.tally.Snapshot()
	if s.traced {
		r.rec.add(span{ID: s.root, Op: id, Name: "op." + classNames[q.class]}, start, end)
	}
	return s
}

// closedLoop runs clients callers, each issuing its next operation
// when the previous one returns, until the deadline or, when maxOps is
// positive, until that many operations were issued. Operation i is of
// class i mod 4 whichever client draws it.
func closedLoop(ctx context.Context, clients int, until time.Time, maxOps int, next func(i int) *query, exec func(context.Context, *query) *sample) []*sample {
	var (
		mu      sync.Mutex
		samples []*sample
		counter atomic.Int64
		wg      sync.WaitGroup
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []*sample
			for time.Now().Before(until) {
				i := int(counter.Add(1) - 1)
				if maxOps > 0 && i >= maxOps {
					break
				}
				mine = append(mine, exec(ctx, next(i)))
			}
			mu.Lock()
			samples = append(samples, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return samples
}

// firstError reports the first failed sample of a set-up phase.
func firstError(phase string, samples []*sample) error {
	for _, s := range samples {
		if s.err != nil {
			return fmt.Errorf("%s: %w", phase, s.err)
		}
	}
	return nil
}

// mallocs reads the process's cumulative allocation counters.
func mallocs() (count, bytes uint64) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs, m.TotalAlloc
}

// window is what a measured period of queries produced.
type window struct {
	samples  []*sample
	start    time.Time
	elapsed  time.Duration
	mallocs  uint64
	allocKB  float64
	store    objectstore.Snapshot
	failures []string
	failed   int
	recall   []float64
}

// measure brackets a measured period with the process and store
// counters.
func measure(store *delayStore, body func() []*sample) *window {
	m0, b0 := mallocs()
	c0 := store.counts()
	start := time.Now()
	samples := body()
	w := &window{samples: samples, start: start, elapsed: time.Since(start)}
	m1, b1 := mallocs()
	w.mallocs = m1 - m0
	w.allocKB = float64(b1-b0) / 1024
	w.store = store.counts().Sub(c0)
	return w
}

// verify checks every sample against the oracle.
func (w *window) verify(o *oracle) {
	for _, s := range w.samples {
		ok, recall, why := o.check(s)
		if !ok {
			w.failed++
			if len(w.failures) < 5 {
				w.failures = append(w.failures, why)
			}
			continue
		}
		if s.q.class == classVector {
			w.recall = append(w.recall, recall)
		}
	}
}

// latencies returns the latencies in ms of one class of the samples, or
// of every class when c is nClasses.
func latencies(samples []*sample, c class) []float64 {
	var out []float64
	for _, s := range samples {
		if c == nClasses || s.q.class == c {
			out = append(out, ms(s.latency))
		}
	}
	return out
}

// A window that holds enough samples is cut into parts of partLength and
// every timing statistic is taken per part; the part at the quiet
// quartile is reported (the first quartile of the parts for a latency,
// the third for a rate). The machine this runs on is a few cores of a
// shared host: CPU-bound work runs up to a third slower for seconds at a
// time when a neighbour is busy, and never faster than the program
// allows. A statistic over the whole window, or the median part, moves
// with the share of the window the neighbour took; the quiet quartile
// holds as long as a quarter of the window was left alone, and a change
// to the program moves every part, the quiet ones too. Windows with fewer
// than minPartSamples per part (the workloads that wait on the store, where
// a busy neighbour costs little) are not cut.
const (
	partLength     = time.Second
	minPartSamples = 200
)

// parts cuts the samples into parts of equal time by completion.
func (w *window) parts() [][]*sample {
	n := int(w.elapsed / partLength)
	if n < 1 || len(w.samples) < n*minPartSamples {
		n = 1
	}
	parts := make([][]*sample, n)
	for _, s := range w.samples {
		i := int(s.end.Sub(w.start) * time.Duration(n) / w.elapsed)
		i = min(max(i, 0), n-1)
		parts[i] = append(parts[i], s)
	}
	return parts
}

// quietPart takes stat over each part and returns the value at the quiet
// quartile: towards the low end when lower is better, the high end when
// higher is. A part for which stat has no value (NaN) is left out.
func quietPart(parts [][]*sample, lowerIsBetter bool, stat func([]*sample) float64) float64 {
	vals := make([]float64, 0, len(parts))
	for _, part := range parts {
		if v := stat(part); !math.IsNaN(v) {
			vals = append(vals, v)
		}
	}
	if lowerIsBetter {
		return percentile(vals, 25)
	}
	return percentile(vals, 75)
}

// latencyStat is stat over the latencies of one class of a part (every
// class when c is nClasses); a part that completed no such operation, as
// during a stall, has no value.
func latencyStat(c class, stat func([]float64) float64) func([]*sample) float64 {
	return func(part []*sample) float64 {
		l := latencies(part, c)
		if len(l) == 0 {
			return math.NaN()
		}
		return stat(l)
	}
}

// queryMetrics fills the end-to-end metrics every query stream
// reports.
func (w *window) queryMetrics(e2e map[string]float64, getsPerQuery float64) {
	parts := w.parts()
	for c := class(0); c < nClasses; c++ {
		e2e[classNames[c]+"_p50_ms"] = quietPart(parts, true, latencyStat(c, midmean))
	}
	e2e["query_p95_ms"] = quietPart(parts, true, latencyStat(nClasses, func(l []float64) float64 { return percentile(l, 95) }))
	partSeconds := w.elapsed.Seconds() / float64(len(parts))
	e2e["query_qps"] = quietPart(parts, false, func(part []*sample) float64 { return float64(len(part)) / partSeconds })
	e2e["gets_per_query"] = getsPerQuery
	e2e["allocs_per_query"] = float64(w.mallocs) / float64(len(w.samples))
	e2e["vector_recall_at_10"] = mean(w.recall)
}

// getsPerQuery is the mean number of GETs the samples' own scopes
// counted.
func (w *window) getsPerQuery() float64 {
	var gets int64
	for _, s := range w.samples {
		gets += s.counts.Gets
	}
	return float64(gets) / float64(len(w.samples))
}
