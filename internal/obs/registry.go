// Package obs is Rottnest's zero-dependency observability layer:
// context-propagated trace spans recording wall and virtual (simtime)
// durations, and a typed metrics registry of named counters, gauges,
// and histograms.
//
// The paper's whole argument is economic (Section VII's TCO phase
// diagrams hinge on exact GET, byte, and latency accounting per
// protocol call), so instrumentation is not an afterthought here: the
// store wrappers, the four protocol APIs, and in-situ probing all
// report through this one layer. Everything is stdlib-only and cheap
// when disabled — a span Start against a context with no trace is a
// single context lookup, and registry counters are single atomics.
package obs

import (
	"fmt"
	"io"
	"math/bits"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing int64 metric. All methods are
// nil-safe so holders of an optional counter need no guards.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (negative deltas are ignored:
// counters only go up).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable int64 metric (e.g. resident cache bytes).
type Gauge struct {
	v atomic.Int64
}

// Set stores the gauge value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add moves the gauge by delta (may be negative).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current gauge value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the number of exponential histogram buckets: bucket i
// counts observations whose bit length is i, i.e. values in
// [2^(i-1), 2^i). Bucket 0 counts non-positive observations.
const histBuckets = 64

// Histogram accumulates int64 observations (typically nanoseconds)
// into power-of-two buckets plus count/sum/min/max.
type Histogram struct {
	mu      sync.Mutex
	count   int64
	sum     int64
	min     int64
	max     int64
	buckets [histBuckets]int64
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	b := 0
	if v > 0 {
		b = bits.Len64(uint64(v))
	}
	if b >= histBuckets {
		b = histBuckets - 1
	}
	h.mu.Lock()
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.buckets[b]++
	h.mu.Unlock()
}

// HistogramSnapshot is a point-in-time copy of a histogram.
type HistogramSnapshot struct {
	Count int64 `json:"count"`
	Sum   int64 `json:"sum"`
	Min   int64 `json:"min"`
	Max   int64 `json:"max"`
	// Buckets maps an upper bound (exclusive, a power of two) to the
	// number of observations below it and at or above the previous
	// bound. Empty buckets are omitted.
	Buckets map[int64]int64 `json:"buckets,omitempty"`
}

// Mean returns the mean observation, or 0 with no observations.
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile returns the nearest-rank p-quantile (0 ≤ p ≤ 1) of a
// sample: element int(p·(len−1)) of a sorted copy, or zero for an
// empty sample. The sample itself is left unsorted.
func Quantile[T ~int64](sample []T, p float64) T {
	if len(sample) == 0 {
		return 0
	}
	sorted := slices.Clone(sample)
	slices.Sort(sorted)
	return sorted[int(p*float64(len(sorted)-1))]
}

func (h *Histogram) snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistogramSnapshot{Count: h.count, Sum: h.sum, Min: h.min, Max: h.max}
	for i, n := range h.buckets {
		if n == 0 {
			continue
		}
		if s.Buckets == nil {
			s.Buckets = make(map[int64]int64)
		}
		bound := int64(1)
		if i > 0 {
			bound = 1 << uint(i)
		}
		s.Buckets[bound] = n
	}
	return s
}

// Registry is a concurrency-safe set of named metrics. Metric names
// are dot-separated lowercase paths ("store.gets", "cache.hits",
// "search.latency_ns"); each wrapper owns a private registry with a
// disjoint prefix, and Client.Metrics merges them into one Snapshot.
// Lookups are get-or-create, so callers can resolve metric handles
// once at construction and update them lock-free afterwards.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.histograms[name]
	if h == nil {
		h = &Histogram{}
		r.histograms[name] = h
	}
	return h
}

// Snapshot returns a point-in-time copy of every metric.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{}
	if r == nil {
		return s
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	histograms := make(map[string]*Histogram, len(r.histograms))
	for k, v := range r.histograms {
		histograms[k] = v
	}
	r.mu.Unlock()
	for k, v := range counters {
		if s.Counters == nil {
			s.Counters = make(map[string]int64, len(counters))
		}
		s.Counters[k] = v.Value()
	}
	for k, v := range gauges {
		if s.Gauges == nil {
			s.Gauges = make(map[string]int64, len(gauges))
		}
		s.Gauges[k] = v.Value()
	}
	for k, v := range histograms {
		if s.Histograms == nil {
			s.Histograms = make(map[string]HistogramSnapshot, len(histograms))
		}
		s.Histograms[k] = v.snapshot()
	}
	return s
}

// Snapshot is a point-in-time view over one or more registries.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Counter returns the named counter's value (0 when absent).
func (s Snapshot) Counter(name string) int64 { return s.Counters[name] }

// Gauge returns the named gauge's value (0 when absent).
func (s Snapshot) Gauge(name string) int64 { return s.Gauges[name] }

// Sub returns the counter and histogram deltas from an earlier
// snapshot (gauges keep their later value), for attributing metric
// movement to a single window.
func (s Snapshot) Sub(earlier Snapshot) Snapshot {
	out := Snapshot{}
	for k, v := range s.Counters {
		if out.Counters == nil {
			out.Counters = make(map[string]int64, len(s.Counters))
		}
		out.Counters[k] = v - earlier.Counters[k]
	}
	for k, v := range s.Gauges {
		if out.Gauges == nil {
			out.Gauges = make(map[string]int64, len(s.Gauges))
		}
		out.Gauges[k] = v
	}
	for k, v := range s.Histograms {
		if out.Histograms == nil {
			out.Histograms = make(map[string]HistogramSnapshot, len(s.Histograms))
		}
		e := earlier.Histograms[k]
		d := HistogramSnapshot{Count: v.Count - e.Count, Sum: v.Sum - e.Sum, Min: v.Min, Max: v.Max}
		for bound, n := range v.Buckets {
			if delta := n - e.Buckets[bound]; delta != 0 {
				if d.Buckets == nil {
					d.Buckets = make(map[int64]int64)
				}
				d.Buckets[bound] = delta
			}
		}
		out.Histograms[k] = d
	}
	return out
}

// Merge unions snapshots into one. Names are expected to be disjoint
// (each wrapper prefixes its own); on a clash counters sum,
// gauges/histograms keep the later entry.
func Merge(snaps ...Snapshot) Snapshot {
	out := Snapshot{}
	for _, s := range snaps {
		for k, v := range s.Counters {
			if out.Counters == nil {
				out.Counters = make(map[string]int64)
			}
			out.Counters[k] += v
		}
		for k, v := range s.Gauges {
			if out.Gauges == nil {
				out.Gauges = make(map[string]int64)
			}
			out.Gauges[k] = v
		}
		for k, v := range s.Histograms {
			if out.Histograms == nil {
				out.Histograms = make(map[string]HistogramSnapshot)
			}
			out.Histograms[k] = v
		}
	}
	return out
}

// promName converts a dotted metric name to a Prometheus-compatible
// one (dots and dashes become underscores).
func promName(name string) string {
	return strings.Map(func(r rune) rune {
		switch r {
		case '.', '-':
			return '_'
		}
		return r
	}, name)
}

// WritePrometheus renders the snapshot in the Prometheus text
// exposition format: counters get a _total suffix, histograms emit
// cumulative _bucket/_sum/_count series. Output is sorted by name so
// dumps diff cleanly.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	names := make([]string, 0, len(s.Counters))
	for k := range s.Counters {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		if _, err := fmt.Fprintf(w, "# TYPE %s_total counter\n%s_total %d\n", promName(k), promName(k), s.Counters[k]); err != nil {
			return err
		}
	}
	names = names[:0]
	for k := range s.Gauges {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", promName(k), promName(k), s.Gauges[k]); err != nil {
			return err
		}
	}
	names = names[:0]
	for k := range s.Histograms {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		h := s.Histograms[k]
		name := promName(k)
		if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", name); err != nil {
			return err
		}
		bounds := make([]int64, 0, len(h.Buckets))
		for b := range h.Buckets {
			bounds = append(bounds, b)
		}
		sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })
		cum := int64(0)
		for _, b := range bounds {
			cum += h.Buckets[b]
			if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", name, b, cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %d\n%s_count %d\n", name, h.Count, name, h.Sum, name, h.Count); err != nil {
			return err
		}
	}
	return nil
}
