package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"rottnest/internal/objectstore"
)

// span is one timed interval of a traced run: a store request, a call
// of the layer drive, or the root of one operation. Times are
// nanoseconds since the recorder started. Spans of one operation share
// Op; Parent is the span that caused this one (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Bytes  int64  `json:"bytes,omitempty"`
}

// recorder keeps the spans of a traced run in memory until the run
// ends.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	next  int64
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// newID reserves a span id, so a parent can hand it to its children
// before it ends itself.
func (r *recorder) newID() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	return r.next
}

// add records a finished span; a zero ID gets a fresh one.
func (r *recorder) add(s span, start, end time.Time) int64 {
	s.Start, s.End = int64(start.Sub(r.t0)), int64(end.Sub(r.t0))
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.ID == 0 {
		r.next++
		s.ID = r.next
	}
	r.spans = append(r.spans, s)
	return s.ID
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeJSONL writes one span per line.
func (r *recorder) writeJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// scope is what the benchmark puts in a context before calling into
// the program: which operation the call belongs to, where its requests
// are counted and, in a traced run, which span they hang under.
type scope struct {
	op     int64
	parent int64
	rec    *recorder
	tally  *objectstore.Metrics
}

type scopeKey struct{}

func withScope(ctx context.Context, sc *scope) context.Context {
	return context.WithValue(ctx, scopeKey{}, sc)
}

func scopeFrom(ctx context.Context) *scope {
	sc, _ := ctx.Value(scopeKey{}).(*scope)
	return sc
}

// interval is a half-open busy period.
type interval struct{ start, end int64 }

// busy folds a set of request intervals into the three numbers that
// describe how an operation used the store: the time at least one
// request was outstanding (the operation was blocked on the store),
// the number of disjoint busy periods (dependent round trips: a fan of
// parallel requests counts once), and the widest overlap.
func busy(ivs []interval) (wait int64, trips int, fan int) {
	if len(ivs) == 0 {
		return 0, 0, 0
	}
	sorted := append([]interval(nil), ivs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].start < sorted[j].start })
	curStart, curEnd := sorted[0].start, sorted[0].end
	trips = 1
	for _, iv := range sorted[1:] {
		if iv.start > curEnd {
			wait += curEnd - curStart
			curStart, curEnd = iv.start, iv.end
			trips++
			continue
		}
		if iv.end > curEnd {
			curEnd = iv.end
		}
	}
	wait += curEnd - curStart

	// Widest overlap: sweep starts and ends in time order, ends first
	// on ties so back-to-back requests do not count as overlapping.
	type edge struct {
		at    int64
		delta int
	}
	edges := make([]edge, 0, 2*len(ivs))
	for _, iv := range ivs {
		edges = append(edges, edge{iv.start, 1}, edge{iv.end, -1})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].at != edges[j].at {
			return edges[i].at < edges[j].at
		}
		return edges[i].delta < edges[j].delta
	})
	open := 0
	for _, e := range edges {
		open += e.delta
		if open > fan {
			fan = open
		}
	}
	return wait, trips, fan
}

// selfTimes returns, per span id, the span's duration minus the part
// of it that its direct children cover.
func selfTimes(spans []span) map[int64]int64 {
	children := make(map[int64][]interval)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	out := make(map[int64]int64, len(spans))
	for _, s := range spans {
		covered, _, _ := busy(clip(children[s.ID], s.Start, s.End))
		out[s.ID] = (s.End - s.Start) - covered
	}
	return out
}

// clip restricts intervals to [lo, hi).
func clip(ivs []interval, lo, hi int64) []interval {
	var out []interval
	for _, iv := range ivs {
		if iv.start < lo {
			iv.start = lo
		}
		if iv.end > hi {
			iv.end = hi
		}
		if iv.end > iv.start {
			out = append(out, iv)
		}
	}
	return out
}
