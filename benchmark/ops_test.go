package main

import (
	"testing"
	"time"
)

// A neighbour that slows two fifths of the window moves the whole-window
// statistics and the median part, but not the quiet quartile of the
// parts; a second in which nothing completed has no latency at all and
// must not pass for a fast one.
func TestWindowStatisticsReportTheQuietQuartile(t *testing.T) {
	start := time.Now()
	w := &window{start: start, elapsed: 10 * time.Second}
	q := &query{class: classUUID}
	for sec := 0; sec < 10; sec++ {
		n, lat := 400, time.Millisecond
		switch sec {
		case 2, 3, 4, 5, 6: // the neighbour: half the rate, twice the latency
			n, lat = 200, 2*time.Millisecond
		case 8: // a stall: nothing completes
			n = 0
		}
		for i := 0; i < n; i++ {
			end := start.Add(time.Duration(sec)*time.Second + time.Duration(i)*time.Second/time.Duration(n))
			w.samples = append(w.samples, &sample{q: q, latency: lat, end: end})
		}
	}
	parts := w.parts()
	if len(parts) != 10 {
		t.Fatalf("window cut into %d parts, want 10", len(parts))
	}
	for i, want := range []int{400, 400, 200, 200, 200, 200, 200, 400, 0, 400} {
		if len(parts[i]) != want {
			t.Fatalf("part %d holds %d samples, want %d", i, len(parts[i]), want)
		}
	}
	if whole := median(latencies(w.samples, classUUID)); whole != 1 {
		t.Fatalf("whole-window median %v ms: the test wants the neighbour to leave it alone", whole)
	}
	if medianPart := percentile([]float64{1, 1, 2, 2, 2, 2, 2, 1, 1}, 50); medianPart != 2 {
		t.Fatalf("median part %v ms: the test wants the neighbour to move it", medianPart)
	}
	e2e := make(map[string]float64)
	w.queryMetrics(e2e, 0)
	if e2e["uuid_p50_ms"] != 1 {
		t.Errorf("uuid_p50_ms %v, want 1: the quiet quartile of the parts", e2e["uuid_p50_ms"])
	}
	if e2e["query_p95_ms"] != 1 {
		t.Errorf("query_p95_ms %v, want 1", e2e["query_p95_ms"])
	}
	if e2e["query_qps"] != 400 {
		t.Errorf("query_qps %v, want 400 (the whole-window rate is 260)", e2e["query_qps"])
	}
}

// A window with too few samples for parts of a second is not cut: its
// statistics are those of the whole window.
func TestSparseWindowIsNotCut(t *testing.T) {
	start := time.Now()
	w := &window{start: start, elapsed: 10 * time.Second}
	q := &query{class: classUUID}
	for i := 0; i < 100; i++ {
		w.samples = append(w.samples, &sample{q: q, latency: time.Duration(i+1) * time.Millisecond, end: start.Add(time.Duration(i) * 100 * time.Millisecond)})
	}
	if n := len(w.parts()); n != 1 {
		t.Fatalf("sparse window cut into %d parts", n)
	}
	e2e := make(map[string]float64)
	w.queryMetrics(e2e, 0)
	if e2e["query_qps"] != 10 || e2e["query_p95_ms"] != 95 || e2e["uuid_p50_ms"] != 50.5 {
		t.Errorf("qps %v p95 %v uuid %v, want 10, 95, 50.5", e2e["query_qps"], e2e["query_p95_ms"], e2e["uuid_p50_ms"])
	}
}
