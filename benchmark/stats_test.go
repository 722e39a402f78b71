package main

import (
	"math/rand"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	values := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6} // 1..10 shuffled
	cases := []struct{ p, want float64 }{
		{50, 5}, {90, 9}, {95, 10}, {100, 10}, {10, 1}, {1, 1},
	}
	for _, c := range cases {
		if got := percentile(values, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if values[0] != 5 {
		t.Error("percentile sorted its input in place")
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v", got)
	}
	if got := mean([]float64{1, 2, 6}); got != 3 {
		t.Errorf("mean = %v", got)
	}
}

// The midmean follows the median where latencies are spread and moves
// by the share of samples that changed side where they sit on two
// steps.
func TestMidmeanDoesNotJumpAcrossAStep(t *testing.T) {
	if got := midmean([]float64{8, 1, 3, 2, 100, 5, 4, 6}); got != 4.5 {
		t.Errorf("midmean of 1..6,8,100 = %v, want the mean of 3..6", got)
	}
	steps := func(low int) []float64 { // low samples at 65 ms, the rest at 95 ms, of 100
		v := make([]float64, 100)
		for i := range v {
			v[i] = 95
			if i < low {
				v[i] = 65
			}
		}
		return v
	}
	if a, b := median(steps(49)), median(steps(51)); a != 95 || b != 65 {
		t.Fatalf("medians %v and %v: the test wants a distribution whose median jumps", a, b)
	}
	a, b := midmean(steps(49)), midmean(steps(51))
	if a <= b || a-b > 2 {
		t.Errorf("midmeans %v and %v: want a small move in the same direction", a, b)
	}
}

// The reported tail is the highest percentile with at least ten
// samples beyond it.
func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		samples int
		want    float64
	}{
		{16, 50},   // 16 * 25% = 4 beyond p75
		{39, 50},   // 9.75 beyond p75
		{40, 75},   // exactly 10 beyond p75
		{99, 75},   // 9.9 beyond p90
		{100, 90},  // 10 beyond p90, 5 beyond p95
		{200, 95},  // 10 beyond p95
		{265, 95},  // search_coldstart at full size
		{999, 95},  // 9.99 beyond p99
		{1000, 99}, // 10 beyond p99
		{4600, 99}, // search_hot at full size
		{10000, 99.9},
	}
	for _, c := range cases {
		if got := tailPercentile(c.samples); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.samples, got, c.want)
		}
	}
}

// An open loop's operations are due on a fixed schedule whatever
// happened before them, and the generator's own lateness is recorded.
func TestPacerDueTimesIgnoreStalls(t *testing.T) {
	start := time.Now()
	p := &pacer{start: start, interval: 20 * time.Millisecond}
	for i := 0; i < 4; i++ {
		if got, want := p.due(i), start.Add(time.Duration(i)*20*time.Millisecond); !got.Equal(want) {
			t.Fatalf("due(%d) = %v, want %v", i, got, want)
		}
	}
	if due := p.wait(1); !due.Equal(start.Add(20 * time.Millisecond)) {
		t.Errorf("wait(1) returned %v", due.Sub(start))
	}
	if since := time.Since(start); since < 20*time.Millisecond {
		t.Errorf("wait(1) returned after %v, before the operation was due", since)
	}
	// A stall: the caller is busy for three intervals. The next
	// operations are still due at their scheduled times, so they start
	// at once and their latency, measured from due, includes the stall.
	time.Sleep(60 * time.Millisecond)
	before := time.Now()
	due := p.wait(2)
	if waited := time.Since(before); waited > 10*time.Millisecond {
		t.Errorf("wait(2) slept %v after a stall", waited)
	}
	if !due.Equal(start.Add(40 * time.Millisecond)) {
		t.Errorf("wait(2) due at %v", due.Sub(start))
	}
	if lat := time.Since(due); lat < 40*time.Millisecond {
		t.Errorf("latency from due %v does not include the stall", lat)
	}
	if p.maxLate < 40*time.Millisecond {
		t.Errorf("generator lateness %v, want at least the stall beyond the due time", p.maxLate)
	}
}

// Random arrivals are a fixed number of due times inside the window, in
// order, the same for the same seed, and not evenly spaced.
func TestRandomArrivals(t *testing.T) {
	window := 10 * time.Second
	a := randomArrivals(rand.New(rand.NewSource(3)), 400, window)
	b := randomArrivals(rand.New(rand.NewSource(3)), 400, window)
	if len(a) != 400 {
		t.Fatalf("%d arrivals, want 400", len(a))
	}
	gaps := make(map[time.Duration]bool)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d differs between two draws of one seed: %v, %v", i, a[i], b[i])
		}
		if a[i] < 0 || a[i] >= window {
			t.Errorf("arrival %d at %v is outside the window", i, a[i])
		}
		if i > 0 {
			if a[i] < a[i-1] {
				t.Errorf("arrival %d at %v comes before arrival %d at %v", i, a[i], i-1, a[i-1])
			}
			gaps[a[i]-a[i-1]] = true
		}
	}
	if len(gaps) < 300 {
		t.Errorf("only %d distinct gaps between 400 arrivals: the stream is close to periodic", len(gaps))
	}
	p := &pacer{start: time.Now(), offsets: a}
	if got, want := p.due(7), p.start.Add(a[7]); !got.Equal(want) {
		t.Errorf("due(7) = %v, want %v", got, want)
	}
}

func TestPeakRSSIsPositive(t *testing.T) {
	if mb := peakRSSMB(); mb <= 0 {
		t.Errorf("peak RSS %v MB", mb)
	}
}
