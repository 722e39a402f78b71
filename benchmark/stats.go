package main

import (
	"bufio"
	"math"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// percentile returns the p-th percentile (0 < p <= 100) of the values
// by the nearest-rank rule; it sorts a copy. An empty input gives 0.
func percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(float64(len(sorted))*p/100)) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

func median(values []float64) float64 { return percentile(values, 50) }

// midmean is the mean of the values between the first and the third
// quartile: an estimate of the centre of a distribution that, unlike
// the nearest-rank median, does not jump when the median falls on a
// step. Store latency comes in steps of one round trip (30 ms), and
// where half a class's queries take one round trip more than the other
// half the median moves a whole step from run to run (66 or 94 ms for
// ingest_live's uuid class) while the midmean moves by the share of
// samples that changed side. Where latencies do not straddle a step the
// two agree.
func midmean(values []float64) float64 {
	if len(values) < 4 {
		return mean(values)
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	return mean(sorted[len(sorted)/4 : len(sorted)-len(sorted)/4])
}

func mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	var sum float64
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

// tails are the candidates for the reported tail, highest first, each
// with the share of samples beyond it in parts per thousand.
var tails = []struct {
	p      float64
	beyond int
}{{99.9, 1}, {99, 10}, {95, 50}, {90, 100}, {75, 250}}

// tailPercentile picks the highest percentile that still has at least
// ten samples beyond it; with fewer than forty samples it is the
// median.
func tailPercentile(samples int) float64 {
	for _, t := range tails {
		if samples*t.beyond >= 10*1000 {
			return t.p
		}
	}
	return 50
}

// pacer is the clock of an open loop: operation i is due at a time fixed
// before the run, whatever happened to the operations before it, and an
// operation's latency runs from its due time, so a stall is charged to
// every operation it delayed. The due times are either evenly spaced
// (interval) or given one by one (offsets).
type pacer struct {
	start    time.Time
	interval time.Duration
	offsets  []time.Duration
	maxLate  time.Duration
}

func (p *pacer) due(i int) time.Time {
	if p.offsets != nil {
		return p.start.Add(p.offsets[i])
	}
	return p.start.Add(time.Duration(i) * p.interval)
}

// randomArrivals draws n due times independently and uniformly over the
// window and sorts them: a Poisson stream conditioned on its count, which
// is what independent users make. Two evenly spaced streams lock phase (a
// query due 167 ms after every batch lands just before or just after the
// batch's commit, run after run, until the commit takes 10 ms longer and a
// third of the class changes side); random arrivals meet every phase of
// whatever else runs on a schedule.
func randomArrivals(rng *rand.Rand, n int, window time.Duration) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(rng.Int63n(int64(window)))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// wait sleeps until operation i is due and returns the due time. It
// records how late the generator itself woke.
func (p *pacer) wait(i int) time.Time {
	due := p.due(i)
	if d := time.Until(due); d > 0 {
		time.Sleep(d)
	}
	if late := time.Since(due); late > p.maxLate {
		p.maxLate = late
	}
	return due
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) > 0 {
				kb, _ := strconv.ParseFloat(fields[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// farFuture is the deadline of a loop that ends by count.
func farFuture() time.Time { return time.Now().Add(24 * time.Hour) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
