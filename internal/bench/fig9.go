package bench

import (
	"context"
	"fmt"
	"math"
	"time"

	"rottnest/internal/component"
	"rottnest/internal/tco"
)

// RecallPoint is one tuned (nprobe, refine) operating point.
type RecallPoint struct {
	Target  float64
	Reached float64
	NProbe  int
	Refine  int
	Latency time.Duration
	Params  tco.Params
	// WindowLo/Hi bound Rottnest's winning region at 10 months.
	WindowLo, WindowHi float64
}

// Fig9Result holds the recall-target sweep of Figure 9.
type Fig9Result struct {
	Points []RecallPoint
	// LatencyRatio is the worst/best latency across targets (the
	// paper reports ~1.35x between recall 0.97 and 0.87).
	LatencyRatio float64
	// WindowShift is the max log10 shift of the 10-month window
	// boundaries across targets (the paper: barely moves).
	WindowShift float64
}

// Fig9VectorPhases reproduces Figure 9: phase diagrams for vector
// search at increasing recall targets. Higher recall costs more
// latency (larger nprobe/refine), but because cpq_r is orders of
// magnitude below cpm_i, the Rottnest-optimal region on the log-log
// plot barely moves — building the index stays the right call as
// recall requirements change.
func Fig9VectorPhases(opts Options) (*Fig9Result, error) {
	ctx := context.Background()
	out := opts.out()
	vw, err := newVectorWorldSpread(opts.Seed+3, opts.scaleInt(60000, 15000), 32, opts.scaleInt(25, 10), 512, 0.8)
	if err != nil {
		return nil, err
	}
	buildTime, err := vw.indexAndCompact(ctx, "emb", component.KindIVFPQ)
	if err != nil {
		return nil, err
	}
	raw, err := vw.rawBytes(ctx)
	if err != nil {
		return nil, err
	}
	index, err := vw.indexBytes(ctx)
	if err != nil {
		return nil, err
	}

	// Sweep (nprobe, refine) from cheap to thorough and pick the
	// first configuration reaching each recall target.
	type cfg struct{ nprobe, refine int }
	sweep := []cfg{{1, 20}, {2, 30}, {3, 40}, {4, 60}, {6, 80}, {8, 120}, {12, 160}, {16, 240}, {24, 320}, {32, 480}}
	type sweepPoint struct {
		cfg     cfg
		recall  float64
		latency time.Duration
	}
	var points []sweepPoint
	for _, c := range sweep {
		vw.traced(opts.Trace, fmt.Sprintf("fig9.vector.nprobe%d", c.nprobe))
		recall, latency, err := vw.recallAt(ctx, 10, c.nprobe, c.refine)
		if err != nil {
			return nil, err
		}
		points = append(points, sweepPoint{cfg: c, recall: recall, latency: latency})
	}

	res := &Fig9Result{}
	fmt.Fprintln(out, "# Fig 9: vector search phase diagrams per recall target")
	fmt.Fprintf(out, "measured: raw %.1fMB, index %.1fMB, build %v\n",
		float64(raw)/1e6, float64(index)/1e6, buildTime.Round(time.Millisecond))
	for _, target := range []float64{0.87, 0.92, 0.97} {
		chosen := points[len(points)-1]
		for _, p := range points {
			if p.recall >= target {
				chosen = p
				break
			}
		}
		m := derive("vector", raw, index, buildTime, chosen.latency, PaperVectorBytes)
		p := m.Params
		lo, hi, ok := p.RottnestWindow(10)
		if !ok {
			return nil, fmt.Errorf("bench: vector recall %.2f: rottnest never wins", target)
		}
		rp := RecallPoint{
			Target: target, Reached: chosen.recall,
			NProbe: chosen.cfg.nprobe, Refine: chosen.cfg.refine,
			Latency: chosen.latency, Params: p,
			WindowLo: lo, WindowHi: hi,
		}
		res.Points = append(res.Points, rp)
		fmt.Fprintf(out, "\nrecall target %.2f: reached %.3f at nprobe=%d refine=%d, latency %v\n",
			target, chosen.recall, chosen.cfg.nprobe, chosen.cfg.refine, chosen.latency.Round(time.Millisecond))
		d := tco.ComputeDiagram(p, 0.25, 100, 1, 1e10, 36)
		fmt.Fprint(out, d.Render())
		fmt.Fprintf(out, "rottnest window at 10 months: %.1e .. %.1e (%.1f orders of magnitude)\n",
			lo, hi, math.Log10(hi/lo))
		be, _ := p.BreakEvenMonths(3000)
		fmt.Fprintf(out, "break-even at 100 queries/day: %.1f days\n", be*30)
	}

	// Cross-target comparisons.
	minLat, maxLat := res.Points[0].Latency, res.Points[0].Latency
	for _, p := range res.Points {
		if p.Latency < minLat {
			minLat = p.Latency
		}
		if p.Latency > maxLat {
			maxLat = p.Latency
		}
	}
	res.LatencyRatio = float64(maxLat) / float64(minLat)
	for i := 1; i < len(res.Points); i++ {
		shift := math.Abs(math.Log10(res.Points[i].WindowHi / res.Points[0].WindowHi))
		if s := math.Abs(math.Log10(res.Points[i].WindowLo / res.Points[0].WindowLo)); s > shift {
			shift = s
		}
		if shift > res.WindowShift {
			res.WindowShift = shift
		}
	}
	fmt.Fprintf(out, "\nlatency ratio across targets: %.2fx; max window boundary shift: %.2f orders of magnitude\n",
		res.LatencyRatio, res.WindowShift)
	return res, nil
}
