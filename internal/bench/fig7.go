package bench

import (
	"context"
	"fmt"
	"math"
	"time"

	"rottnest/internal/component"
	"rottnest/internal/tco"
)

// bfSecondsAtScale models a W-worker brute-force scan of the given
// data volume, mirroring the bruteforce package's cluster model
// (throughput-bound work plus spin-up plus straggler skew). The TCO
// harness uses it to extrapolate cpq_bf to paper-scale datasets,
// where scan time is throughput-bound, rather than scaling up the
// per-file overheads that dominate at laptop scale.
func bfSecondsAtScale(bytes float64, workers int) float64 {
	spin := 2.0 + 0.06*float64(workers)
	return bytes/(float64(workers)*200e6)*1.15 + spin
}

// AppMeasurement is everything measured for one application before
// TCO derivation.
type AppMeasurement struct {
	Name string
	// Measured at laptop scale.
	RawBytes       int64
	IndexBytes     int64
	IndexBuildTime time.Duration
	QueryLatency   time.Duration
	// PaperBytes is the paper-scale dataset volume extrapolated to.
	PaperBytes float64
	// Params are the derived TCO parameters at paper scale.
	Params tco.Params
}

// derive converts laptop-scale measurements into paper-scale TCO
// parameters (Section VII-D2 scale bridging: byte-derived parameters
// scale linearly; post-compaction query latency does not).
func derive(name string, rawBytes, indexBytes int64, buildTime, queryLatency time.Duration, paperBytes float64) AppMeasurement {
	indexRatio := float64(indexBytes) / float64(rawBytes)
	buildThroughput := float64(rawBytes) / buildTime.Seconds() // bytes/sec, one worker
	m := tco.Measurement{
		Pricing:                tco.DefaultPricing(),
		RawBytes:               int64(paperBytes),
		IndexBytes:             int64(paperBytes * indexRatio),
		CopyBytes:              int64(paperBytes * 1.1), // data + dedicated index
		IndexSeconds:           paperBytes / buildThroughput,
		RottnestQuerySeconds:   queryLatency.Seconds(),
		BruteForceWorkers:      8,
		BruteForceQuerySeconds: bfSecondsAtScale(paperBytes, 8),
		DedicatedReplicas:      3,
		ScaleFactor:            1,
	}
	return AppMeasurement{
		Name:           name,
		RawBytes:       rawBytes,
		IndexBytes:     indexBytes,
		IndexBuildTime: buildTime,
		QueryLatency:   queryLatency,
		PaperBytes:     paperBytes,
		Params:         m.Params(),
	}
}

// measureUUIDApp builds, indexes, compacts, and measures the UUID
// application.
func measureUUIDApp(opts Options) (*AppMeasurement, error) {
	ctx := context.Background()
	uw, err := newUUIDWorld(opts.Seed, opts.scaleInt(24, 8), opts.scaleInt(50000, 20000))
	if err != nil {
		return nil, err
	}
	buildTime, err := uw.indexAndCompact(ctx, "id", component.KindTrie)
	if err != nil {
		return nil, err
	}
	raw, err := uw.rawBytes(ctx)
	if err != nil {
		return nil, err
	}
	index, err := uw.indexBytes(ctx)
	if err != nil {
		return nil, err
	}
	uw.traced(opts.Trace, "fig7.uuid")
	lat, err := uw.searchLatency(ctx, uw.queries(opts.scaleInt(10, 4)))
	if err != nil {
		return nil, err
	}
	m := derive("uuid", raw, index, buildTime, lat, PaperUUIDBytes)
	return &m, nil
}

// measureTextApp builds, indexes, compacts, and measures the
// substring application.
func measureTextApp(opts Options) (*AppMeasurement, error) {
	ctx := context.Background()
	tw, err := newTextWorld(opts.Seed+1, opts.scaleInt(24, 8), opts.scaleInt(2000, 600))
	if err != nil {
		return nil, err
	}
	buildTime, err := tw.indexAndCompact(ctx, "body", component.KindFM)
	if err != nil {
		return nil, err
	}
	raw, err := tw.rawBytes(ctx)
	if err != nil {
		return nil, err
	}
	index, err := tw.indexBytes(ctx)
	if err != nil {
		return nil, err
	}
	tw.traced(opts.Trace, "fig7.text")
	lat, err := tw.searchLatency(ctx, tw.queries(opts.scaleInt(8, 3)))
	if err != nil {
		return nil, err
	}
	m := derive("substring", raw, index, buildTime, lat, PaperTextBytes)
	return &m, nil
}

// Fig7Result holds the phase diagrams of Figure 7.
type Fig7Result struct {
	Substring, UUID *AppMeasurement
	// Windows at 10 months (paper: substring ~8e2..4e6, uuid
	// ~3e2..1e7).
	SubstringLo, SubstringHi float64
	UUIDLo, UUIDHi           float64
	// Break-even operating times at 100 queries/day (paper: ~2 days
	// substring, ~1 day uuid).
	SubstringBreakEvenDays, UUIDBreakEvenDays float64
}

// Fig7PhaseDiagrams reproduces Figure 7: TCO phase diagrams for
// substring and UUID search. The expected shapes: Rottnest's winning
// region spans about four orders of magnitude of query volume at 10
// months; the substring boundary against brute force curves upward
// (FM indices rival the compressed data in size) while the UUID
// boundary stays flat (tries are tiny).
func Fig7PhaseDiagrams(opts Options) (*Fig7Result, error) {
	out := opts.out()
	sub, err := measureTextApp(opts)
	if err != nil {
		return nil, err
	}
	uid, err := measureUUIDApp(opts)
	if err != nil {
		return nil, err
	}
	res := &Fig7Result{Substring: sub, UUID: uid}

	for _, app := range []*AppMeasurement{sub, uid} {
		fmt.Fprintf(out, "# Fig 7: %s search\n", app.Name)
		fmt.Fprintf(out, "measured: raw %.1fMB, index %.1fMB (%.0f%% of raw), build %v, query %v\n",
			float64(app.RawBytes)/1e6, float64(app.IndexBytes)/1e6,
			100*float64(app.IndexBytes)/float64(app.RawBytes),
			app.IndexBuildTime.Round(time.Millisecond), app.QueryLatency.Round(time.Millisecond))
		p := app.Params
		fmt.Fprintf(out, "params @ paper scale: cpm_i=%.0f cpm_bf=%.2f cpq_bf=%.3f ic_r=%.0f cpm_r=%.2f cpq_r=%.6f\n",
			p.CPMCopyData, p.CPMBruteForce, p.CPQBruteForce, p.ICRottnest, p.CPMRottnest, p.CPQRottnest)
		d := tco.ComputeDiagram(p, 0.25, 100, 1, 1e10, 44)
		fmt.Fprint(out, d.Render())
		lo, hi, ok := p.RottnestWindow(10)
		if !ok {
			return nil, fmt.Errorf("bench: %s: rottnest never wins", app.Name)
		}
		fmt.Fprintf(out, "rottnest window at 10 months: %.1e .. %.1e queries (%.1f orders of magnitude)\n",
			lo, hi, math.Log10(hi/lo))
		be, _ := p.BreakEvenMonths(3000)
		fmt.Fprintf(out, "break-even at 100 queries/day: %.1f days\n\n", be*30)
		switch app.Name {
		case "substring":
			res.SubstringLo, res.SubstringHi = lo, hi
			res.SubstringBreakEvenDays = be * 30
		case "uuid":
			res.UUIDLo, res.UUIDHi = lo, hi
			res.UUIDBreakEvenDays = be * 30
		}
	}

	// The boundary-curvature observation: the substring boundary
	// against brute force (index ~ raw size) rises with months,
	// while the UUID boundary (tiny index) stays nearly flat.
	subLo5, _, okS5 := sub.Params.RottnestWindow(5)
	subLo50, _, okS50 := sub.Params.RottnestWindow(50)
	uidLo5, _, okU5 := uid.Params.RottnestWindow(5)
	uidLo50, _, okU50 := uid.Params.RottnestWindow(50)
	if okS5 && okS50 && okU5 && okU50 {
		fmt.Fprintf(out, "brute-force boundary growth 5->50 months: substring %.2fx, uuid %.2fx\n",
			subLo50/subLo5, uidLo50/uidLo5)
	}
	return res, nil
}
