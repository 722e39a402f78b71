package adaptive

import (
	"sync"
	"time"

	"rottnest/internal/core"
	"rottnest/internal/lake"
	"rottnest/internal/tco"
)

// Decision is the autopilot's per-column verdict, derived from the
// paper's §VII phase diagram evaluated at the column's live operating
// point.
type Decision int

const (
	// DecideIndex keeps the column on the lazy-indexing path
	// (Rottnest or copying the data wins the phase diagram, or no
	// verdict yet).
	DecideIndex Decision = iota
	// DecideScan demotes the column to the scan path: index jobs are
	// skipped and existing entries are dropped and flagged for
	// vacuum. Never-queried columns always land here.
	DecideScan
)

// String implements fmt.Stringer.
func (d Decision) String() string {
	if d == DecideScan {
		return "scan"
	}
	return "index"
}

// horizonMonths is the operating horizon the phase diagram is
// evaluated over.
const horizonMonths = 1

// indexBytesPerSec models one worker's index-build throughput.
const indexBytesPerSec = 64 << 20

// AutopilotOptions configure an Autopilot.
type AutopilotOptions struct {
	// Pricing is the cost model; defaults to tco.DefaultPricing().
	Pricing tco.Pricing
	// ScanBytesPerSec models one worker's brute-force scan
	// throughput. Defaults to 1 GiB/s.
	ScanBytesPerSec float64
	// BruteForceWorkers is the scan cluster size. Defaults to 8.
	BruteForceWorkers int
	// RefreshEvery rate-limits Refresh; calls inside the window are
	// no-ops. Defaults to 30s. Negative refreshes on every call.
	RefreshEvery time.Duration
	// ScaleFactor linearly extrapolates the measured byte- and
	// build-derived quantities to deployment scale before the phase
	// diagram is evaluated, exactly as the paper's Section VII-D2
	// bridges laptop measurements to dataset scale. Defaults to 1
	// (decide at the measured size).
	ScaleFactor float64
}

func (o AutopilotOptions) withDefaults() AutopilotOptions {
	if o.Pricing == (tco.Pricing{}) {
		o.Pricing = tco.DefaultPricing()
	}
	if o.ScanBytesPerSec <= 0 {
		o.ScanBytesPerSec = 1 << 30
	}
	if o.BruteForceWorkers <= 0 {
		o.BruteForceWorkers = 8
	}
	if o.RefreshEvery == 0 {
		o.RefreshEvery = 30 * time.Second
	}
	return o
}

// Autopilot turns tco's offline phase diagram into a live per-column
// policy: each refresh feeds measured sizes and the ledger's observed
// query rates and latencies into tco.Measurement, asks
// tco.Params.Best which approach wins at the column's operating
// point, and exposes the verdict to the scheduler policy.
type Autopilot struct {
	opts   AutopilotOptions
	ledger *Ledger
	client *core.Client
	specs  []core.IndexSpec

	mu          sync.Mutex
	decisions   map[string]Decision
	lastRefresh time.Time
	refreshed   bool
}

// NewAutopilot returns an autopilot deciding over the given specs'
// columns, reading search latency from the client's metrics and query
// traffic from the ledger; sizes come with each Refresh.
func NewAutopilot(client *core.Client, ledger *Ledger, specs []core.IndexSpec, opts AutopilotOptions) *Autopilot {
	return &Autopilot{
		opts:      opts.withDefaults(),
		ledger:    ledger,
		client:    client,
		specs:     append([]core.IndexSpec(nil), specs...),
		decisions: make(map[string]Decision),
	}
}

// Decision returns the column's current verdict. Columns without a
// verdict (before the first refresh) default to DecideIndex, so the
// autopilot can only demote from observed evidence.
func (a *Autopilot) Decision(column string) Decision {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.refreshed {
		return DecideIndex
	}
	return a.decisions[column]
}

// Refresh re-evaluates every column from one observation — the time,
// and the snapshot and index statuses read at it (core.StatusOf) —
// rate-limited by RefreshEvery. It issues no request.
func (a *Autopilot) Refresh(now time.Time, snap *lake.Snapshot, statuses []core.IndexStatus) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.refreshed && a.opts.RefreshEvery > 0 && now.Sub(a.lastRefresh) < a.opts.RefreshEvery {
		return
	}
	var rawBytes int64
	for _, f := range snap.Files {
		rawBytes += f.Size
	}
	indexBytes := make(map[string]int64)
	for _, st := range statuses {
		indexBytes[st.Column] += st.IndexBytes
	}
	// Global mean search latency from the client's own histogram, the
	// fallback when a column has no per-column latency yet.
	globalLat := time.Duration(a.client.Metrics().Histograms["search.latency_ns"].Mean())

	decisions := make(map[string]Decision, len(a.specs))
	for _, spec := range a.specs {
		col := spec.Column
		if !a.ledger.EverQueried(col) {
			// No query has ever touched the column: indexing it buys
			// nothing. Skip the jobs, flag existing entries for vacuum.
			decisions[col] = DecideScan
			continue
		}
		lat := a.ledger.MeanLatency(col)
		if lat <= 0 {
			lat = globalLat
		}
		if lat <= 0 {
			lat = 100 * time.Millisecond
		}
		ib := indexBytes[col]
		if ib == 0 {
			ib = rawBytes / 10 // pre-build estimate
		}
		m := tco.Measurement{
			Pricing:                a.opts.Pricing,
			RawBytes:               rawBytes,
			IndexBytes:             ib,
			CopyBytes:              rawBytes + ib,
			IndexSeconds:           float64(rawBytes) / indexBytesPerSec,
			RottnestQuerySeconds:   lat.Seconds(),
			BruteForceWorkers:      a.opts.BruteForceWorkers,
			BruteForceQuerySeconds: float64(rawBytes) / a.opts.ScanBytesPerSec / float64(a.opts.BruteForceWorkers),
			ScaleFactor:            a.opts.ScaleFactor,
		}
		const secondsPerMonth = 730 * 3600
		queries := a.ledger.QueryRate(col) * secondsPerMonth * horizonMonths
		if m.Params().Best(horizonMonths, queries) == tco.BruteForce {
			decisions[col] = DecideScan
		}
	}
	a.decisions = decisions
	a.lastRefresh = now
	a.refreshed = true
}
