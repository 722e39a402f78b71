// Package adaptive closes the loop between serving and maintenance:
// a decayed heat ledger taps the query stream (core.HeatObserver),
// a policy shapes the ingest scheduler's index job by heat (hot files
// of a partly hot backlog first) and drives progressive IVF-PQ
// refinement, and a TCO autopilot feeds live measurements into the
// paper's §VII phase diagram to decide, per column, whether indexing
// pays off at all.
package adaptive

import (
	"sort"
	"sync"
	"time"

	"rottnest/internal/core"
	"rottnest/internal/obs"
	"rottnest/internal/simtime"
)

// heatScale is the fixed-point weight one observation adds to a cell.
// Decay halves integer heat per elapsed half-life (a right shift), so
// the scale bounds how many half-lives a single observation stays
// visible: 20 shifts to zero.
const heatScale = 1 << 20

// Key addresses one heat cell: a column and one of its data files.
type Key struct {
	Column string
	Path   string
}

// LedgerOptions configure a Ledger.
type LedgerOptions struct {
	// HalfLife is the decay half-life of recorded heat. Defaults to
	// 10 minutes.
	HalfLife time.Duration
	// MaxKeys bounds the number of live cells; eviction keeps the
	// hottest. Defaults to 4096.
	MaxKeys int
	// MaxVectors bounds the per-column ring of retained probe
	// embeddings. Defaults to 64.
	MaxVectors int
	// Clock supplies time; defaults to the real clock.
	Clock simtime.Clock
}

func (o LedgerOptions) withDefaults() LedgerOptions {
	if o.HalfLife <= 0 {
		o.HalfLife = 10 * time.Minute
	}
	if o.MaxKeys <= 0 {
		o.MaxKeys = 4096
	}
	if o.MaxVectors <= 0 {
		o.MaxVectors = 64
	}
	if o.Clock == nil {
		o.Clock = simtime.RealClock{}
	}
	return o
}

// cell is one (column, path) heat accumulator. Heat decays by integer
// halving once per elapsed half-life period: updates within the same
// period are plain commutative additions, so any permutation of
// same-period observations yields bit-identical state — the property
// FuzzHeatLedger pins.
type cell struct {
	heat   uint64
	period int64
}

func (c *cell) decayTo(p int64) {
	if d := p - c.period; d > 0 {
		if d >= 64 {
			c.heat = 0
		} else {
			c.heat >>= uint(d)
		}
	}
	c.period = p
}

// colStat aggregates per-column query traffic with the same decay.
type colStat struct {
	queries uint64 // heatScale per query, decayed
	latency uint64 // nanoseconds summed per query, decayed
	period  int64

	ever       bool        // a query has referenced the column at least once
	probes     [][]float32 // ring of recent vector-query embeddings
	probeNext  int
	probesSeen uint64 // monotonic, never decayed
	nprobe     int    // most recent probe width
}

func (s *colStat) decayTo(p int64) {
	if d := p - s.period; d > 0 {
		if d >= 64 {
			s.queries, s.latency = 0, 0
		} else {
			s.queries >>= uint(d)
			s.latency >>= uint(d)
		}
	}
	s.period = p
}

// Ledger is the decayed per-(column, file) heat ledger fed by the
// query stream. It implements core.HeatObserver; install it on the
// serving client with SetHeatObserver and hand it to a Policy.
type Ledger struct {
	opts  LedgerOptions
	epoch time.Time

	mu    sync.Mutex
	cells map[Key]*cell
	cols  map[string]*colStat

	reg          *obs.Registry
	observations *obs.Counter
	evictions    *obs.Counter
	keysGauge    *obs.Gauge
	totalGauge   *obs.Gauge

	// evictCheck, when set (tests), receives the minimum kept and
	// maximum dropped heat of each eviction pass.
	evictCheck func(minKept, maxDropped uint64)
}

// NewLedger returns an empty ledger.
func NewLedger(opts LedgerOptions) *Ledger {
	opts = opts.withDefaults()
	reg := obs.NewRegistry()
	return &Ledger{
		opts:         opts,
		epoch:        opts.Clock.Now(),
		cells:        make(map[Key]*cell),
		cols:         make(map[string]*colStat),
		reg:          reg,
		observations: reg.Counter("adaptive.observations"),
		evictions:    reg.Counter("adaptive.evictions"),
		keysGauge:    reg.Gauge("adaptive.heat_keys"),
		totalGauge:   reg.Gauge("adaptive.heat_total"),
	}
}

// Registry exposes the ledger's metrics for Client.AttachRegistry.
func (l *Ledger) Registry() *obs.Registry { return l.reg }

// now returns the current decay period.
func (l *Ledger) now() int64 {
	return int64(l.opts.Clock.Now().Sub(l.epoch) / l.opts.HalfLife)
}

// ObserveSearch implements core.HeatObserver: every file a query's
// plan touched gains one observation of heat, and the column's query
// count and latency aggregate updates.
func (l *Ledger) ObserveSearch(sh core.SearchHeat) {
	l.mu.Lock()
	defer l.mu.Unlock()
	p := l.now()
	cols := make(map[string]bool, len(sh.Units))
	for _, u := range sh.Units {
		cols[u.Column] = true
		for _, f := range u.Files {
			l.record(Key{Column: u.Column, Path: f.Path}, p, heatScale)
		}
	}
	lat := sh.Latency
	if lat < 0 {
		lat = 0
	}
	for col := range cols {
		s := l.col(col)
		s.decayTo(p)
		s.ever = true
		s.queries += heatScale
		s.latency += uint64(lat)
	}
	l.observations.Inc()
	l.evictLocked(p)
	l.publishLocked(p)
}

// ObserveVectorQuery implements core.HeatObserver: retain the query
// embedding (copied) for refine-cell selection.
func (l *Ledger) ObserveVectorQuery(column string, vec []float32, nprobe int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.col(column)
	s.ever = true
	v := append([]float32(nil), vec...)
	if len(s.probes) < l.opts.MaxVectors {
		s.probes = append(s.probes, v)
	} else {
		s.probes[s.probeNext] = v
	}
	s.probeNext = (s.probeNext + 1) % l.opts.MaxVectors
	s.probesSeen++
	s.nprobe = nprobe
}

// Record adds weight observations of heat to (column, path) directly —
// the taps go through ObserveSearch; this is for tests and replays.
func (l *Ledger) Record(column, path string, weight uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	p := l.now()
	l.record(Key{Column: column, Path: path}, p, weight*heatScale)
	s := l.col(column)
	s.ever = true
	l.observations.Inc()
	l.evictLocked(p)
	l.publishLocked(p)
}

func (l *Ledger) col(name string) *colStat {
	s := l.cols[name]
	if s == nil {
		s = &colStat{}
		l.cols[name] = s
	}
	return s
}

func (l *Ledger) record(k Key, p int64, w uint64) {
	c := l.cells[k]
	if c == nil {
		c = &cell{period: p}
		l.cells[k] = c
	}
	c.decayTo(p)
	c.heat += w
}

// evictLocked drops the coldest cells once the ledger exceeds
// MaxKeys, keeping the hottest (ties broken by key, ascending, so the
// survivor set is deterministic).
func (l *Ledger) evictLocked(p int64) {
	if len(l.cells) <= l.opts.MaxKeys {
		return
	}
	type kc struct {
		k Key
		h uint64
	}
	all := make([]kc, 0, len(l.cells))
	for k, c := range l.cells {
		c.decayTo(p)
		all = append(all, kc{k: k, h: c.heat})
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].h != all[b].h {
			return all[a].h > all[b].h
		}
		if all[a].k.Column != all[b].k.Column {
			return all[a].k.Column < all[b].k.Column
		}
		return all[a].k.Path < all[b].k.Path
	})
	var maxDropped uint64
	for _, e := range all[l.opts.MaxKeys:] {
		if e.h > maxDropped {
			maxDropped = e.h
		}
		delete(l.cells, e.k)
		l.evictions.Inc()
	}
	if l.evictCheck != nil {
		l.evictCheck(all[l.opts.MaxKeys-1].h, maxDropped)
	}
}

func (l *Ledger) publishLocked(p int64) {
	l.keysGauge.Set(int64(len(l.cells)))
	var total uint64
	for _, c := range l.cells {
		c.decayTo(p)
		total += c.heat
	}
	l.totalGauge.Set(int64(total / heatScale))
}

// Heat returns the decayed heat of (column, path) in observation
// units scaled by heatScale (0 for unknown cells).
func (l *Ledger) Heat(column, path string) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	c := l.cells[Key{Column: column, Path: path}]
	if c == nil {
		return 0
	}
	c.decayTo(l.now())
	return c.heat
}

// Total returns the ledger-wide decayed heat in whole observations.
func (l *Ledger) Total() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	p := l.now()
	var total uint64
	for _, c := range l.cells {
		c.decayTo(p)
		total += c.heat
	}
	return total / heatScale
}

// Len returns the number of live cells.
func (l *Ledger) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.cells)
}

// HeatEntry is one cell of a Snapshot.
type HeatEntry struct {
	Key  Key
	Heat uint64
}

// Snapshot returns every live cell ordered by heat (descending) with
// a deterministic key tie-break.
func (l *Ledger) Snapshot() []HeatEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	p := l.now()
	out := make([]HeatEntry, 0, len(l.cells))
	for k, c := range l.cells {
		c.decayTo(p)
		out = append(out, HeatEntry{Key: k, Heat: c.heat})
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Heat != out[b].Heat {
			return out[a].Heat > out[b].Heat
		}
		if out[a].Key.Column != out[b].Key.Column {
			return out[a].Key.Column < out[b].Key.Column
		}
		return out[a].Key.Path < out[b].Key.Path
	})
	return out
}

// EverQueried reports whether any query has ever referenced the
// column. Unlike heat this never decays: the autopilot uses it to
// demote columns no query has touched, and a single query permanently
// clears the flag.
func (l *Ledger) EverQueried(column string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.cols[column]
	return s != nil && s.ever
}

// QueryRate estimates the column's sustained queries per second from
// its decayed query count: a steady rate r accumulates ~r·HalfLife/ln2
// decayed observations, so the inverse maps the count back to a rate.
func (l *Ledger) QueryRate(column string) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.cols[column]
	if s == nil {
		return 0
	}
	s.decayTo(l.now())
	const ln2 = 0.6931471805599453
	return float64(s.queries) / heatScale * ln2 / l.opts.HalfLife.Seconds()
}

// MeanLatency returns the decayed mean query latency of the column
// (0 with no recorded queries).
func (l *Ledger) MeanLatency(column string) time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.cols[column]
	if s == nil {
		return 0
	}
	s.decayTo(l.now())
	if s.queries == 0 {
		return 0
	}
	return time.Duration(float64(s.latency) / (float64(s.queries) / heatScale))
}

// Probes returns a copy of the column's retained probe embeddings,
// the probe width the most recent query used, and the monotonic count
// of vector queries observed for the column.
func (l *Ledger) Probes(column string) (vecs [][]float32, nprobe int, seen uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.cols[column]
	if s == nil {
		return nil, 0, 0
	}
	vecs = make([][]float32, len(s.probes))
	copy(vecs, s.probes)
	return vecs, s.nprobe, s.probesSeen
}

var _ core.HeatObserver = (*Ledger)(nil)
