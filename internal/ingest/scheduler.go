package ingest

import (
	"context"
	"errors"
	"sync"
	"time"

	"rottnest/internal/adaptive"
	"rottnest/internal/core"
	"rottnest/internal/lake"
	"rottnest/internal/meta"
	"rottnest/internal/objectstore"
	"rottnest/internal/obs"
	"rottnest/internal/simtime"
)

// SchedulerOptions configure a Scheduler.
type SchedulerOptions struct {
	// Client runs the index/compact/vacuum jobs. Nil means a new
	// client is built from Config over the scheduler's table.
	Client *core.Client
	// Config builds the client when Client is nil.
	Config core.Config
	// Writer, if set, is the ingest writer to pressure: the scheduler
	// pauses it when unindexed rows pass PauseAboveRows and resumes
	// it below ResumeBelowRows, and its group commits feed the
	// freshness ledger.
	Writer *Writer
	// Specs name the indexes the scheduler keeps fresh. A data file
	// counts as searchable-by-index only once every spec covers it.
	Specs []core.IndexSpec
	// RequestsPerSec is the maintenance budget in object-store
	// requests per (virtual) second. It defaults to 10% of the
	// simulated store's per-prefix GET ceiling
	// (objectstore.DefaultS3Model) — the headroom the throttle model
	// leaves once foreground traffic is served. The scheduler further
	// yields to observed foreground traffic, never dropping below 10%
	// of the configured budget.
	RequestsPerSec float64
	// PauseAboveRows pauses the writer once this many acked rows are
	// not yet index-covered. Default 1<<16. ResumeBelowRows lifts the
	// pause; default PauseAboveRows/2.
	PauseAboveRows  int64
	ResumeBelowRows int64
	// Policy tunes compact/vacuum, as in Client.Maintain.
	Policy core.MaintainPolicy
	// Adaptive, if set, reorders the index backlog by query heat,
	// schedules progressive IVF-PQ refinement, and demotes columns
	// the TCO autopilot rules out (see internal/adaptive). Nil keeps
	// the static largest-gap policy.
	Adaptive adaptive.SchedulerPolicy
	// Clock drives the budget refill and lag measurement. Nil means
	// the real wall clock.
	Clock simtime.Clock
	// TickEvery paces Run's periodic wakeups: a real-time ticker that
	// refills the budget, applies the writer's age bound, and drains
	// whatever backlog is left once commits go quiet or the budget
	// ran dry. Default 100ms. Virtual-clock drivers bypass Run and
	// call Step/Tick directly.
	TickEvery time.Duration
	// OnCovered, if set, runs when a committed file becomes covered
	// by every spec, with its exact searchable lag. Benchmarks use it
	// to collect precise percentiles beside the bucketed histogram.
	// It is called without the scheduler's lock held, so it may call
	// back into the scheduler (or writer) freely.
	OnCovered func(path string, rows int64, lag time.Duration)
}

func (o SchedulerOptions) withDefaults() SchedulerOptions {
	if o.RequestsPerSec <= 0 {
		o.RequestsPerSec = objectstore.DefaultS3Model().MaxGetRPSPerPrefix / 10
	}
	if o.PauseAboveRows <= 0 {
		o.PauseAboveRows = 1 << 16
	}
	if o.ResumeBelowRows <= 0 {
		o.ResumeBelowRows = o.PauseAboveRows / 2
	}
	if o.TickEvery <= 0 {
		o.TickEvery = 100 * time.Millisecond
	}
	if o.Clock == nil {
		o.Clock = simtime.RealClock{}
	}
	return o
}

// indexEvery is the least time Run leaves between the starts of two
// index jobs of one spec: files committed in between ride the next job,
// so a steady stream makes one index file per spec per indexEvery
// however fast a job runs. Without it the daemon indexes as often as
// its planning is quick, and every query opens that many more, smaller
// index files — the wall-clock ingest benchmark's opened IVF-PQ indexes
// stopped fitting its decoded-object cache when planning lost its log
// replays (DESIGN.md §20). Step and Quiesce do not wait for it.
const indexEvery = 1500 * time.Millisecond

// ledgerEntry tracks one committed-but-not-yet-covered data file.
type ledgerEntry struct {
	rows    int64
	ackedAt time.Time
	// version is the log version the file became visible at: a snapshot
	// older than that says nothing about the file.
	version int64
}

// Scheduler is the background maintenance daemon: it watches commit
// hooks and index coverage, schedules index/compact/vacuum jobs by
// priority under a requests/sec budget, yields to foreground traffic,
// and pushes back on the ingest writer when unindexed rows outrun
// indexing.
//
// Backpressure state machine:
//
//	flowing --(unindexed > PauseAboveRows)--> paused
//	paused  --(unindexed < ResumeBelowRows)--> flowing
//
// In paused state the writer blocks producers while its committer
// keeps draining, so the unindexed backlog is bounded by the pending
// budget plus the pause watermark.
type Scheduler struct {
	cli   *core.Client
	opts  SchedulerOptions
	clock simtime.Clock
	reg   *obs.Registry

	commits chan struct{} // table-commit wakeups for Run

	mu         sync.Mutex
	ledger     map[string]ledgerEntry
	stalled    map[int]int64     // spec index → snapshot version it stalled at
	indexedAt  map[int]time.Time // spec index → start of its last index job
	tokens     float64
	lastRefill time.Time
	lastSeen   int64 // store requests observed at last refill
	ownCost    int64 // store requests this scheduler's jobs issued

	lagHist       *obs.Histogram
	rowsUnindexed *obs.Gauge
	steps         *obs.Counter
	jobsIndex     *obs.Counter
	jobsCompact   *obs.Counter
	jobsVacuum    *obs.Counter
	jobsRefine    *obs.Counter
	jobsDemote    *obs.Counter
	pauses        *obs.Counter
	budgetWaits   *obs.Counter
	budgetTokens  *obs.Gauge
	jobRequests   *obs.Counter
}

// NewScheduler returns a scheduler over the table. It registers a
// commit hook for wakeups and, when opts.Writer is set, subscribes to
// its group commits for the freshness ledger.
func NewScheduler(table *lake.Table, opts SchedulerOptions) *Scheduler {
	opts = opts.withDefaults()
	cli := opts.Client
	if cli == nil {
		cfg := opts.Config
		if cfg.Clock == nil {
			cfg.Clock = opts.Clock
		}
		cli = core.NewClient(table, cfg)
	}
	reg := obs.NewRegistry()
	s := &Scheduler{
		cli:       cli,
		opts:      opts,
		clock:     opts.Clock,
		reg:       reg,
		commits:   make(chan struct{}, 1),
		ledger:    make(map[string]ledgerEntry),
		stalled:   make(map[int]int64),
		indexedAt: make(map[int]time.Time),
		tokens:    opts.RequestsPerSec, // start with one second of burst

		lagHist:       reg.Histogram("ingest.searchable_lag_ns"),
		rowsUnindexed: reg.Gauge("ingest.rows_unindexed"),
		steps:         reg.Counter("ingest.sched_steps"),
		jobsIndex:     reg.Counter("ingest.jobs_index"),
		jobsCompact:   reg.Counter("ingest.jobs_compact"),
		jobsVacuum:    reg.Counter("ingest.jobs_vacuum"),
		jobsRefine:    reg.Counter("ingest.jobs_refine"),
		jobsDemote:    reg.Counter("ingest.jobs_demote"),
		pauses:        reg.Counter("ingest.sched_pauses"),
		budgetWaits:   reg.Counter("ingest.budget_waits"),
		budgetTokens:  reg.Gauge("ingest.budget_tokens"),
		jobRequests:   reg.Counter("ingest.job_requests"),
	}
	s.budgetTokens.Set(int64(s.tokens))
	s.lastRefill = s.clock.Now()
	table.OnCommit(func(int64) {
		select {
		case s.commits <- struct{}{}:
		default:
		}
	})
	if opts.Writer != nil {
		opts.Writer.OnCommitted(s.NoteCommitted)
		cli.AttachRegistry(opts.Writer.Registry())
	}
	// Freshness metrics (searchable lag, rows unindexed) surface in
	// the client's one merged Metrics snapshot.
	cli.AttachRegistry(reg)
	return s
}

// Registry returns the scheduler's metrics registry ("ingest.*").
func (s *Scheduler) Registry() *obs.Registry { return s.reg }

// Client returns the client the scheduler maintains indexes with.
func (s *Scheduler) Client() *core.Client { return s.cli }

// NoteCommitted feeds committed files into the freshness ledger. The
// writer calls it from its group-commit hook; callers appending
// through other paths may call it directly to have those files
// tracked for searchable lag.
func (s *Scheduler) NoteCommitted(files []CommittedFile) {
	s.mu.Lock()
	for _, f := range files {
		s.ledger[f.Path] = ledgerEntry{rows: f.Rows, ackedAt: f.AckedAt, version: f.Version}
	}
	s.mu.Unlock()
}

// unindexedRowsLocked sums the ledger.
func (s *Scheduler) unindexedRowsLocked() int64 {
	var n int64
	for _, e := range s.ledger {
		n += e.rows
	}
	return n
}

// coverage describes what one Step observed before picking a job.
type coverage struct {
	// snap and entries are the plan inputs the step read, once. The
	// snapshot's file list is in path order, so backlog candidates
	// handed to an adaptive policy are deterministic.
	snap    *lake.Snapshot
	entries []meta.IndexEntry
	// perSpec maps spec index → covered paths; snapPaths is the
	// active file set of the observed snapshot.
	perSpec   []map[string]bool
	snapPaths map[string]bool
	// demoted marks specs the adaptive policy routed to the scan
	// path; they take no index jobs and do not hold up the freshness
	// ledger.
	demoted []bool
}

// errNoProgress marks a scheduled job that intentionally did nothing
// (e.g. indexing stalled below the minimum row count): the step
// reports no work so converging loops terminate.
var errNoProgress = errors.New("ingest: job made no progress")

// observe reads the snapshot and meta entries once, side by side, and
// resolves the freshness ledger: files now covered by every spec record
// their searchable lag, files gone from the snapshot (compacted away)
// are dropped, and the rows_unindexed gauge updates.
func (s *Scheduler) observe(ctx context.Context) (*coverage, error) {
	snap, entries, err := s.cli.PlanInputs(ctx, -1)
	if err != nil {
		return nil, err
	}
	cov := &coverage{snap: snap, entries: entries, snapPaths: snap.Paths()}
	cov.perSpec = make([]map[string]bool, len(s.opts.Specs))
	cov.demoted = make([]bool, len(s.opts.Specs))
	if s.opts.Adaptive != nil {
		for i, spec := range s.opts.Specs {
			cov.demoted[i] = s.opts.Adaptive.DemotedToScan(spec)
		}
	}
	for i, spec := range s.opts.Specs {
		covered := make(map[string]bool)
		for _, e := range entries {
			if e.Column != spec.Column || e.Kind != spec.Kind {
				continue
			}
			for _, f := range e.Files {
				if cov.snapPaths[f] {
					covered[f] = true
				}
			}
		}
		cov.perSpec[i] = covered
	}

	now := s.clock.Now()
	type coveredFile struct {
		path string
		rows int64
		lag  time.Duration
	}
	var newlyCovered []coveredFile
	s.mu.Lock()
	for p, e := range s.ledger {
		if !cov.snapPaths[p] {
			// Compacted or removed: its surviving rows are tracked
			// via the rewritten file's coverage, not this ledger row.
			// A file committed after the snapshot was read is neither:
			// it stays for the next observation.
			if e.version <= snap.Version {
				delete(s.ledger, p)
			}
			continue
		}
		if s.coveredByAll(cov, p) {
			lag := now.Sub(e.ackedAt)
			s.lagHist.Observe(int64(lag))
			newlyCovered = append(newlyCovered, coveredFile{path: p, rows: e.rows, lag: lag})
			delete(s.ledger, p)
		}
	}
	unindexed := s.unindexedRowsLocked()
	s.mu.Unlock()
	// Fire OnCovered outside s.mu: a callback that re-enters the
	// scheduler (NoteCommitted, say) must not self-deadlock, and the
	// writer's group-commit hook must not stall behind it.
	if s.opts.OnCovered != nil {
		for _, cf := range newlyCovered {
			s.opts.OnCovered(cf.path, cf.rows, cf.lag)
		}
	}
	s.rowsUnindexed.Set(unindexed)

	// Backpressure state machine.
	if w := s.opts.Writer; w != nil {
		switch {
		case unindexed > s.opts.PauseAboveRows && !w.Paused():
			w.Pause()
			s.pauses.Inc()
		case unindexed < s.opts.ResumeBelowRows && w.Paused():
			w.Resume()
		}
	}
	return cov, nil
}

// coveredByAll reports whether every non-demoted spec covers the
// path. With no specs nothing is ever "searchable by index", so the
// ledger drains only by compaction — callers should configure at
// least one spec. Demoted specs don't count: their columns serve from
// scans by decision, so a file is as searchable as it will ever get
// once the remaining specs cover it.
func (s *Scheduler) coveredByAll(cov *coverage, path string) bool {
	if len(cov.perSpec) == 0 {
		return false
	}
	for i, covered := range cov.perSpec {
		if cov.demoted[i] {
			continue
		}
		if !covered[path] {
			return false
		}
	}
	return true
}

// storeRequests sums the request counters of the client's store chain.
func storeRequests(m obs.Snapshot) int64 {
	return m.Counter("store.gets") + m.Counter("store.puts") +
		m.Counter("store.lists") + m.Counter("store.deletes") + m.Counter("store.heads")
}

// refill tops up the token bucket: elapsed virtual time times the
// budget rate, scaled down by observed foreground traffic (total
// store requests minus the scheduler's own), floored at 10% of the
// budget so maintenance always makes progress.
func (s *Scheduler) refill() {
	now := s.clock.Now()
	total := storeRequests(s.cli.Metrics())
	s.mu.Lock()
	defer s.mu.Unlock()
	elapsed := now.Sub(s.lastRefill).Seconds()
	if elapsed <= 0 {
		return
	}
	foreground := float64(total-s.lastSeen-s.ownCost) / elapsed
	if foreground < 0 {
		foreground = 0
	}
	rate := s.opts.RequestsPerSec - foreground
	if min := s.opts.RequestsPerSec / 10; rate < min {
		rate = min
	}
	s.tokens += rate * elapsed
	if s.tokens > s.opts.RequestsPerSec {
		s.tokens = s.opts.RequestsPerSec // one second of burst
	}
	s.lastRefill = now
	s.lastSeen = total
	s.ownCost = 0
	s.budgetTokens.Set(int64(s.tokens))
}

// charge bills the store requests one piece of maintenance issued, as
// counted on its own tally: foreground searches running beside it are
// not among them. The cost may overdraw the bucket; the debt carries
// over, delaying the next job (tokens go negative and must refill).
// job_requests accumulates what maintenance itself spends against the
// store, as opposed to the daemon's fixed-rate observation polling:
// capacity planning and the adaptive bench compare regimes on it.
func (s *Scheduler) charge(cost int64) {
	s.mu.Lock()
	s.tokens -= float64(cost)
	s.ownCost += cost
	s.budgetTokens.Set(int64(s.tokens))
	s.mu.Unlock()
	s.jobRequests.Add(cost)
}

// Step runs one scheduling decision: resolve coverage and freshness,
// apply writer backpressure, and — budget permitting — run the
// highest-priority maintenance job (index > compact > vacuum). It
// reports whether a job ran. Tests and deterministic drivers call
// Step directly; Run loops it.
func (s *Scheduler) Step(ctx context.Context) (bool, error) {
	return s.step(ctx, false)
}

// step is Step; paced holds each spec's index jobs indexEvery apart.
func (s *Scheduler) step(ctx context.Context, paced bool) (bool, error) {
	s.steps.Inc()
	cov, err := s.observe(ctx)
	if err != nil {
		return false, err
	}
	s.refill()
	s.mu.Lock()
	ready := s.tokens > 0
	s.mu.Unlock()
	if !ready {
		s.budgetWaits.Inc()
		return false, nil
	}

	// Adaptive policy housekeeping (autopilot refresh) is maintenance
	// work: its Status and snapshot reads are charged to the budget, not
	// mistaken for foreground traffic.
	if s.opts.Adaptive != nil {
		var tick objectstore.Metrics
		tickErr := s.opts.Adaptive.Tick(objectstore.WithTally(ctx, &tick))
		s.charge(tick.Snapshot().Requests())
		if tickErr != nil {
			return false, tickErr
		}
	}

	job, counter := s.pickJob(ctx, cov, core.StatusOf(cov.snap, cov.entries), paced)
	if job == nil {
		return false, nil
	}
	var spent objectstore.Metrics
	jobErr := job(objectstore.WithTally(ctx, &spent))
	s.charge(spent.Snapshot().Requests())
	if errors.Is(jobErr, errNoProgress) {
		return false, nil
	}
	if jobErr != nil {
		return false, jobErr
	}
	counter.Inc()
	return true, nil
}

// pickJob chooses the highest-priority maintenance job, or nil.
// Indexing fresh data outranks compaction, which outranks vacuum:
// freshness first, then read amplification, then garbage. Compaction
// triggers on the index's *effective* entry count (entries the greedy
// cover would keep), so a just-compacted index waits for vacuum to
// sweep the superseded entries instead of re-compacting them.
func (s *Scheduler) pickJob(ctx context.Context, cov *coverage, statuses []core.IndexStatus, paced bool) (func(context.Context) error, *obs.Counter) {
	policy := s.opts.Policy
	if policy.CompactWhenEntries <= 0 {
		policy.CompactWhenEntries = 8
	}
	byKey := make(map[core.IndexSpec]core.IndexStatus, len(statuses))
	for _, st := range statuses {
		byKey[core.IndexSpec{Column: st.Column, Kind: st.Kind}] = st
	}

	// Index: the spec with the most uncovered files first — unless an
	// adaptive policy is wired in, which reorders the backlog by heat
	// so hot partitions become searchable before cold tails. A spec
	// with no entries at all (absent from statuses) has everything
	// uncovered. Specs that stalled below the index's minimum row
	// count wait for the snapshot to change before being retried.
	if s.opts.Adaptive != nil {
		if job, counter := s.pickAdaptiveIndex(ctx, cov, paced); job != nil {
			return job, counter
		}
	} else {
		best, bestGap := -1, 0
		for i := range s.opts.Specs {
			if s.waits(i, cov, paced) {
				continue
			}
			gap := len(cov.snapPaths) - len(cov.perSpec[i])
			if gap > bestGap {
				best, bestGap = i, gap
			}
		}
		if best >= 0 {
			i, spec := best, s.opts.Specs[best]
			return func(ctx context.Context) error {
				s.noteIndexing(i)
				_, err := s.cli.Index(ctx, spec.Column, spec.Kind)
				if errors.Is(err, core.ErrBelowMinRows) {
					// Not enough new rows to justify an index file yet;
					// scans cover the tail until more data commits.
					s.mu.Lock()
					s.stalled[i] = cov.snap.Version
					s.mu.Unlock()
					return errNoProgress
				}
				return err
			}, s.jobsIndex
		}
	}
	for i, spec := range s.opts.Specs {
		if cov.demoted[i] {
			continue
		}
		st, ok := byKey[spec]
		if ok && st.Entries-st.RedundantEntries >= policy.CompactWhenEntries {
			spec := spec
			return func(ctx context.Context) error {
				_, err := s.cli.Compact(ctx, spec.Column, spec.Kind, policy.Compact)
				return err
			}, s.jobsCompact
		}
	}
	for _, st := range statuses {
		if st.StaleRefs > 0 || st.RedundantEntries > 0 {
			return func(ctx context.Context) error {
				report, err := s.cli.Vacuum(ctx, policy.Vacuum)
				if err == nil && len(report.DroppedEntries) == 0 && len(report.RemovedObjects) == 0 {
					// Stale refs under an index file that still covers
					// live data outlast every vacuum: not progress, or
					// Quiesce would step forever.
					return errNoProgress
				}
				return err
			}, s.jobsVacuum
		}
	}
	if s.opts.Adaptive != nil {
		if spec, ok := s.opts.Adaptive.PlanDemote(statuses); ok {
			return func(ctx context.Context) error {
				// Drop the rows, then vacuum in the same job so the
				// orphaned index objects are collected (commit-then-
				// delete, as everywhere).
				if _, err := s.cli.DropIndex(ctx, spec.Column, spec.Kind); err != nil {
					return err
				}
				_, err := s.cli.Vacuum(ctx, policy.Vacuum)
				return err
			}, s.jobsDemote
		}
	}
	return nil, nil
}

// waits reports whether spec i takes no index job at this step: it
// stalled below the index's minimum row count at this snapshot, or —
// paced, under Run — its last index job started less than indexEvery
// ago.
func (s *Scheduler) waits(i int, cov *coverage, paced bool) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	stalledAt, stalled := s.stalled[i]
	return (stalled && stalledAt == cov.snap.Version) || (paced && s.clock.Now().Sub(s.indexedAt[i]) < indexEvery)
}

func (s *Scheduler) noteIndexing(i int) {
	s.mu.Lock()
	s.indexedAt[i] = s.clock.Now()
	s.mu.Unlock()
}

// pickAdaptiveIndex consults the adaptive policy for the next index
// or refine job over the non-demoted backlog.
func (s *Scheduler) pickAdaptiveIndex(ctx context.Context, cov *coverage, paced bool) (func(context.Context) error, *obs.Counter) {
	var cands []adaptive.IndexCandidate
	for i, spec := range s.opts.Specs {
		if cov.demoted[i] || s.waits(i, cov, paced) {
			continue
		}
		var uncovered []adaptive.BacklogFile
		for _, f := range cov.snap.Files {
			if !cov.perSpec[i][f.Path] {
				uncovered = append(uncovered, adaptive.BacklogFile{Path: f.Path, Rows: f.Rows})
			}
		}
		if len(uncovered) == 0 {
			continue
		}
		cands = append(cands, adaptive.IndexCandidate{Spec: i, IndexSpec: spec, Uncovered: uncovered})
	}
	if len(cands) > 0 {
		if dec, ok := s.opts.Adaptive.PlanIndex(cands); ok {
			i := dec.Spec
			spec := s.opts.Specs[i]
			opts := core.IndexOptions{Version: cov.snap.Version, Only: dec.Paths, IVF: dec.IVF}
			return func(ctx context.Context) error {
				s.noteIndexing(i)
				_, err := s.cli.IndexWithOptions(ctx, spec.Column, spec.Kind, opts)
				if errors.Is(err, core.ErrBelowMinRows) {
					s.mu.Lock()
					s.stalled[i] = cov.snap.Version
					s.mu.Unlock()
					return errNoProgress
				}
				return err
			}, s.jobsIndex
		}
	}
	if plan, ok := s.opts.Adaptive.PlanRefine(ctx, s.opts.Specs); ok {
		return func(ctx context.Context) error {
			entry, err := s.cli.RefineVectorIndex(ctx, plan.Column, plan.IndexKey, plan.Probes, plan.NProbe, plan.Opts)
			if err != nil {
				return err
			}
			if entry == nil {
				return errNoProgress // entry gone, or no refinable cell
			}
			return nil
		}, s.jobsRefine
	}
	return nil, nil
}

// Quiesce steps until no job runs, bringing maintenance fully up to
// date (ignoring the budget's pacing, not its accounting). Shutdown
// paths and tests use it to reach a steady state.
func (s *Scheduler) Quiesce(ctx context.Context) error {
	for {
		s.mu.Lock()
		if s.tokens <= 0 {
			s.tokens = 1 // pacing is Run's job; Quiesce only converges
		}
		s.mu.Unlock()
		worked, err := s.Step(ctx)
		if err != nil {
			return err
		}
		if !worked {
			return nil
		}
	}
}

// Run loops the scheduler until ctx is done: each table commit wakes
// it, and a real-time ticker (TickEvery) wakes it regardless, so a
// pause in traffic still ticks the writer's age bound, refills the
// budget, and drains the tail of committed-but-unindexed files. The
// ticker is what makes backpressure safe: with it, a writer paused at
// the high watermark while the budget is in debt is always revisited —
// tokens refill, the backlog indexes, and the writer resumes — even
// when no further commits (and hence no commit wakeups) can occur. It
// is the daemon entry point for real-clock deployments; virtual-clock
// drivers call Step/Tick/Quiesce directly.
func (s *Scheduler) Run(ctx context.Context) error {
	ticker := time.NewTicker(s.opts.TickEvery)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-s.commits:
		case <-ticker.C:
		}
		if w := s.opts.Writer; w != nil {
			if err := w.Tick(ctx); err != nil && !errors.Is(err, ErrClosed) {
				return err
			}
		}
		for {
			worked, err := s.step(ctx, true)
			if err != nil {
				return err
			}
			if !worked {
				break
			}
		}
	}
}
