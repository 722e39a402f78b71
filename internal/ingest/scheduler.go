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
	// it below half of that, and its group commits feed the
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
	// not yet index-covered, and lifts the pause below half of it.
	// Default 1<<16.
	PauseAboveRows int64
	// Policy tunes the compact and vacuum jobs.
	Policy core.MaintainPolicy
	// Adaptive, if set, shapes the index job by query heat (a partly
	// hot backlog indexes its hot files first, vector specs build a
	// coarse first pass), schedules progressive IVF-PQ refinement, and
	// demotes columns the TCO autopilot rules out (see
	// internal/adaptive), all from the step's one observation. Nil
	// indexes every spec's whole backlog.
	Adaptive *adaptive.Policy
	// TickEvery paces Run's periodic wakeups: a real-time ticker that
	// applies the writer's age bound and lets Run step again once the
	// budget ran dry, the pace deadline passed under a virtual clock, or
	// nothing was observed for a while (see Run). A wakeup reads the
	// store only when it steps. Default 100ms. Virtual-clock drivers
	// bypass Run and call Step/Tick directly.
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
	if o.TickEvery <= 0 {
		o.TickEvery = 100 * time.Millisecond
	}
	switch {
	case o.Policy.CompactWhenEntries <= 0:
		o.Policy.CompactWhenEntries = 8
	case o.Policy.CompactWhenEntries == 1:
		// One index file cannot fragment: compacting it would merge
		// the merge output again on every step.
		o.Policy.CompactWhenEntries = 2
	}
	return o
}

// indexEvery is the least time Run leaves between the observations
// two index jobs plan from: files committed in between ride the next
// job, so a steady stream makes one index file per spec per indexEvery
// however fast a job runs. Without it the daemon indexes as often as
// its planning is quick, and every query opens that many more, smaller
// index files — the wall-clock ingest benchmark's opened IVF-PQ indexes
// stopped fitting its decoded-object cache when planning lost its log
// replays (DESIGN.md §20). It is also how long an idle Run goes
// without reading the store. Step and Quiesce do not wait for it.
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
//	paused  --(unindexed < PauseAboveRows/2)--> flowing
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
	stalled    map[int]int64 // spec index → snapshot version it stalled at
	unmerged   map[int]int   // spec index → its entry count when a compaction merged nothing
	indexedAt  time.Time     // start of the observation the last index job planned from
	observedAt time.Time     // start of the last observation
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
		cli = core.NewClient(table, opts.Config)
	}
	reg := obs.NewRegistry()
	s := &Scheduler{
		cli:      cli,
		opts:     opts,
		clock:    table.Clock(),
		reg:      reg,
		commits:  make(chan struct{}, 1),
		ledger:   make(map[string]ledgerEntry),
		stalled:  make(map[int]int64),
		unmerged: make(map[int]int),
		tokens:   opts.RequestsPerSec, // start with one second of burst

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

// NoteCommitted feeds committed files into the freshness ledger and
// pauses the writer once the ledger's rows pass PauseAboveRows: the
// ledger is in memory, so backpressure needs no step, and a Run that
// is waiting out its pace cannot delay it. The writer calls it from its
// group-commit hook; callers appending through other paths may call it
// directly to have those files tracked for searchable lag.
func (s *Scheduler) NoteCommitted(files []CommittedFile) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, f := range files {
		s.ledger[f.Path] = ledgerEntry{rows: f.Rows, ackedAt: f.AckedAt, version: f.Version}
	}
	if w := s.opts.Writer; w != nil && s.unindexedRowsLocked() > s.opts.PauseAboveRows && !w.Paused() {
		w.Pause()
		s.pauses.Inc()
	}
}

// unindexedRowsLocked sums the ledger.
func (s *Scheduler) unindexedRowsLocked() int64 {
	var n int64
	for _, e := range s.ledger {
		n += e.rows
	}
	return n
}

// coverage is what one Step observed, once, before it decides.
type coverage struct {
	// at is when the observation started: an index job planned from it
	// paces the next one from there.
	at time.Time
	// snap and entries are the plan inputs the step read, and planned
	// the metadata version of entries: the step's index job plans from
	// them.
	snap    *lake.Snapshot
	entries []meta.IndexEntry
	planned int64
	// statuses are core.StatusOf over them: statuses[i] is spec i's,
	// and the indexes no spec names follow.
	statuses []core.IndexStatus
	// demoted marks the statuses whose column the adaptive policy
	// routed to the scan path; those specs take no index jobs and do
	// not hold up the freshness ledger.
	demoted []bool
}

// uncovered is the set of snapshot files some spec the step did not
// demote leaves uncovered, past those indexed[i] now covers for spec
// i. With no specs nothing is ever "searchable by index", so the
// ledger drains only by compaction — callers should configure at least
// one spec.
func (c *coverage) uncovered(specs int, indexed map[int]map[string]bool) map[string]bool {
	out := make(map[string]bool)
	for i := 0; i < specs; i++ {
		if c.demoted[i] {
			continue
		}
		for _, p := range c.statuses[i].Uncovered {
			if !indexed[i][p] {
				out[p] = true
			}
		}
	}
	return out
}

// errNoProgress marks a scheduled job that intentionally did nothing
// (e.g. a vacuum with nothing it may drop): the step reports no work
// so converging loops terminate.
var errNoProgress = errors.New("ingest: job made no progress")

// errDeferred marks a job that did nothing and set itself aside until
// its inputs change (an index stalled below the minimum row count, a
// compaction that could merge nothing): the picker skips it from the
// next step on, so Quiesce goes on to the jobs below it.
var errDeferred = errors.New("ingest: job deferred")

// observe reads the snapshot and meta entries once, side by side,
// derives the index statuses and the adaptive policy's verdicts from
// that read, and resolves the freshness ledger (cover): files it finds
// covered — by another client's index, or once a spec is demoted —
// record their searchable lag, and files gone from the snapshot
// (compacted away) are dropped. Below half
// of PauseAboveRows it resumes a paused writer. The read is the
// scheduler's own traffic, not foreground, but no job's: it draws no
// tokens and is not in job_requests.
func (s *Scheduler) observe(ctx context.Context) (*coverage, error) {
	at := s.clock.Now()
	var read objectstore.Metrics
	plan, err := s.cli.PlanInputs(objectstore.WithTally(ctx, &read), -1)
	s.mu.Lock()
	s.ownCost += read.Snapshot().Requests()
	s.observedAt = at
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}
	cov := &coverage{at: at, snap: plan.Snapshot, entries: plan.Entries, planned: plan.MetaVersion,
		statuses: core.StatusOf(plan.Snapshot, plan.Entries, s.opts.Specs...)}
	if s.opts.Adaptive != nil {
		cov.demoted = s.opts.Adaptive.Observe(s.clock.Now(), plan.Snapshot, cov.statuses)
	} else {
		cov.demoted = make([]bool, len(cov.statuses))
	}
	// A file is searchable by index once every spec covers it. Demoted
	// specs don't count: their columns serve from scans by decision, so
	// a file is as searchable as it will ever get once the remaining
	// specs cover it.
	s.cover(cov.snap, cov.uncovered(len(s.opts.Specs), nil), true)
	return cov, nil
}

// cover resolves the freshness ledger against a snapshot and the files
// still uncovered in it: a ledger file in the snapshot and not
// uncovered records its searchable lag, fires OnCovered and leaves the
// ledger, so no file is reported twice. With gone set, files missing
// from a snapshot at or past their commit are dropped — compacted or
// removed: their surviving rows are tracked via the rewritten file's
// coverage, not this ledger row. A file committed after the snapshot
// was read stays for the next observation. It updates rows_unindexed
// and lifts a pause below half of PauseAboveRows.
func (s *Scheduler) cover(snap *lake.Snapshot, uncovered map[string]bool, gone bool) {
	now := s.clock.Now()
	type coveredFile struct {
		path string
		rows int64
		lag  time.Duration
	}
	var newlyCovered []coveredFile
	active := snap.Paths()
	s.mu.Lock()
	for p, e := range s.ledger {
		if !active[p] {
			if gone && e.version <= snap.Version {
				delete(s.ledger, p)
			}
			continue
		}
		if len(s.opts.Specs) > 0 && !uncovered[p] {
			lag := now.Sub(e.ackedAt)
			s.lagHist.Observe(int64(lag))
			newlyCovered = append(newlyCovered, coveredFile{path: p, rows: e.rows, lag: lag})
			delete(s.ledger, p)
		}
	}
	unindexed := s.unindexedRowsLocked()
	if w := s.opts.Writer; w != nil && unindexed < s.opts.PauseAboveRows/2 && w.Paused() {
		w.Resume()
	}
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
}

// storeRequests sums the request counters of the client's store chain.
func storeRequests(m obs.Snapshot) int64 {
	return m.Counter("store.gets") + m.Counter("store.puts") +
		m.Counter("store.lists") + m.Counter("store.deletes") + m.Counter("store.heads")
}

// refill tops up the token bucket: elapsed virtual time times the
// budget rate, scaled down by observed foreground traffic (total
// store requests minus the scheduler's own: its jobs and its
// observations), floored at 10% of the budget so maintenance always
// makes progress.
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
	out, err := s.step(ctx, false)
	return out.worked, err
}

// stepped is what one step did, and what it leaves for Run to wake to.
type stepped struct {
	// worked reports a job that ran; deferred, one that ran, did
	// nothing and set itself aside (errDeferred).
	worked, deferred bool
	// dry reports a budget that was empty, so no job was picked.
	dry bool
	// due reports index work the observation found: a spec with
	// uncovered files it may index. The pace, the budget or the job it
	// ran may have left some of it.
	due bool
}

// step is Step; paced holds index jobs indexEvery apart.
func (s *Scheduler) step(ctx context.Context, paced bool) (stepped, error) {
	s.steps.Inc()
	cov, err := s.observe(ctx)
	if err != nil {
		return stepped{}, err
	}
	out := stepped{due: len(s.due(cov)) > 0}
	s.refill()
	s.mu.Lock()
	ready := s.tokens > 0
	s.mu.Unlock()
	if !ready {
		s.budgetWaits.Inc()
		out.dry = true
		return out, nil
	}

	job, counter := s.pickJob(cov, paced)
	if job == nil {
		return out, nil
	}
	if err := ctx.Err(); err != nil {
		return out, err // cancelled while observing: start no job
	}
	var spent objectstore.Metrics
	jobErr := job(objectstore.WithTally(ctx, &spent))
	s.charge(spent.Snapshot().Requests())
	switch {
	case errors.Is(jobErr, errDeferred):
		out.deferred = true
		return out, nil
	case errors.Is(jobErr, errNoProgress):
		return out, nil
	case jobErr != nil:
		return out, jobErr
	}
	counter.Inc()
	out.worked = true
	return out, nil
}

// pickJob chooses the highest-priority maintenance job, or nil, from
// the step's observation alone: deciding issues no request.
// Indexing fresh data outranks compaction, which outranks vacuum:
// freshness first, then read amplification, then garbage. Compaction
// triggers on the index's *effective* entry count (entries the greedy
// cover would keep), so a just-compacted index waits for vacuum to
// sweep the superseded entries instead of re-compacting them. A
// compaction that merged nothing waits until the index's entry count
// changes: Compact reads only those entries, and a new one is what can
// give it a pair to merge.
func (s *Scheduler) pickJob(cov *coverage, paced bool) (func(context.Context) error, *obs.Counter) {
	policy := s.opts.Policy
	// Index: one job over every due spec, against one plan and one
	// metadata commit. An adaptive policy shapes the job — hot files of
	// a partly hot backlog first, coarse vector builds — and with no
	// index job to run may schedule an IVF-PQ refinement.
	if due := s.due(cov); len(due) > 0 && !(paced && cov.at.Before(s.paceDeadline())) {
		var opts core.IndexOptions
		if s.opts.Adaptive != nil {
			statuses := make([]core.IndexStatus, len(due))
			for k, i := range due {
				statuses[k] = cov.statuses[i]
			}
			opts = s.opts.Adaptive.PlanIndex(statuses)
		}
		return s.indexJob(due, cov, opts), s.jobsIndex
	}
	if s.opts.Adaptive != nil {
		if job := s.refineJob(cov); job != nil {
			return job, s.jobsRefine
		}
	}
	for i, spec := range s.opts.Specs {
		if cov.demoted[i] {
			continue
		}
		st := cov.statuses[i]
		if st.Entries-st.RedundantEntries >= policy.CompactWhenEntries && !s.unmergedAt(i, st.Entries) {
			return func(ctx context.Context) error {
				merged, err := s.cli.Compact(ctx, spec.Column, spec.Kind, policy.Compact)
				if err == nil && len(merged) == 0 {
					// Every candidate is at or above SmallerThanBytes, or
					// MaxBinEntries leaves only single-entry bins.
					s.mu.Lock()
					s.unmerged[i] = st.Entries
					s.mu.Unlock()
					return errDeferred
				}
				return err
			}, s.jobsCompact
		}
	}
	for _, st := range cov.statuses {
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
		if spec, ok := s.opts.Adaptive.PlanDemote(cov.statuses); ok {
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

// due lists the specs the index job takes at this step: those not
// demoted, with uncovered files, and not stalled below the index's
// minimum row count at this snapshot.
func (s *Scheduler) due(cov *coverage) []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	var due []int
	for i := range s.opts.Specs {
		stalledAt, stalled := s.stalled[i]
		if !cov.demoted[i] && len(cov.statuses[i].Uncovered) > 0 && !(stalled && stalledAt == cov.snap.Version) {
			due = append(due, i)
		}
	}
	return due
}

// paceDeadline is when Run may next start an index job: indexEvery
// after the observation the last one planned from.
func (s *Scheduler) paceDeadline() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.indexedAt.Add(indexEvery)
}

// unmergedAt reports whether spec i's last compaction merged nothing
// at this entry count.
func (s *Scheduler) unmergedAt(i, entries int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	n, ok := s.unmerged[i]
	return ok && n == entries
}

// indexJob is the one index job: it paces Run from the observation
// it plans from, and indexes every spec in the set with opts from that
// plan, in one commit. Too few new rows for an index file stalls that
// spec at the observed snapshot — scans cover the tail until more data
// commits — while the others commit; a job whose every spec stalled is
// deferred. At its commit the job resolves the freshness ledger: a file
// it leaves covered by every spec records its lag then, not at a later
// observation, which a lake compaction rewriting the file could beat.
func (s *Scheduler) indexJob(set []int, cov *coverage, opts core.IndexOptions) func(context.Context) error {
	specs := make([]core.IndexSpec, len(set))
	for k, i := range set {
		specs[k] = s.opts.Specs[i]
	}
	return func(ctx context.Context) error {
		s.mu.Lock()
		s.indexedAt = cov.at
		s.mu.Unlock()
		plan := core.Plan{Snapshot: cov.snap, Entries: cov.entries, MetaVersion: cov.planned}
		results, err := s.cli.IndexSpecs(ctx, plan, specs, opts)
		if err != nil {
			return err
		}
		indexed := make(map[int]map[string]bool, len(set))
		stalled := 0
		for k, r := range results {
			if errors.Is(r.Err, core.ErrBelowMinRows) {
				s.mu.Lock()
				s.stalled[set[k]] = cov.snap.Version
				s.mu.Unlock()
				stalled++
			}
			if r.Entry != nil {
				indexed[set[k]] = make(map[string]bool, len(r.Entry.Files))
				for _, f := range r.Entry.Files {
					indexed[set[k]][f] = true
				}
			}
		}
		if stalled == len(set) {
			return errDeferred
		}
		s.cover(cov.snap, cov.uncovered(len(s.opts.Specs), indexed), false)
		return nil
	}
}

// refineJob is the IVF-PQ refinement the adaptive policy proposes from
// the observed entries, or nil.
func (s *Scheduler) refineJob(cov *coverage) func(context.Context) error {
	plan, ok := s.opts.Adaptive.PlanRefine(s.opts.Specs, cov.entries)
	if !ok {
		return nil
	}
	return func(ctx context.Context) error {
		entry, err := s.cli.RefineVectorIndex(ctx, plan.Column, plan.IndexKey, plan.Probes, plan.NProbe, plan.Opts)
		if err != nil {
			return err
		}
		if entry == nil {
			return errNoProgress // entry gone, or no refinable cell
		}
		return nil
	}
}

// Quiesce steps until no job runs, bringing maintenance fully up to
// date (ignoring the budget's pacing, not its accounting). A deferred
// job does not end it: the next step picks the jobs below that one.
// Shutdown paths and tests use it to reach a steady state.
func (s *Scheduler) Quiesce(ctx context.Context) error {
	for {
		s.mu.Lock()
		if s.tokens <= 0 {
			s.tokens = 1 // pacing is Run's job; Quiesce only converges
		}
		s.mu.Unlock()
		out, err := s.step(ctx, false)
		if err != nil {
			return err
		}
		if !out.worked && !out.deferred {
			return nil
		}
	}
}

// Run loops the scheduler until ctx is done. It wakes on each table
// commit, on a real-time ticker (TickEvery) and at the pace deadline,
// applies the writer's age bound at every wakeup, and reads the store
// only when a step could pick a job, so an idle daemon costs one
// observation per indexEvery, not one per tick. A wakeup steps when:
//
//   - a commit arrived, or the last observation found index work, and
//     the pace deadline (indexEvery after the observation the last
//     index job planned from) has passed — a timer fires at the
//     deadline, so the job does not wait for the next tick;
//   - the previous step ran a job: Run steps until one runs none;
//   - the previous step found the budget dry: the ticker refills it,
//     which is what makes backpressure safe — a writer paused while the
//     budget is in debt is always revisited, tokens refill, the backlog
//     indexes and the writer resumes, even when no further commits (and
//     hence no commit wakeups) can occur;
//   - nothing has been observed for indexEvery, which catches commits
//     through other handles and vacuum's timeouts.
//
// It is the daemon entry point for real-clock deployments;
// virtual-clock drivers call Step/Tick/Quiesce directly. Once ctx is
// done it starts no step: a select picks at random among ready cases,
// so a pending wakeup can win over ctx.Done, and the context is checked
// again after every wakeup and before every step.
func (s *Scheduler) Run(ctx context.Context) error {
	ticker := time.NewTicker(s.opts.TickEvery)
	defer ticker.Stop()
	pace := time.NewTimer(indexEvery)
	pace.Stop() // a wakeup with index work inside the pace arms it
	defer pace.Stop()
	var (
		committed bool      // a commit wakeup since the last step began
		last      stepped   // the previous step's outcome
		armed     time.Time // the deadline pace is set for
	)
	for {
		select {
		case <-ctx.Done():
		case <-s.commits:
			committed = true
		case <-ticker.C:
		case <-pace.C:
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		if w := s.opts.Writer; w != nil {
			if err := w.Tick(ctx); err != nil && !errors.Is(err, ErrClosed) {
				return err
			}
		}
		now, deadline := s.clock.Now(), s.paceDeadline()
		s.mu.Lock()
		idle := now.Sub(s.observedAt) >= indexEvery
		s.mu.Unlock()
		waiting := committed || last.due
		if !last.dry && !idle && !(waiting && !now.Before(deadline)) {
			if waiting && !armed.Equal(deadline) {
				pace.Reset(deadline.Sub(now))
				armed = deadline
			}
			continue
		}
		committed = false
		for {
			if err := ctx.Err(); err != nil {
				return err
			}
			out, err := s.step(ctx, true)
			if err != nil {
				return err
			}
			last = out
			if !out.worked {
				break
			}
		}
	}
}
