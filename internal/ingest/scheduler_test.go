package ingest

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"rottnest/internal/component"
	"rottnest/internal/core"
	"rottnest/internal/lake"
	"rottnest/internal/objectstore"
	"rottnest/internal/simtime"
)

// schedWorld is one writer+scheduler pair over a fresh table.
func schedWorld(t *testing.T, opts SchedulerOptions) (*Writer, *Scheduler, *simtime.VirtualClock) {
	t.Helper()
	clock := simtime.NewVirtualClock()
	// Meter requests (zero-latency model) so job costs hit the token
	// bucket; no cache, so every request counts.
	stack := objectstore.NewStack(objectstore.NewMemStore(clock), objectstore.StackOptions{
		Latency:    &objectstore.LatencyModel{},
		CacheBytes: -1,
	})
	tbl := newTestTable(t, stack, clock)
	w := NewWriter(tbl, WriterOptions{MaxBatchRows: 2, Clock: clock, Manual: true})
	opts.Writer = w
	opts.Clock = clock
	if opts.Config.IndexDir == "" {
		opts.Config = core.Config{IndexDir: "idx", Clock: clock}
	}
	if opts.Specs == nil {
		opts.Specs = []core.IndexSpec{{Column: "msg", Kind: component.KindFM}}
	}
	s := NewScheduler(tbl, opts)
	return w, s, clock
}

// ingestRows appends n single-row batches and flushes them.
func ingestRows(t *testing.T, ctx context.Context, w *Writer, tag string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := w.Append(ctx, msgBatch(fmt.Sprintf("%s-%d", tag, i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestSchedulerIndexesAndMeasuresLag verifies the freshness loop: a
// group commit enters the ledger, an index job covers it, and the
// searchable lag (ack → covered, in virtual time) is exact.
func TestSchedulerIndexesAndMeasuresLag(t *testing.T) {
	ctx := context.Background()
	var covered []time.Duration
	w, s, clock := schedWorld(t, SchedulerOptions{
		OnCovered: func(_ string, _ int64, lag time.Duration) { covered = append(covered, lag) },
	})

	ingestRows(t, ctx, w, "a", 4)
	if got := s.Registry().Snapshot().Gauge("ingest.rows_unindexed"); got != 0 {
		// Gauge updates on observe, not on commit.
		t.Fatalf("rows_unindexed before first step = %d", got)
	}
	clock.Advance(3 * time.Second)
	worked, err := s.Step(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !worked {
		t.Fatal("first step scheduled no job despite unindexed files")
	}
	// The index job ran in the same step that first observed the
	// backlog; the next step observes the new coverage.
	if _, err := s.Step(ctx); err != nil {
		t.Fatal(err)
	}
	if len(covered) != 2 { // two 2-row micro-batches → two files
		t.Fatalf("OnCovered fired %d times, want 2", len(covered))
	}
	for _, lag := range covered {
		if lag != 3*time.Second {
			t.Fatalf("lag = %v, want exactly 3s of virtual time", lag)
		}
	}
	reg := s.Registry().Snapshot()
	if got := reg.Gauge("ingest.rows_unindexed"); got != 0 {
		t.Fatalf("rows_unindexed after coverage = %d", got)
	}
	if h := reg.Histograms["ingest.searchable_lag_ns"]; h.Count != 2 {
		t.Fatalf("lag histogram count = %d, want 2", h.Count)
	}
	if got := reg.Counter("ingest.jobs_index"); got != 1 {
		t.Fatalf("jobs_index = %d, want 1", got)
	}
	if err := w.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestSchedulerBackpressureWatermarks verifies the pause/resume state
// machine: the writer pauses once unindexed rows pass the high
// watermark and resumes below the low one.
func TestSchedulerBackpressureWatermarks(t *testing.T) {
	ctx := context.Background()
	w, s, _ := schedWorld(t, SchedulerOptions{
		PauseAboveRows:  4,
		ResumeBelowRows: 2,
	})

	ingestRows(t, ctx, w, "b", 6)
	// Observe only (drain the budget first so no job runs): simulate
	// by calling observe through Step after zeroing tokens.
	s.mu.Lock()
	s.tokens = -1e9
	s.mu.Unlock()
	if worked, err := s.Step(ctx); err != nil || worked {
		t.Fatalf("budget-starved step: worked=%v err=%v", worked, err)
	}
	if !w.Paused() {
		t.Fatal("writer not paused above high watermark")
	}
	if got := s.Registry().Snapshot().Counter("ingest.sched_pauses"); got != 1 {
		t.Fatalf("sched_pauses = %d, want 1", got)
	}

	// Restore budget, index the backlog, observe coverage: resume.
	s.mu.Lock()
	s.tokens = 1
	s.mu.Unlock()
	if worked, err := s.Step(ctx); err != nil || !worked {
		t.Fatalf("index step: worked=%v err=%v", worked, err)
	}
	s.mu.Lock()
	s.tokens = 1
	s.mu.Unlock()
	if _, err := s.Step(ctx); err != nil {
		t.Fatal(err)
	}
	if w.Paused() {
		t.Fatal("writer still paused after backlog cleared")
	}
	if err := w.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestSchedulerBudgetPacing verifies the token bucket: a job's cost
// overdraws the bucket, further steps wait, and virtual time refills
// it (yielding floor keeps the rate positive).
func TestSchedulerBudgetPacing(t *testing.T) {
	ctx := context.Background()
	w, s, clock := schedWorld(t, SchedulerOptions{RequestsPerSec: 1})

	ingestRows(t, ctx, w, "c", 4)
	worked, err := s.Step(ctx)
	if err != nil || !worked {
		t.Fatalf("first step: worked=%v err=%v", worked, err)
	}
	s.mu.Lock()
	overdrawn := s.tokens < 0
	s.mu.Unlock()
	if !overdrawn {
		t.Fatal("index job cost did not overdraw a 1 req/s bucket")
	}

	// More data arrives; the bucket is in debt, so nothing schedules.
	ingestRows(t, ctx, w, "d", 4)
	if worked, err := s.Step(ctx); err != nil || worked {
		t.Fatalf("in-debt step: worked=%v err=%v", worked, err)
	}
	if got := s.Registry().Snapshot().Counter("ingest.budget_waits"); got == 0 {
		t.Fatal("no budget wait recorded")
	}

	// Virtual time refills the bucket; the backlog then indexes.
	for i := 0; i < 200; i++ {
		clock.Advance(10 * time.Second)
		worked, err := s.Step(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if worked {
			if err := w.Close(ctx); err != nil {
				t.Fatal(err)
			}
			return
		}
	}
	t.Fatal("bucket never refilled despite 2000s of virtual time")
}

// TestSchedulerRunRecoversFromBudgetStall exercises the Run daemon's
// worst case: the backlog passes the pause watermark, the budget is
// deep in debt, and — because the writer is paused — no further
// commits (and so no commit wakeups) can ever arrive. Run's ticker
// must still refill the budget, index the tail, and resume the
// writer; without it the system deadlocks permanently.
func TestSchedulerRunRecoversFromBudgetStall(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	clock := simtime.RealClock{}
	stack := objectstore.NewStack(objectstore.NewMemStore(clock), objectstore.StackOptions{
		Latency:    &objectstore.LatencyModel{},
		CacheBytes: -1,
	})
	tbl := newTestTable(t, stack, clock)
	w := NewWriter(tbl, WriterOptions{MaxBatchRows: 2, Clock: clock, Manual: true})
	s := NewScheduler(tbl, SchedulerOptions{
		Writer:          w,
		Clock:           clock,
		Config:          core.Config{IndexDir: "idx", Clock: clock},
		Specs:           []core.IndexSpec{{Column: "msg", Kind: component.KindFM}},
		RequestsPerSec:  500,
		PauseAboveRows:  2,
		ResumeBelowRows: 1,
		TickEvery:       5 * time.Millisecond,
	})

	// Commit a backlog past the pause watermark, then overdraw the
	// bucket so the pending commit wakeup finds no budget: the first
	// Run iteration pauses the writer and schedules nothing.
	ingestRows(t, ctx, w, "stall", 6)
	s.mu.Lock()
	s.tokens = -100
	s.mu.Unlock()

	runErr := make(chan error, 1)
	go func() { runErr <- s.Run(ctx) }()

	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		snap := s.Registry().Snapshot()
		if snap.Gauge("ingest.rows_unindexed") == 0 &&
			snap.Counter("ingest.jobs_index") > 0 && !w.Paused() {
			if snap.Counter("ingest.sched_pauses") == 0 {
				t.Fatal("writer never paused; the stall precondition was not exercised")
			}
			cancel()
			if err := <-runErr; !errors.Is(err, context.Canceled) {
				t.Fatalf("Run returned %v, want context.Canceled", err)
			}
			if err := w.Close(context.Background()); err != nil {
				t.Fatal(err)
			}
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("Run never recovered: budget stall with a paused writer persists")
}

// TestSchedulerRefillBurstCap pins the token bucket's ceiling: no
// matter how long the scheduler idles, refill accumulates at most one
// second of budget (RequestsPerSec tokens), so a long-quiet scheduler
// cannot wake up and slam the store with hours of banked burst.
func TestSchedulerRefillBurstCap(t *testing.T) {
	ctx := context.Background()
	w, s, clock := schedWorld(t, SchedulerOptions{RequestsPerSec: 100})

	s.mu.Lock()
	s.tokens = 0
	s.mu.Unlock()
	clock.Advance(time.Hour) // 360k tokens at the raw rate
	s.refill()
	s.mu.Lock()
	tokens := s.tokens
	s.mu.Unlock()
	if tokens != 100 {
		t.Fatalf("tokens after an idle hour = %v, want the 1s cap of 100", tokens)
	}
	if got := s.Registry().Snapshot().Gauge("ingest.budget_tokens"); got != 100 {
		t.Fatalf("budget_tokens gauge = %d, want 100", got)
	}
	if err := w.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestSchedulerRefillForegroundFloor pins the yielding floor: when
// observed foreground traffic saturates (and exceeds) the whole
// budget, the refill rate clamps to 10% of RequestsPerSec rather than
// zero or negative, so maintenance always creeps forward.
func TestSchedulerRefillForegroundFloor(t *testing.T) {
	ctx := context.Background()
	w, s, clock := schedWorld(t, SchedulerOptions{RequestsPerSec: 100})

	s.mu.Lock()
	s.tokens = 0
	// Simulate a flood of foreground requests since the last refill:
	// refill computes foreground = total - lastSeen - ownCost, so a
	// deeply negative lastSeen reads as ~100k requests of traffic.
	s.lastSeen -= 100_000
	s.mu.Unlock()
	clock.Advance(time.Second)
	s.refill()
	s.mu.Lock()
	tokens := s.tokens
	s.mu.Unlock()
	if tokens != 10 { // RequestsPerSec/10 × 1s
		t.Fatalf("tokens under saturation = %v, want the 10%% floor of 10", tokens)
	}

	// The flood was absorbed into lastSeen: a quiet second later the
	// full rate is back (and the cap bounds it).
	clock.Advance(time.Second)
	s.refill()
	s.mu.Lock()
	tokens = s.tokens
	s.mu.Unlock()
	if tokens != 100 {
		t.Fatalf("tokens after traffic subsided = %v, want 100", tokens)
	}
	if err := w.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestSchedulerBudgetTokensGauge verifies the live budget gauge: it
// starts at the burst cap, goes negative when a job overdraws the
// bucket (debt is visible, not clamped), and recovers with refill.
func TestSchedulerBudgetTokensGauge(t *testing.T) {
	ctx := context.Background()
	w, s, clock := schedWorld(t, SchedulerOptions{RequestsPerSec: 1})

	if got := s.Registry().Snapshot().Gauge("ingest.budget_tokens"); got != 1 {
		t.Fatalf("initial budget_tokens = %d, want the 1-token burst", got)
	}
	ingestRows(t, ctx, w, "g", 4)
	if worked, err := s.Step(ctx); err != nil || !worked {
		t.Fatalf("index step: worked=%v err=%v", worked, err)
	}
	debt := s.Registry().Snapshot().Gauge("ingest.budget_tokens")
	if debt >= 0 {
		t.Fatalf("budget_tokens after an overdrawing job = %d, want negative debt", debt)
	}
	// Refill recovers the debt (the step's own Status reads register as
	// foreground, so the rate may run at the floor — loop virtual time).
	for i := 0; i < 100; i++ {
		clock.Advance(10 * time.Second)
		s.refill()
		if s.Registry().Snapshot().Gauge("ingest.budget_tokens") == 1 {
			break
		}
	}
	if got := s.Registry().Snapshot().Gauge("ingest.budget_tokens"); got != 1 {
		t.Fatalf("budget_tokens after refill = %d, want back at the cap", got)
	}
	if err := w.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestSchedulerJobPriorities verifies index > compact > vacuum: churn
// fragments the index until compaction triggers, whose redundant
// entries then vacuum away, all through scheduled steps.
func TestSchedulerJobPriorities(t *testing.T) {
	ctx := context.Background()
	w, s, clock := schedWorld(t, SchedulerOptions{
		Policy: core.MaintainPolicy{CompactWhenEntries: 2},
	})

	for round := 0; round < 3; round++ {
		ingestRows(t, ctx, w, fmt.Sprintf("r%d", round), 4)
		clock.Advance(time.Minute)
		if err := s.Quiesce(ctx); err != nil {
			t.Fatal(err)
		}
	}
	reg := s.Registry().Snapshot()
	if got := reg.Counter("ingest.jobs_index"); got < 3 {
		t.Fatalf("jobs_index = %d, want >= 3", got)
	}
	if got := reg.Counter("ingest.jobs_compact"); got < 1 {
		t.Fatalf("jobs_compact = %d, want >= 1", got)
	}
	if got := reg.Counter("ingest.jobs_vacuum"); got < 1 {
		t.Fatalf("jobs_vacuum = %d, want >= 1", got)
	}
	// Quiescence means full coverage: nothing unindexed, empty ledger.
	if got := reg.Gauge("ingest.rows_unindexed"); got != 0 {
		t.Fatalf("rows_unindexed = %d after quiesce", got)
	}
	if err := w.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestSchedulerQuiesceEndsWithPartlyStaleIndexFile pins the bound on
// Quiesce: an index file that names both dead and live data files (the
// lake compacted some of what it covers) keeps StaleRefs above zero for
// as long as its live files exist, and no vacuum can change that — so a
// vacuum that dropped and removed nothing must count as no progress,
// or Quiesce steps forever.
func TestSchedulerQuiesceEndsWithPartlyStaleIndexFile(t *testing.T) {
	ctx := context.Background()
	w, s, clock := schedWorld(t, SchedulerOptions{})
	// One large data file and two small ones, under one index file.
	var sb strings.Builder
	for x := uint32(1); sb.Len() < 1<<15; x = x*1664525 + 1013904223 {
		fmt.Fprintf(&sb, "%08x", x) // does not compress away
	}
	large := sb.String()
	ingestRows(t, ctx, w, large, 2)
	ingestRows(t, ctx, w, "small", 4)
	if err := s.Quiesce(ctx); err != nil {
		t.Fatal(err)
	}
	// The lake merges the two small files away.
	if merged, err := s.cli.Table().Compact(ctx, 1<<13, 1000); err != nil || len(merged) == 0 {
		t.Fatalf("lake compaction = %v, %v", merged, err)
	}
	clock.Advance(time.Minute)
	done := make(chan error, 1)
	go func() { done <- s.Quiesce(ctx) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Quiesce is still stepping: a vacuum that can change nothing counts as progress")
	}
	statuses, err := s.cli.Status(ctx)
	if err != nil || len(statuses) != 1 {
		t.Fatalf("status = %+v, %v", statuses, err)
	}
	if st := statuses[0]; st.StaleRefs == 0 || st.UnindexedFiles != 0 || st.RedundantEntries != 0 {
		t.Fatalf("status = %+v, want stale refs left under full coverage and no redundant entry", st)
	}
	if err := w.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestRunSpacesIndexJobsOfOneSpec: under Run a spec's index jobs start
// at least indexEvery apart (by the scheduler's clock), so files
// committed in between share one index file; Step and Quiesce do not
// wait. Before, Run indexed as often as a job was quick.
func TestRunSpacesIndexJobsOfOneSpec(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w, s, clock := schedWorld(t, SchedulerOptions{TickEvery: time.Millisecond})
	counter := func(name string) int64 { return s.Registry().Snapshot().Counter(name) }
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s (jobs_index %d)", what, counter("ingest.jobs_index"))
			}
		}
	}
	runErr := make(chan error, 1)
	go func() { runErr <- s.Run(ctx) }()

	ingestRows(t, ctx, w, "a", 2)
	waitFor("the first index job", func() bool { return counter("ingest.jobs_index") == 1 })
	ingestRows(t, ctx, w, "b", 2)
	ingestRows(t, ctx, w, "c", 2)
	steps := counter("ingest.sched_steps")
	waitFor("ten more steps", func() bool { return counter("ingest.sched_steps") >= steps+10 })
	if got := counter("ingest.jobs_index"); got != 1 {
		t.Fatalf("jobs_index = %d within indexEvery of the first job, want 1", got)
	}
	clock.Advance(indexEvery)
	waitFor("the second index job", func() bool {
		return counter("ingest.jobs_index") == 2 && s.Registry().Snapshot().Gauge("ingest.rows_unindexed") == 0
	})
	cancel()
	if err := <-runErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("Run returned %v", err)
	}
	// Step does not wait.
	ingestRows(t, context.Background(), w, "d", 2)
	if worked, err := s.Step(context.Background()); err != nil || !worked {
		t.Fatalf("Step right after an index job: worked=%v err=%v", worked, err)
	}
	if err := w.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// uploadGate holds the first index-file upload until release closes,
// so a test can run foreground traffic while an index job is in flight.
type uploadGate struct {
	objectstore.Store
	once          sync.Once
	held, release chan struct{}
}

func (g *uploadGate) Put(ctx context.Context, key string, data []byte) error {
	if strings.HasSuffix(key, ".index") {
		g.once.Do(func() {
			close(g.held)
			<-g.release
		})
	}
	return g.Store.Put(ctx, key, data)
}

// jobRequestsBeside runs one index job over a fresh metered world and
// returns what the scheduler charged it; with foreground set, a cold
// search on its own handles runs while the job is held at its upload.
func jobRequestsBeside(t *testing.T, foreground bool) int64 {
	t.Helper()
	ctx := context.Background()
	clock := simtime.NewVirtualClock()
	gate := &uploadGate{Store: objectstore.NewMemStore(clock), held: make(chan struct{}), release: make(chan struct{})}
	stack := objectstore.NewStack(gate, objectstore.StackOptions{Latency: &objectstore.LatencyModel{}, CacheBytes: -1})
	tbl := newTestTable(t, stack, clock)
	w := NewWriter(tbl, WriterOptions{MaxBatchRows: 2, Clock: clock, Manual: true})
	s := NewScheduler(tbl, SchedulerOptions{
		Writer: w,
		Clock:  clock,
		Config: core.Config{IndexDir: "idx", Clock: clock},
		Specs:  []core.IndexSpec{{Column: "msg", Kind: component.KindFM}},
	})
	ingestRows(t, ctx, w, "fg", 4)

	stepped := make(chan error, 1)
	go func() {
		worked, err := s.Step(ctx)
		if err == nil && !worked {
			err = errors.New("step ran no job")
		}
		stepped <- err
	}()
	<-gate.held
	if foreground {
		fgTable, err := lake.OpenWith(ctx, stack, "tbl", lake.OpenOptions{Clock: clock})
		if err != nil {
			t.Fatal(err)
		}
		fg := core.NewClient(fgTable, core.Config{
			IndexDir: "idx", Clock: clock,
			CacheBytes: -1, DecodedCacheBytes: -1, PlanCacheTTLVersions: -1, ProbeBatchBytes: -1,
		})
		var fgRequests objectstore.Metrics
		res, err := fg.Search(objectstore.WithTally(ctx, &fgRequests), core.Query{Column: "msg", Substring: []byte("fg-1"), Snapshot: -1})
		if err != nil || len(res.Matches) != 1 || fgRequests.Snapshot().Requests() == 0 {
			t.Fatalf("foreground search: %v, %d requests", err, fgRequests.Snapshot().Requests())
		}
	}
	close(gate.release)
	if err := <-stepped; err != nil {
		t.Fatal(err)
	}
	if err := w.Close(ctx); err != nil {
		t.Fatal(err)
	}
	return s.Registry().Snapshot().Counter("ingest.job_requests")
}

// TestJobRequestsExcludeForegroundSearch: an index job is charged the
// requests it issued itself. A foreground search that runs while the
// job is in flight costs the job nothing; subtracting store-global
// snapshots around the job billed the search to it.
func TestJobRequestsExcludeForegroundSearch(t *testing.T) {
	alone := jobRequestsBeside(t, false)
	beside := jobRequestsBeside(t, true)
	if alone == 0 || beside != alone {
		t.Fatalf("index job charged %d requests beside a foreground search, %d alone", beside, alone)
	}
}
