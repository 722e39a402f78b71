package ingest

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"rottnest/internal/adaptive"
	"rottnest/internal/component"
	"rottnest/internal/core"
	"rottnest/internal/ivfpq"
	"rottnest/internal/lake"
	"rottnest/internal/objectstore"
	"rottnest/internal/parquet"
	"rottnest/internal/simtime"
	"rottnest/internal/workload"
)

// listGate, once armed, tells when the next LIST of the lake log has
// been served and holds the next LIST of the metadata log until
// released.
type listGate struct {
	objectstore.Store
	mu                  sync.Mutex
	watchLake, holdMeta bool
	lakeListed          chan struct{}
	held                chan struct{}
	release             chan struct{}
}

func (g *listGate) Clock() simtime.Clock { return objectstore.ClockOf(g.Store) }

func (g *listGate) arm() {
	g.mu.Lock()
	g.watchLake, g.holdMeta = true, true
	g.mu.Unlock()
}

func (g *listGate) List(ctx context.Context, prefix string) ([]objectstore.ObjectInfo, error) {
	g.mu.Lock()
	hold := g.holdMeta && strings.Contains(prefix, "_meta")
	watch := g.watchLake && strings.Contains(prefix, "_log")
	if hold {
		g.holdMeta = false
	}
	if watch {
		g.watchLake = false
	}
	g.mu.Unlock()
	if hold {
		close(g.held)
		<-g.release
	}
	infos, err := g.Store.List(ctx, prefix)
	if watch {
		close(g.lakeListed)
	}
	return infos, err
}

// TestOnCoveredReportsFileCommittedDuringObserve: observe reads the
// snapshot and then waits on the metadata listing; a file committed and
// noted in that window is in the ledger but not in the snapshot read.
// It is not "compacted or removed" — the snapshot is older than the
// file — so it must stay in the ledger and be reported once covered.
// The commit before this one dropped it there, and OnCovered reported
// 30 of the wall-clock benchmark's 40 files.
func TestOnCoveredReportsFileCommittedDuringObserve(t *testing.T) {
	ctx := context.Background()
	clock := simtime.NewVirtualClock()
	gate := &listGate{Store: objectstore.NewMemStore(clock),
		lakeListed: make(chan struct{}), held: make(chan struct{}), release: make(chan struct{})}
	tbl := newTestTable(t, gate)
	w := NewWriter(tbl, WriterOptions{MaxBatchRows: 2, Manual: true})
	var mu sync.Mutex
	covered := make(map[string]int)
	s := NewScheduler(tbl, SchedulerOptions{
		Writer: w,
		Config: core.Config{IndexDir: "idx"},
		Specs:  []core.IndexSpec{{Column: "msg", Kind: component.KindFM}},
		OnCovered: func(path string, _ int64, _ time.Duration) {
			mu.Lock()
			covered[path]++
			mu.Unlock()
		},
	})
	first, err := w.Append(ctx, msgBatch("first-1", "first-2"))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(ctx); err != nil {
		t.Fatal(err)
	}

	// The step's observation has its snapshot and is held at the
	// metadata listing when the second file commits.
	gate.arm()
	stepped := make(chan error, 1)
	go func() {
		_, err := s.Step(ctx)
		stepped <- err
	}()
	<-gate.held
	<-gate.lakeListed
	second, err := w.Append(ctx, msgBatch("second-1", "second-2"))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	close(gate.release)
	if err := <-stepped; err != nil {
		t.Fatal(err)
	}
	if err := s.Quiesce(ctx); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	for name, ack := range map[string]*Ack{"first": first, "second": second} {
		if covered[ack.Path()] != 1 {
			t.Errorf("OnCovered fired %d times for the %s file, want once (%v)", covered[ack.Path()], name, covered)
		}
	}
	if err := w.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestObserveIsOneListLevel: a step's observation reads the lake log
// and the metadata log side by side, and the handles remember both, so
// it is one LIST deep — 60 ms on the S3 model — and fetches nothing. It
// was the lake LIST and its log fan, then the metadata LIST.
func TestObserveIsOneListLevel(t *testing.T) {
	ctx := context.Background()
	clock := simtime.NewVirtualClock()
	model := objectstore.DefaultS3Model()
	store := objectstore.NewStack(objectstore.NewMemStore(clock), objectstore.StackOptions{Latency: &model, CacheBytes: -1})
	metrics := store.Metrics
	tbl := newTestTable(t, store)
	w := NewWriter(tbl, WriterOptions{MaxBatchRows: 2, Manual: true})
	s := NewScheduler(tbl, SchedulerOptions{
		Writer: w,
		Config: core.Config{IndexDir: "idx", CacheBytes: -1},
		Specs:  []core.IndexSpec{{Column: "msg", Kind: component.KindFM}},
	})
	ingestRows(t, ctx, w, "a", 4)
	if err := s.Quiesce(ctx); err != nil {
		t.Fatal(err)
	}
	ingestRows(t, ctx, w, "b", 4)

	session := simtime.NewSession()
	before := metrics.Snapshot()
	cov, err := s.observe(simtime.With(ctx, session))
	if err != nil {
		t.Fatal(err)
	}
	reqs := metrics.Snapshot().Sub(before)
	if len(cov.snap.Files) != 4 || cov.statuses[0].CoveredFiles != 2 {
		t.Fatalf("observed %d files, %d covered; want 4 and 2", len(cov.snap.Files), cov.statuses[0].CoveredFiles)
	}
	if reqs.Lists != 2 || reqs.Gets != 0 {
		t.Errorf("observe issued %d LISTs and %d GETs, want 2 and 0", reqs.Lists, reqs.Gets)
	}
	if got := session.Elapsed(); got < model.ListTTFB || got >= model.ListTTFB+5*time.Millisecond {
		t.Errorf("observe took %v of virtual time, want one LIST level (%v)", got, model.ListTTFB)
	}
	if err := w.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestStepDecidesFromItsObservation: an adaptive step with an autopilot
// and a vector spec whose probe traffic warrants a refinement makes
// every decision — the autopilot's verdicts, coverage, the job and the
// refinement's plan — from its one observation, so all it issues before
// the job starts is the observation's 2 LISTs, one LIST level on the S3
// model. The autopilot's refresh read the lake log and then Status for
// itself (3 LISTs, two levels more), and the refinement planner listed
// the metadata table again (a LIST and a level more).
func TestStepDecidesFromItsObservation(t *testing.T) {
	ctx := context.Background()
	const dim = 8
	clock := simtime.NewVirtualClock()
	model := objectstore.DefaultS3Model()
	store := objectstore.NewStack(objectstore.NewMemStore(clock), objectstore.StackOptions{Latency: &model, CacheBytes: -1})
	schema := parquet.MustSchema(parquet.Column{Name: "emb", Type: parquet.TypeFixedLenByteArray, TypeLen: 4 * dim})
	tbl, err := lake.CreateWith(ctx, store, "tbl", schema, lake.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cli := core.NewClient(tbl, core.Config{IndexDir: "idx", CacheBytes: -1})
	specs := []core.IndexSpec{{Column: "emb", Kind: component.KindIVFPQ}}
	ledger := adaptive.NewLedger(adaptive.LedgerOptions{Clock: clock})
	cli.SetHeatObserver(ledger)
	// As in TestSchedulerAdaptiveColdColumnNeverIndexed: a queried
	// column stays on the indexing path.
	pilot := adaptive.NewAutopilot(cli, ledger, specs, adaptive.AutopilotOptions{RefreshEvery: -1, ScanBytesPerSec: 1})
	s := NewScheduler(tbl, SchedulerOptions{
		Client:   cli,
		Specs:    specs,
		Adaptive: adaptive.NewPolicy(adaptive.PolicyOptions{Ledger: ledger, Pilot: pilot, Refine: ivfpq.RefineOptions{Seed: 1}}),
	})
	gen := workload.NewVectorGen(workload.VectorConfig{Seed: 72, Dim: dim, Clusters: 4})
	b := parquet.NewBatch(schema)
	vals := make([][]byte, 500)
	for i, v := range gen.Batch(len(vals)) {
		vals[i] = workload.Float32sToBytes(v)
	}
	b.Cols[0] = parquet.ColumnValues{Bytes: vals}
	if _, err := tbl.Append(ctx, b, parquet.WriterOptions{}); err != nil {
		t.Fatal(err)
	}
	queries := gen.Queries(9)
	search := func(q []float32) {
		t.Helper()
		if _, err := cli.Search(ctx, core.Query{Column: "emb", Vector: q, K: 5, Snapshot: -1}); err != nil {
			t.Fatal(err)
		}
	}
	// One query keeps the column on the indexing path; eight more are
	// the probe traffic a refinement waits for.
	search(queries[0])
	if err := s.Quiesce(ctx); err != nil {
		t.Fatal(err)
	}
	if got := s.Registry().Snapshot().Counter("ingest.jobs_index"); got != 1 {
		t.Fatalf("jobs_index = %d, want the vector index built", got)
	}
	for _, q := range queries[1:] {
		search(q)
	}

	session := simtime.NewSession()
	sctx := simtime.With(ctx, session)
	before := store.Metrics.Snapshot()
	cov, err := s.observe(sctx)
	if err != nil {
		t.Fatal(err)
	}
	job, counter := s.pickJob(cov, false)
	reqs := store.Metrics.Snapshot().Sub(before)
	if job == nil || counter != s.jobsRefine {
		t.Fatalf("picked job %v of counter %p, want the refinement (%p)", job != nil, counter, s.jobsRefine)
	}
	if reqs.Lists != 2 || reqs.Gets != 0 || reqs.Puts != 0 {
		t.Errorf("before the job: %d LISTs, %d GETs, %d PUTs; want the observation's 2 LISTs alone", reqs.Lists, reqs.Gets, reqs.Puts)
	}
	if got := session.Elapsed(); got < model.ListTTFB || got >= model.ListTTFB+5*time.Millisecond {
		t.Errorf("before the job: %v of virtual time, want one LIST level (%v)", got, model.ListTTFB)
	}
	if err := job(ctx); err != nil {
		t.Fatalf("refinement: %v", err)
	}
	entries, err := cli.ListIndexes(ctx, "emb", component.KindIVFPQ)
	if err != nil || len(entries) != 1 || entries[0].IndexKey == cov.entries[0].IndexKey {
		t.Fatalf("vector rows after the refinement = %+v, %v; want one new row", entries, err)
	}
	if err := cli.CheckExistence(ctx); err != nil {
		t.Fatal(err)
	}
}
