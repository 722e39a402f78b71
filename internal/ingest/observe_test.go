package ingest

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"rottnest/internal/component"
	"rottnest/internal/core"
	"rottnest/internal/objectstore"
	"rottnest/internal/simtime"
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
	if len(cov.snapPaths) != 4 || len(cov.perSpec[0]) != 2 {
		t.Fatalf("observed %d files, %d covered; want 4 and 2", len(cov.snapPaths), len(cov.perSpec[0]))
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
