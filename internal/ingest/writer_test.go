package ingest

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"rottnest/internal/lake"
	"rottnest/internal/objectstore"
	"rottnest/internal/parquet"
	"rottnest/internal/simtime"
	"rottnest/internal/workload"
)

var testSchema = parquet.MustSchema(
	parquet.Column{Name: "ts", Type: parquet.TypeInt64},
	parquet.Column{Name: "msg", Type: parquet.TypeByteArray},
)

func msgBatch(msgs ...string) *parquet.Batch {
	b := parquet.NewBatch(testSchema)
	ints := make([]int64, len(msgs))
	bytes := make([][]byte, len(msgs))
	for i, m := range msgs {
		ints[i] = int64(i)
		bytes[i] = []byte(m)
	}
	b.Cols[0] = parquet.ColumnValues{Ints: ints}
	b.Cols[1] = parquet.ColumnValues{Bytes: bytes}
	return b
}

func newTestTable(t *testing.T, store objectstore.Store) *lake.Table {
	t.Helper()
	tbl, err := lake.CreateWith(context.Background(), store, "tbl", testSchema, lake.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// rowsAt counts the live rows visible in the latest snapshot.
func rowsAt(t *testing.T, tbl *lake.Table) int64 {
	t.Helper()
	snap, err := tbl.Snapshot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return snap.LiveRows()
}

// TestWriterSizeBoundSeals verifies the size trigger: in manual mode
// nothing commits until Flush, and once flushed, appends that crossed
// MaxBatchRows landed in multiple micro-batches of one group commit.
func TestWriterSizeBoundSeals(t *testing.T) {
	ctx := context.Background()
	clock := simtime.NewVirtualClock()
	store := objectstore.NewMemStore(clock)
	tbl := newTestTable(t, store)
	w := NewWriter(tbl, WriterOptions{MaxBatchRows: 4, Manual: true})

	var acks []*Ack
	for i := 0; i < 10; i++ { // 2 rows each → seal every 2 appends
		a, err := w.Append(ctx, msgBatch("a", "b"))
		if err != nil {
			t.Fatal(err)
		}
		acks = append(acks, a)
	}
	if got := rowsAt(t, tbl); got != 0 {
		t.Fatalf("rows visible before flush: %d", got)
	}
	if err := w.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	for i, a := range acks {
		if v, err := a.Wait(ctx); err != nil || v == 0 {
			t.Fatalf("ack %d: version=%d err=%v", i, v, err)
		}
		if a.Path() == "" {
			t.Fatalf("ack %d has no path", i)
		}
	}
	if got := rowsAt(t, tbl); got != 20 {
		t.Fatalf("rows = %d, want 20", got)
	}
	// 10 appends × 2 rows at 4-row seals = 5 sealed batches; with the
	// default group size 8 that is one group commit of 5 files.
	reg := w.Registry().Snapshot()
	if got := reg.Counter("ingest.group_commits"); got != 1 {
		t.Fatalf("group_commits = %d, want 1", got)
	}
	if got := reg.Counter("ingest.batches_committed"); got != 5 {
		t.Fatalf("batches_committed = %d, want 5", got)
	}
	if err := w.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestWriterAgeBoundSeals verifies the age trigger under a virtual
// clock: a Tick before maxBatchAge leaves rows staged, a Tick at the
// age commits them (manual mode).
func TestWriterAgeBoundSeals(t *testing.T) {
	ctx := context.Background()
	clock := simtime.NewVirtualClock()
	store := objectstore.NewMemStore(clock)
	tbl := newTestTable(t, store)
	w := NewWriter(tbl, WriterOptions{Manual: true})

	a, err := w.Append(ctx, msgBatch("x"))
	if err != nil {
		t.Fatal(err)
	}
	clock.Advance(maxBatchAge - time.Millisecond)
	if err := w.Tick(ctx); err != nil {
		t.Fatal(err)
	}
	if got := rowsAt(t, tbl); got != 0 {
		t.Fatalf("young batch committed early: %d rows", got)
	}
	clock.Advance(time.Millisecond)
	if err := w.Tick(ctx); err != nil {
		t.Fatal(err)
	}
	if v, err := a.Wait(ctx); err != nil || v == 0 {
		t.Fatalf("ack after age seal: version=%d err=%v", v, err)
	}
	if got := rowsAt(t, tbl); got != 1 {
		t.Fatalf("rows = %d, want 1", got)
	}
	if err := w.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestWriterGroupCommitOneRound is the core amortization property: 8
// sealed batches land through one conditional PUT (one log version).
func TestWriterGroupCommitOneRound(t *testing.T) {
	ctx := context.Background()
	clock := simtime.NewVirtualClock()
	store := objectstore.NewMemStore(clock)
	tbl := newTestTable(t, store)
	w := NewWriter(tbl, WriterOptions{MaxBatchRows: 1, GroupCommitBatches: 8, Manual: true})

	before, err := tbl.Version(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := w.Append(ctx, msgBatch(fmt.Sprintf("p%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	after, err := tbl.Version(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if after-before != 1 {
		t.Fatalf("8 batches advanced %d versions, want 1", after-before)
	}
	if err := w.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestWriterGroupCommitRequestCounts pins the writer's requests on
// the continuous-ingestion stream, on the S3 model: 8 producers
// each commit 6 micro-batches of 128 keys (seed 13), once through a
// lake append per batch and once through the writer, the producers
// interleaving round-robin so every flush finds a full group. The
// writer commits 6 rounds where the appends commit 48 — an 8x cut in
// conditional PUTs on the log — and its 48 acks cost its long-lived
// handle 54 requests: the 48 file PUTs and the 6 conditional ones, and
// no read of the log.
func TestWriterGroupCommitRequestCounts(t *testing.T) {
	ctx := context.Background()
	clock := simtime.NewVirtualClock()
	const producers, rounds, rows = 8, 6, 128
	stream := func(grouped bool) (commits int64, reqs objectstore.Snapshot) {
		model := objectstore.DefaultS3Model()
		store := objectstore.NewStack(objectstore.NewMemStore(clock), objectstore.StackOptions{Latency: &model, CacheBytes: -1})
		tbl, err := lake.CreateWith(ctx, store, "lake", keySchema, lake.OpenOptions{})
		if err != nil {
			t.Fatal(err)
		}
		w := NewWriter(tbl, WriterOptions{MaxBatchRows: rows, GroupCommitBatches: producers, Manual: true})
		keys := workload.NewUUIDGen(13)
		before, err := tbl.Version(ctx)
		if err != nil {
			t.Fatal(err)
		}
		var m objectstore.Metrics
		tctx := objectstore.WithTally(ctx, &m)
		for r := 0; r < rounds; r++ {
			for p := 0; p < producers; p++ {
				if grouped {
					_, err = w.Append(tctx, keyBatch(keys, rows))
				} else {
					_, err = tbl.Append(tctx, keyBatch(keys, rows), parquet.WriterOptions{})
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			if grouped {
				if err := w.Flush(tctx); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := w.Close(ctx); err != nil {
			t.Fatal(err)
		}
		after, err := tbl.Version(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return after - before, m.Snapshot()
	}
	if perBatch, _ := stream(false); perBatch != producers*rounds {
		t.Errorf("per-batch appends committed %d rounds, want one per batch (%d)", perBatch, producers*rounds)
	}
	grouped, reqs := stream(true)
	if grouped != 6 {
		t.Errorf("group commit of %d batches took %d rounds, want 6", producers*rounds, grouped)
	}
	if reqs.Lists != 0 || reqs.Gets != 0 || reqs.Puts != 54 {
		t.Errorf("%d acked batches issued %d LISTs, %d GETs, %d PUTs; want 0, 0, 54",
			producers*rounds, reqs.Lists, reqs.Gets, reqs.Puts)
	}
}

var keySchema = parquet.MustSchema(parquet.Column{Name: "id", Type: parquet.TypeFixedLenByteArray, TypeLen: 16})

// keyBatch is a micro-batch of the generator's next n keys.
func keyBatch(gen *workload.UUIDGen, n int) *parquet.Batch {
	b := parquet.NewBatch(keySchema)
	ks := gen.Batch(n)
	ids := make([][]byte, n)
	for i := range ks {
		ids[i] = ks[i][:]
	}
	b.Cols[0] = parquet.ColumnValues{Bytes: ids}
	return b
}

// TestWriterCloseDrainsUnderFaults verifies Close resolves every
// pending ack even when the store injects transient faults, ambiguous
// conditional PUTs, and latency spikes — and that no acked row is
// duplicated or lost.
func TestWriterCloseDrainsUnderFaults(t *testing.T) {
	ctx := context.Background()
	clock := simtime.NewVirtualClock()
	mem := objectstore.NewMemStore(clock)
	tbl0 := newTestTable(t, mem)
	_ = tbl0
	for seed := int64(1); seed <= 5; seed++ {
		faulty := objectstore.NewFaultStoreWithProfile(mem, objectstore.FaultProfile{
			Seed:         seed,
			Transient:    0.1,
			AmbiguousPut: 0.3,
		})
		retry := objectstore.NewRetryStore(faulty, objectstore.RetryPolicy{})
		tbl, err := lake.OpenWith(ctx, retry, "tbl", lake.OpenOptions{})
		if err != nil {
			t.Fatal(err)
		}
		liveBefore := rowsAt(t, tbl)

		w := NewWriter(tbl, WriterOptions{MaxBatchRows: 2, GroupCommitBatches: 4})
		var acks []*Ack
		for i := 0; i < 12; i++ {
			a, err := w.Append(ctx, msgBatch(fmt.Sprintf("s%d-%d", seed, i)))
			if err != nil {
				t.Fatal(err)
			}
			acks = append(acks, a)
		}
		if err := w.Close(ctx); err != nil {
			t.Fatal(err)
		}
		var ackedRows int64
		for i, a := range acks {
			select {
			case <-a.Done():
			default:
				t.Fatalf("seed %d: ack %d unresolved after Close", seed, i)
			}
			if a.Err() == nil {
				ackedRows++
			}
		}
		// Every successfully acked row is visible exactly once; failed
		// acks' rows must not appear (exactly-once, no duplicates).
		if got := rowsAt(t, tbl) - liveBefore; got != ackedRows {
			t.Fatalf("seed %d: %d rows visible, %d acked", seed, got, ackedRows)
		}
		if _, err := w.Append(ctx, msgBatch("late")); err != ErrClosed {
			t.Fatalf("append after close: %v", err)
		}
	}
}

// TestWriterBackpressure verifies Append blocks at the pending-row
// budget and unblocks as commits drain, and that a paused writer
// blocks producers until resumed.
func TestWriterBackpressure(t *testing.T) {
	ctx := context.Background()
	clock := simtime.NewVirtualClock()
	store := objectstore.NewMemStore(clock)
	tbl := newTestTable(t, store)
	w := NewWriter(tbl, WriterOptions{MaxBatchRows: 2, MaxPendingRows: 4, Manual: true})

	for i := 0; i < 2; i++ {
		if _, err := w.Append(ctx, msgBatch("a", "b")); err != nil {
			t.Fatal(err)
		}
	}
	// Budget is full (4 pending): the next Append must block until a
	// flush drains, or fail via ctx.
	short, cancel := context.WithCancel(ctx)
	blocked := make(chan error, 1)
	go func() {
		_, err := w.Append(short, msgBatch("c"))
		blocked <- err
	}()
	select {
	case err := <-blocked:
		t.Fatalf("append did not block at budget: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	cancel()
	if err := <-blocked; err != context.Canceled {
		t.Fatalf("blocked append: %v, want context.Canceled", err)
	}
	if got := w.Registry().Snapshot().Counter("ingest.backpressure_waits"); got == 0 {
		t.Fatal("no backpressure wait recorded")
	}
	if err := w.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(ctx, msgBatch("c")); err != nil {
		t.Fatalf("append after drain: %v", err)
	}

	// Pause blocks producers; Resume releases them.
	w.Pause()
	unpaused := make(chan error, 1)
	go func() {
		_, err := w.Append(ctx, msgBatch("d"))
		unpaused <- err
	}()
	select {
	case err := <-unpaused:
		t.Fatalf("append did not block while paused: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	w.Resume()
	if err := <-unpaused; err != nil {
		t.Fatalf("append after resume: %v", err)
	}
	if err := w.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

// slowStore advances the clock by delay inside every conditional PUT
// (the commit primitive), so a group commit takes delay of the
// writer's clock.
type slowStore struct {
	objectstore.Store
	clock *simtime.VirtualClock
	delay time.Duration
}

func (s *slowStore) Clock() simtime.Clock { return objectstore.ClockOf(s.Store) }

func (s *slowStore) PutIfAbsent(ctx context.Context, key string, data []byte) error {
	s.clock.Advance(s.delay)
	return s.Store.PutIfAbsent(ctx, key, data)
}

// TestWriterSlowCommitHalvesBudget pins the slow-commit backpressure:
// once the commit-latency EMA passes 2 s the pending-row budget
// halves, and it is restored only when fast commits bring the EMA
// back under. The EMA weighs each new commit by 1/4: 3 s, then
// 2.25 s, then 1.69 s.
func TestWriterSlowCommitHalvesBudget(t *testing.T) {
	ctx := context.Background()
	clock := simtime.NewVirtualClock()
	mem := objectstore.NewMemStore(clock)
	newTestTable(t, mem) // create "tbl" on the raw store
	store := &slowStore{Store: mem, clock: clock}
	tbl, err := lake.OpenWith(ctx, store, "tbl", lake.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	w := NewWriter(tbl, WriterOptions{MaxPendingRows: 4, Manual: true})
	defer w.Close(ctx)

	// commit lands one staged row in a commit that takes delay.
	commit := func(delay time.Duration) {
		t.Helper()
		if _, err := w.Append(ctx, msgBatch("a")); err != nil {
			t.Fatal(err)
		}
		store.delay = delay
		if err := w.Flush(ctx); err != nil {
			t.Fatal(err)
		}
	}
	// fits reports whether, with one row pending, an Append of two
	// more gets in: 3 rows fit the full budget of 4, not a halved 2.
	fits := func() bool {
		t.Helper()
		if _, err := w.Append(ctx, msgBatch("b")); err != nil {
			t.Fatal(err)
		}
		short, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
		defer cancel()
		_, err := w.Append(short, msgBatch("c", "d"))
		if err != nil && err != context.DeadlineExceeded {
			t.Fatal(err)
		}
		return err == nil
	}

	if !fits() {
		t.Fatal("append blocked before any commit")
	}
	commit(3 * time.Second) // EMA 3 s
	if fits() {
		t.Fatal("EMA 3 s: append of 3 pending rows went through, want the budget halved to 2")
	}
	commit(0) // EMA 2.25 s
	if fits() {
		t.Fatal("EMA 2.25 s: append of 3 pending rows went through, want the budget still halved")
	}
	commit(0) // EMA 1.69 s
	if !fits() {
		t.Fatal("EMA 1.69 s: append of 3 pending rows blocked, want the full budget of 4")
	}
}

// TestWriterConcurrentProducers exercises the auto-mode committer
// with many concurrent producers (the -race gate for the writer): all
// acks resolve successfully and every row is visible exactly once.
func TestWriterConcurrentProducers(t *testing.T) {
	ctx := context.Background()
	clock := simtime.NewVirtualClock()
	store := objectstore.NewMemStore(clock)
	tbl := newTestTable(t, store)
	w := NewWriter(tbl, WriterOptions{MaxBatchRows: 8, GroupCommitBatches: 4})

	const producers, appends = 8, 20
	var wg sync.WaitGroup
	errs := make([]error, producers)
	for p := 0; p < producers; p++ {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < appends; i++ {
				a, err := w.Append(ctx, msgBatch(fmt.Sprintf("p%d-%d", p, i)))
				if err != nil {
					errs[p] = err
					return
				}
				if _, err := a.Wait(ctx); err != nil {
					errs[p] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	for p, err := range errs {
		if err != nil {
			t.Fatalf("producer %d: %v", p, err)
		}
	}
	if err := w.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if got := rowsAt(t, tbl); got != producers*appends {
		t.Fatalf("rows = %d, want %d", got, producers*appends)
	}
	reg := w.Registry().Snapshot()
	commits := reg.Counter("ingest.group_commits")
	batches := reg.Counter("ingest.batches_committed")
	if commits == 0 || batches < commits {
		t.Fatalf("group_commits=%d batches=%d", commits, batches)
	}
}

// TestWriterRejectsCrossProducerSchemaMismatch verifies Append rejects
// a batch whose schema differs from the staging batch's even at equal
// arity — merging differently named or typed columns would silently
// corrupt the staged file.
func TestWriterRejectsCrossProducerSchemaMismatch(t *testing.T) {
	ctx := context.Background()
	clock := simtime.NewVirtualClock()
	store := objectstore.NewMemStore(clock)
	tbl := newTestTable(t, store)
	w := NewWriter(tbl, WriterOptions{MaxBatchRows: 100, Manual: true})

	if _, err := w.Append(ctx, msgBatch("a")); err != nil {
		t.Fatal(err)
	}
	// Same column count as testSchema, but the second column has a
	// different name and type; the batch passes its own Validate.
	other := parquet.MustSchema(
		parquet.Column{Name: "ts", Type: parquet.TypeInt64},
		parquet.Column{Name: "level", Type: parquet.TypeInt64},
	)
	b := parquet.NewBatch(other)
	b.Cols[0] = parquet.ColumnValues{Ints: []int64{1}}
	b.Cols[1] = parquet.ColumnValues{Ints: []int64{2}}
	if _, err := w.Append(ctx, b); err == nil {
		t.Fatal("append with mismatched schema of equal arity succeeded")
	}
	if err := w.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

// gateStore blocks conditional PUTs (the commit primitive) until the
// test grants permits, parking group commits in flight.
type gateStore struct {
	objectstore.Store
	mu      sync.Mutex
	cond    *sync.Cond
	permits int
	open    bool
}

func (g *gateStore) Clock() simtime.Clock { return objectstore.ClockOf(g.Store) }

func newGateStore(inner objectstore.Store) *gateStore {
	g := &gateStore{Store: inner}
	g.cond = sync.NewCond(&g.mu)
	return g
}

func (g *gateStore) PutIfAbsent(ctx context.Context, key string, data []byte) error {
	g.mu.Lock()
	for !g.open && g.permits == 0 {
		g.cond.Wait()
	}
	if !g.open {
		g.permits--
	}
	g.mu.Unlock()
	return g.Store.PutIfAbsent(ctx, key, data)
}

// Allow grants n conditional PUTs.
func (g *gateStore) Allow(n int) {
	g.mu.Lock()
	g.permits += n
	g.cond.Broadcast()
	g.mu.Unlock()
}

// AllowAll opens the gate permanently.
func (g *gateStore) AllowAll() {
	g.mu.Lock()
	g.open = true
	g.cond.Broadcast()
	g.mu.Unlock()
}

// TestWriterFlushWaitsOnlyOnPriorRows pins Flush's snapshot
// semantics: rows appended after Flush was called do not extend its
// wait, so sustained concurrent producers cannot starve it. Commits
// are gated so exactly the two pre-Flush micro-batches can land while
// a post-Flush batch stays parked.
func TestWriterFlushWaitsOnlyOnPriorRows(t *testing.T) {
	ctx := context.Background()
	clock := simtime.NewVirtualClock()
	mem := objectstore.NewMemStore(clock)
	newTestTable(t, mem) // create "tbl" on the raw store
	gate := newGateStore(mem)
	tbl, err := lake.OpenWith(ctx, gate, "tbl", lake.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	w := NewWriter(tbl, WriterOptions{MaxBatchRows: 1, GroupCommitBatches: 1})

	a1, err := w.Append(ctx, msgBatch("pre-1"))
	if err != nil {
		t.Fatal(err)
	}
	a2, err := w.Append(ctx, msgBatch("pre-2"))
	if err != nil {
		t.Fatal(err)
	}

	flushed := make(chan error, 1)
	go func() { flushed <- w.Flush(ctx) }()
	// Give Flush a beat to seal and snapshot its acks; if the snapshot
	// raced to include the post row the test fails by timeout below
	// (never passes wrongly).
	time.Sleep(100 * time.Millisecond)
	a3, err := w.Append(ctx, msgBatch("post"))
	if err != nil {
		t.Fatal(err)
	}

	// Two permits: the committer lands pre-1 then pre-2 (one
	// conditional PUT each, uncontended), then parks on post.
	gate.Allow(2)
	select {
	case err := <-flushed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Flush starved: waiting on rows appended after the call")
	}
	<-a1.Done()
	<-a2.Done()
	select {
	case <-a3.Done():
		t.Fatal("post-Flush ack resolved while its commit was gated")
	default:
	}

	gate.AllowAll()
	if err := w.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := a3.Wait(ctx); err != nil {
		t.Fatal(err)
	}
}
