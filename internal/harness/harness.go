// Package harness is Rottnest's differential correctness harness: it
// runs seeded randomized workloads — ingest, search, index, compact,
// vacuum, concurrently — against an object store with deterministic
// fault injection (objectstore.FaultStore) and bounded-backoff
// recovery (objectstore.RetryStore), and checks every indexed search
// against the brute-force oracle (internal/bruteforce) scanning the
// same bytes through a pristine, fault-free handle.
//
// The harness turns the paper's correctness argument (Section IV) into
// an executable test. A run fails if any of these is violated:
//
//   - Differential equality: every exact search (K=0) at a pinned
//     snapshot returns byte-for-byte the matches the oracle's full
//     scan returns at that snapshot.
//   - Monotone snapshots: the table version observed by any single
//     worker never decreases.
//   - No lost rows / no resurrection: after the storm quiesces, every
//     live planted key is found exactly once, every deleted key not at
//     all, and no lake-vacuumed file reappears in a snapshot.
//   - Existence: every committed index file is present in the bucket,
//     before and after maintenance physically deletes garbage.
//
// With retries enabled, injected faults must be absorbed (any
// surfaced injected error fails the run); with retries disabled the
// same faults surface, which the meta-tests assert — proving the
// injection actually exercises the failure paths.
package harness

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"regexp"
	"runtime"
	"sync"
	"time"

	"rottnest/internal/adaptive"
	"rottnest/internal/bruteforce"
	"rottnest/internal/component"
	"rottnest/internal/core"
	"rottnest/internal/ingest"
	"rottnest/internal/insitu"
	"rottnest/internal/lake"
	"rottnest/internal/objectstore"
	"rottnest/internal/parquet"
	"rottnest/internal/shard"
	"rottnest/internal/simtime"
	"rottnest/internal/workload"
)

// Mode selects the indexed column family a run exercises.
type Mode int

const (
	// ModeUUID ingests 16-byte keys under a trie index and searches
	// exact keys (live, deleted, and absent ones).
	ModeUUID Mode = iota
	// ModeText ingests Zipf documents with planted markers under an
	// FM-index and searches substrings and regexes.
	ModeText
	// ModeCompound ingests two indexed columns (16-byte keys under a
	// trie, documents under an FM-index) and searches compound AND/OR
	// trees spanning both, checked against the multi-column oracle.
	ModeCompound
	// ModeSharded runs the compound workload and additionally replays
	// every differential search through scatter-gather routers at 1, 2,
	// and 5 shards (the 2-shard router with two replicas and hedging),
	// requiring byte-identical results from every fan-out — against the
	// single-node client and the oracle — under the same faults and
	// concurrent maintenance.
	ModeSharded
	// ModeIngest routes every append through the continuous-ingestion
	// writer (micro-batching, group commits, per-producer acks) and
	// replaces explicit index/compact/vacuum ops with budgeted
	// scheduler steps, all under the same faults. It checks ingestion's
	// exactly-once contract end to end: every acked row is visible
	// exactly once even across ambiguous group commits (a committed-
	// but-errored commit round must not duplicate rows on retry), and
	// every search stays byte-identical to the oracle.
	ModeIngest
)

// opsPerWorker is each worker's op count.
const opsPerWorker = 20

// Options configures one harness run.
type Options struct {
	// Seed drives every random decision of the run: the workload
	// generators, each worker's op schedule, the fault profile rolls,
	// and the retry jitter. Same options, same interleaving class.
	Seed int64
	// Mode selects the workload (default ModeUUID).
	Mode Mode
	// Workers is the number of concurrent workers (default 3).
	Workers int
	// Profile is the fault profile injected under the retry layer.
	// The zero profile runs fault-free.
	Profile objectstore.FaultProfile
	// Retry is the recovery policy. Nil runs on the faulty store
	// directly, so injected faults surface as op errors — the
	// configuration the meta-tests use.
	Retry *objectstore.RetryPolicy
	// Adaptive (ModeIngest only) wires a heat ledger and adaptive
	// policy into the scheduler: the query stream feeds the ledger and
	// index jobs chase hot files first (possibly as partial hot-subset
	// builds), so the differential checks prove that heat-driven
	// scheduling never changes what a search returns.
	Adaptive bool
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = 3
	}
	o.Profile.Seed = o.Seed
	if o.Retry != nil {
		retry := *o.Retry
		retry.Seed = o.Seed
		o.Retry = &retry
	}
	return o
}

// Summary reports what a run did, for meta-assertions ("did faults
// actually fire?", "were searches actually compared?").
type Summary struct {
	// Appends, Deletes, and Maintenance count successful mutating ops.
	Appends     int
	Deletes     int
	Maintenance int
	// Searches counts differential searches; every one was compared
	// byte-for-byte against the oracle.
	Searches int
	// MatchesCompared is the total number of matches both sides
	// agreed on.
	MatchesCompared int
	// Faults is what the fault layer injected.
	Faults objectstore.FaultCounts
	// Retries is how many repeated attempts the retry layer made (zero
	// when disabled).
	Retries int64
	// Store is the metering layer's request/byte totals. At every
	// quiescent point its delta since the storm began equals what the
	// ops' own tallies counted (checkConservation).
	Store objectstore.Snapshot
	// FinalVersion is the lake version after the final maintenance.
	FinalVersion int64
	// GroupCommits and BatchesCommitted report the ingest writer's
	// amortization (ModeIngest only): batches exceeding commits means
	// grouping actually occurred under faults.
	GroupCommits     int64
	BatchesCommitted int64
	// LagObservations counts the searchable-lag measurements the
	// scheduler's freshness ledger recorded (ModeIngest only).
	LagObservations int64
	// PeakGoroutines is the most goroutines alive in the process at
	// any sample taken while the run was in flight; a run that crosses
	// goroutineCeiling fails.
	PeakGoroutines int
}

// goroutineCeiling bounds the goroutines alive in the process while a
// run is in flight. A run's own concurrency is its workers times the
// widest request fan: the suite peaks at about 250 with several runs
// sharing the process under t.Parallel. The runaway this guards
// against (a retry or maintenance loop that keeps spawning fans) is in
// the hundreds of thousands within a second.
const goroutineCeiling = 4_000

// watchGoroutines samples the goroutine count until stop closes and
// returns the peak. Crossing the ceiling cancels the run, so a runaway
// fails in milliseconds with its cause instead of spinning to the test
// timeout.
func watchGoroutines(stop <-chan struct{}, cancel context.CancelCauseFunc) int {
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	peak := 0
	for {
		if n := runtime.NumGoroutine(); n > peak {
			if peak = n; n > goroutineCeiling {
				cancel(fmt.Errorf("harness: %d goroutines alive, ceiling %d", n, goroutineCeiling))
			}
		}
		select {
		case <-stop:
			return peak
		case <-tick.C:
		}
	}
}

// world is the shared state of one run.
type world struct {
	opts    Options
	clock   *simtime.VirtualClock
	base    *objectstore.MemStore
	stack   *objectstore.Stack
	table   *lake.Table
	cli     *core.Client
	oracle  *bruteforce.Cluster
	routers []*shard.Router   // ModeSharded: 1-, 2-, and 5-shard fan-outs
	writer  *ingest.Writer    // ModeIngest: the group-commit writer
	sched   *ingest.Scheduler // ModeIngest: the maintenance scheduler

	column string
	kind   component.Kind
	specs  []core.IndexSpec // every indexed column of the mode
	schema *parquet.Schema

	mu      sync.Mutex
	pins    map[int64]int
	live    map[[16]byte]string // uuid mode: key -> insert path
	deleted map[[16]byte]bool
	needles []string // text mode: planted markers
	uuidGen *workload.UUIDGen
	textGen *workload.TextGen
	removed map[string]bool // lake paths physically vacuumed

	searches, compared, appends, deletes, maintenance int

	// ops is the tally every storm and finale op runs under.
	ops objectstore.Metrics

	// budget bounds total virtual-clock advance during the storm so
	// no object ages past the index timeout mid-run (physical garbage
	// collection is exercised in the quiescent final phase instead).
	budget time.Duration
}

var uuidSchema = parquet.MustSchema(
	parquet.Column{Name: "id", Type: parquet.TypeFixedLenByteArray, TypeLen: 16},
	parquet.Column{Name: "payload", Type: parquet.TypeByteArray},
)

var textSchema = parquet.MustSchema(
	parquet.Column{Name: "body", Type: parquet.TypeByteArray},
)

var compoundSchema = parquet.MustSchema(
	parquet.Column{Name: "id", Type: parquet.TypeFixedLenByteArray, TypeLen: 16},
	parquet.Column{Name: "body", Type: parquet.TypeByteArray},
)

// Run executes one seeded workload and returns its summary. The error
// is the first invariant violation or unabsorbed op failure; the
// summary is valid (best-effort) even when err != nil.
func Run(ctx context.Context, opts Options) (*Summary, error) {
	opts = opts.withDefaults()
	w := &world{
		opts:    opts,
		clock:   simtime.NewVirtualClock(),
		pins:    make(map[int64]int),
		live:    make(map[[16]byte]string),
		deleted: make(map[[16]byte]bool),
		removed: make(map[string]bool),
		uuidGen: workload.NewUUIDGen(opts.Seed),
		textGen: workload.NewTextGen(workload.DefaultTextConfig(opts.Seed)),
		budget:  45 * time.Minute,
	}
	w.base = objectstore.NewMemStore(w.clock)
	// The canonical stack, minus the cache (every read must traverse
	// the fault layer so read-path recovery is exercised maximally).
	// The zero latency model meters requests and bytes without
	// charging virtual time, feeding the conservation check.
	w.stack = objectstore.NewStack(w.base, objectstore.StackOptions{
		Faults:     &opts.Profile,
		Retry:      opts.Retry,
		Latency:    &objectstore.LatencyModel{},
		CacheBytes: -1,
	})

	switch opts.Mode {
	case ModeText:
		w.column, w.kind, w.schema = "body", component.KindFM, textSchema
	case ModeCompound, ModeSharded:
		w.column, w.kind, w.schema = "id", component.KindTrie, compoundSchema
		w.specs = append(w.specs, core.IndexSpec{Column: "body", Kind: component.KindFM})
	default:
		w.column, w.kind, w.schema = "id", component.KindTrie, uuidSchema
	}
	w.specs = append([]core.IndexSpec{{Column: w.column, Kind: w.kind}}, w.specs...)

	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	stop, peak := make(chan struct{}), make(chan int)
	go func() { peak <- watchGoroutines(stop, cancel) }()
	err := w.run(ctx)
	close(stop)
	sum := &Summary{
		PeakGoroutines:  <-peak,
		Appends:         w.appends,
		Deletes:         w.deletes,
		Maintenance:     w.maintenance,
		Searches:        w.searches,
		MatchesCompared: w.compared,
		Faults:          w.stack.Fault.Counts(),
		Retries:         w.stack.MetricsSnapshot().Counter("retry.retries"),
		Store:           w.stack.Metrics.Snapshot(),
	}
	if w.writer != nil {
		ws := w.writer.Registry().Snapshot()
		sum.GroupCommits = ws.Counter("ingest.group_commits")
		sum.BatchesCommitted = ws.Counter("ingest.batches_committed")
		sum.LagObservations = w.sched.Registry().Snapshot().Histograms["ingest.searchable_lag_ns"].Count
	}
	if sum.PeakGoroutines > goroutineCeiling {
		err = context.Cause(ctx) // over the cancellation it surfaced as
	}
	if w.table != nil {
		if v, verr := w.table.Version(octx(ctx)); verr == nil {
			sum.FinalVersion = v
		}
	}
	return sum, err
}

// octx attaches a fresh simtime session so retry backoffs and latency
// spikes cost virtual time, not wall time.
func octx(ctx context.Context) context.Context {
	return simtime.With(ctx, simtime.NewSession())
}

func (w *world) run(ctx context.Context) error {
	table, err := lake.CreateWith(octx(ctx), w.stack, "lake", w.schema, lake.OpenOptions{})
	if err != nil {
		return fmt.Errorf("harness: create lake: %w", err)
	}
	w.table = table
	w.cli = core.NewClient(table, core.Config{
		IndexDir: "rottnest",
		Timeout:  time.Hour,
		// No read cache: every read must traverse the fault layer, so
		// read-path recovery is exercised maximally.
		CacheBytes: -1,
	})
	// The oracle reads the same bytes through a pristine handle on the
	// base store: ground truth is never subject to injected faults.
	oracleTable, err := lake.OpenWith(ctx, w.base, "lake", lake.OpenOptions{})
	if err != nil {
		return fmt.Errorf("harness: open oracle: %w", err)
	}
	w.oracle = bruteforce.NewCluster(oracleTable, bruteforce.ClusterConfig{Workers: 4})

	// ModeSharded: scatter-gather routers over the same faulty stack.
	// Every differential search replays through each fan-out and must
	// come back byte-identical (compareCompound). The two-shard router
	// runs two replicas with hedging enabled so the hedge path sees
	// faults too; worker caches are off so every shard read traverses
	// the fault layer (the workers share the stack's retry layer).
	if w.opts.Mode == ModeSharded {
		for _, o := range []shard.Options{
			{Shards: 1},
			{Shards: 2, Replicas: 2, Hedge: shard.HedgeOptions{Enabled: true}},
			{Shards: 5},
		} {
			o.IndexDir = "rottnest"
			o.Timeout = time.Hour
			o.CacheBytes = -1
			r, err := shard.New(octx(ctx), w.stack, "lake", o)
			if err != nil {
				return fmt.Errorf("harness: shard router: %w", err)
			}
			w.routers = append(w.routers, r)
		}
	}

	// ModeIngest: appends flow through the group-commit writer over the
	// same faulty stack, and maintenance runs as scheduler steps. The
	// pause watermark sits above anything the run can accumulate —
	// liveness must not depend on a worker stepping the scheduler while
	// every other worker is blocked in Append — and the request budget
	// is effectively unlimited so every step may work (pacing has its
	// own tests in internal/ingest).
	if w.opts.Mode == ModeIngest {
		w.writer = ingest.NewWriter(table, ingest.WriterOptions{
			MaxBatchRows:       64,
			GroupCommitBatches: 4,
			Parquet:            parquet.WriterOptions{RowGroupRows: 64, PageBytes: 1024},
		})
		var policy *adaptive.Policy
		if w.opts.Adaptive {
			// Heat-driven scheduling under the same faults: searches
			// feed the ledger, index jobs chase hot files (sometimes as
			// partial hot-subset builds), and the differential checks
			// prove none of it changes a search result. No autopilot:
			// demotion has its own virtual-clock test in internal/ingest,
			// and here every column is queried, so it could never fire.
			ledger := adaptive.NewLedger(adaptive.LedgerOptions{Clock: w.clock})
			w.cli.SetHeatObserver(ledger)
			policy = adaptive.NewPolicy(adaptive.PolicyOptions{Ledger: ledger})
		}
		w.sched = ingest.NewScheduler(table, ingest.SchedulerOptions{
			Client:         w.cli,
			Writer:         w.writer,
			Specs:          w.specs,
			RequestsPerSec: 1e9,
			PauseAboveRows: 1 << 30,
			Adaptive:       policy,
		})
	}

	// Seed data so early searches and indexes have something to chew.
	seedRng := rand.New(rand.NewSource(w.opts.Seed))
	for i := 0; i < 2; i++ {
		if err := w.appendBatch(octx(ctx), seedRng); err != nil {
			return err
		}
	}
	if err := w.index(octx(ctx)); err != nil {
		return err
	}

	// The storm: seeded workers interleaving every op type, each op
	// under the world's tally.
	start := w.stack.Metrics.Snapshot()
	errs := make([]error, w.opts.Workers)
	var wg sync.WaitGroup
	for i := 0; i < w.opts.Workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = w.worker(ctx, i)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("harness: worker %d: %w", i, err)
		}
	}
	if err := w.checkConservation(start); err != nil {
		return fmt.Errorf("harness: after storm: %w", err)
	}
	if err := w.finale(objectstore.WithTally(ctx, &w.ops)); err != nil {
		return err
	}
	if err := w.checkConservation(start); err != nil {
		return fmt.Errorf("harness: after finale: %w", err)
	}
	return nil
}

// checkConservation is the one-count guard: every request the metering
// layer served since start was issued by exactly one op and counted
// once on its tally, so the ops' tallies sum to the layer's delta —
// request for request and byte for byte. Only call it when no ops are
// in flight. ModeIngest is exempt: its writer's background committer
// runs on context.Background(), outside every op.
func (w *world) checkConservation(start objectstore.Snapshot) error {
	if w.opts.Mode == ModeIngest {
		return nil
	}
	served, counted := w.stack.Metrics.Snapshot().Sub(start), w.ops.Snapshot()
	if served != counted {
		return fmt.Errorf("request conservation: metering layer served %+v, op tallies counted %+v", served, counted)
	}
	return nil
}

// worker runs one seeded op schedule.
func (w *world) worker(ctx context.Context, id int) error {
	rng := rand.New(rand.NewSource(w.opts.Seed*1000 + int64(id)))
	lastVersion := int64(-1)
	for i := 0; i < opsPerWorker; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		opCtx := objectstore.WithTally(octx(ctx), &w.ops)
		var err error
		if w.opts.Mode == ModeIngest {
			// Maintenance flows through the scheduler instead of
			// explicit index/compact/vacuum ops.
			switch pick := rng.Intn(13); {
			case pick < 4:
				lastVersion, err = w.searchDifferential(opCtx, rng, lastVersion)
			case pick < 7:
				err = w.appendBatch(opCtx, rng)
			case pick < 8:
				err = w.deleteOne(opCtx, rng)
			case pick < 11:
				err = w.schedStep(opCtx)
			case pick == 11:
				err = w.lakeCompact(opCtx)
			default:
				err = w.writerFlush(opCtx)
			}
		} else {
			switch pick := rng.Intn(13); {
			case pick < 4:
				lastVersion, err = w.searchDifferential(opCtx, rng, lastVersion)
			case pick < 6:
				err = w.appendBatch(opCtx, rng)
			case pick < 8:
				err = w.deleteOne(opCtx, rng)
			case pick < 10:
				err = w.index(opCtx)
			case pick == 10:
				err = w.compact(opCtx)
			case pick == 11:
				err = w.lakeCompact(opCtx)
			default:
				err = w.vacuum(opCtx, rng)
			}
		}
		if err != nil {
			return fmt.Errorf("op %d: %w", i, err)
		}
		w.advance(time.Duration(5+rng.Intn(25)) * time.Second)
	}
	return nil
}

// advance moves the world clock forward within the storm budget.
func (w *world) advance(d time.Duration) {
	w.mu.Lock()
	if d > w.budget {
		d = w.budget
	}
	w.budget -= d
	w.mu.Unlock()
	if d > 0 {
		w.clock.Advance(d)
	}
}

// pin registers a snapshot version as in use, protecting it from
// concurrent lake vacuums; the returned func releases it.
func (w *world) pin(v int64) func() {
	w.mu.Lock()
	w.pins[v]++
	w.mu.Unlock()
	return func() {
		w.mu.Lock()
		w.pins[v]--
		if w.pins[v] == 0 {
			delete(w.pins, v)
		}
		w.mu.Unlock()
	}
}

// minPinned is the oldest version a vacuum must keep searchable.
func (w *world) minPinned(latest int64) int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	min := latest
	for v := range w.pins {
		if v < min {
			min = v
		}
	}
	return min
}

// appendBatch ingests one batch and records the planted state.
func (w *world) appendBatch(ctx context.Context, rng *rand.Rand) error {
	n := 40 + rng.Intn(40)
	b := parquet.NewBatch(w.schema)
	var keys [][16]byte
	var needle string
	switch w.opts.Mode {
	case ModeText:
		w.mu.Lock()
		docs := w.textGen.Docs(n)
		needle = fmt.Sprintf("marker-%d-x", len(w.needles))
		w.mu.Unlock()
		docs = workload.PlantNeedle(docs, needle, []int{0, n / 2, n - 1})
		vals := make([][]byte, n)
		for i, d := range docs {
			vals[i] = []byte(d)
		}
		b.Cols[0] = parquet.ColumnValues{Bytes: vals}
	case ModeCompound, ModeSharded:
		// Two indexed columns per row: a unique key and a document.
		// Every document carries the common tag (so key AND tag pins
		// exactly one row); a per-batch marker lands on three rows.
		w.mu.Lock()
		keys = w.uuidGen.Batch(n)
		docs := w.textGen.Docs(n)
		needle = fmt.Sprintf("marker-%d-x", len(w.needles))
		w.mu.Unlock()
		docs = workload.PlantNeedle(docs, needle, []int{0, n / 2, n - 1})
		ids := make([][]byte, n)
		bodies := make([][]byte, n)
		for i, k := range keys {
			kk := k
			ids[i] = kk[:]
			bodies[i] = []byte(docs[i] + " common-tag")
		}
		b.Cols[0] = parquet.ColumnValues{Bytes: ids}
		b.Cols[1] = parquet.ColumnValues{Bytes: bodies}
	default:
		w.mu.Lock()
		keys = w.uuidGen.Batch(n)
		w.mu.Unlock()
		ids := make([][]byte, n)
		pay := make([][]byte, n)
		for i, k := range keys {
			kk := k
			ids[i] = kk[:]
			pay[i] = []byte("p")
		}
		b.Cols[0] = parquet.ColumnValues{Bytes: ids}
		b.Cols[1] = parquet.ColumnValues{Bytes: pay}
	}
	var path string
	if w.opts.Mode == ModeIngest {
		// Through the group-commit writer: the ack resolves only at
		// durability, and its path is where the rows actually landed
		// (possibly a micro-batch shared with other producers).
		ack, err := w.writer.Append(ctx, b)
		if err != nil {
			return fmt.Errorf("writer append: %w", err)
		}
		if _, err := ack.Wait(ctx); err != nil {
			return fmt.Errorf("writer ack: %w", err)
		}
		path = ack.Path()
	} else {
		var err error
		path, err = w.table.Append(ctx, b, parquet.WriterOptions{RowGroupRows: 64, PageBytes: 1024})
		if err != nil {
			return fmt.Errorf("append: %w", err)
		}
	}
	w.mu.Lock()
	if needle != "" {
		w.needles = append(w.needles, needle)
	}
	for _, k := range keys {
		w.live[k] = path
	}
	w.appends++
	w.mu.Unlock()
	return nil
}

// deleteOne removes one row via a deletion vector. UUID mode deletes
// a tracked live key (feeding the exactly-once finale); text mode
// deletes an arbitrary row (the oracle tracks the truth).
func (w *world) deleteOne(ctx context.Context, rng *rand.Rand) error {
	snap, err := w.table.Snapshot(ctx)
	if err != nil {
		return fmt.Errorf("delete: snapshot: %w", err)
	}
	if w.opts.Mode == ModeText {
		if len(snap.Files) == 0 {
			return nil
		}
		f := snap.Files[rng.Intn(len(snap.Files))]
		if f.Rows == 0 {
			return nil
		}
		err := w.table.DeleteRows(ctx, f.Path, []uint32{uint32(rng.Int63n(f.Rows))})
		if errors.Is(err, lake.ErrConflict) || errors.Is(err, lake.ErrNoSnapshot) {
			return nil
		}
		if err != nil {
			return fmt.Errorf("delete rows: %w", err)
		}
		w.mu.Lock()
		w.deletes++
		w.mu.Unlock()
		return nil
	}
	w.mu.Lock()
	var victim [16]byte
	var path string
	for k, p := range w.live {
		victim, path = k, p
		break
	}
	w.mu.Unlock()
	if path == "" {
		return nil
	}
	if _, ok := snap.File(path); !ok {
		return nil // compacted away; key now lives elsewhere
	}
	// Introspection (finding the victim's row) reads the pristine base
	// store: it is the test driver's bookkeeping, not system behaviour.
	vals, _, _, err := parquet.ScanColumn(ctx, w.base, w.table.Root()+path, 0)
	if err != nil {
		return nil // racing lake maintenance
	}
	for i, v := range vals.Bytes {
		if bytes.Equal(v, victim[:]) {
			err := w.table.DeleteRows(ctx, path, []uint32{uint32(i)})
			if errors.Is(err, lake.ErrConflict) {
				return nil
			}
			if err != nil {
				return fmt.Errorf("delete rows: %w", err)
			}
			w.mu.Lock()
			delete(w.live, victim)
			w.deleted[victim] = true
			w.deletes++
			w.mu.Unlock()
			return nil
		}
	}
	return nil
}

func (w *world) index(ctx context.Context) error {
	for _, spec := range w.specs {
		_, err := w.cli.Index(ctx, spec.Column, spec.Kind)
		if errors.Is(err, core.ErrAborted) || errors.Is(err, core.ErrBelowMinRows) {
			continue
		}
		if err != nil {
			return fmt.Errorf("index %s: %w", spec.Column, err)
		}
	}
	return nil
}

func (w *world) compact(ctx context.Context) error {
	for _, spec := range w.specs {
		_, err := w.cli.Compact(ctx, spec.Column, spec.Kind, core.CompactOptions{})
		if errors.Is(err, core.ErrAborted) {
			continue
		}
		if err != nil {
			return fmt.Errorf("compact %s: %w", spec.Column, err)
		}
	}
	return nil
}

func (w *world) lakeCompact(ctx context.Context) error {
	_, err := w.table.Compact(ctx, 1<<30, 0)
	if errors.Is(err, lake.ErrConflict) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("lake compact: %w", err)
	}
	return nil
}

// vacuum runs index or lake garbage collection, keeping every pinned
// snapshot searchable. During the storm the minimum-age rule keeps all
// young objects safe; the finale exercises physical deletion.
func (w *world) vacuum(ctx context.Context, rng *rand.Rand) error {
	latest, err := w.table.Version(ctx)
	if err != nil {
		return fmt.Errorf("vacuum: version: %w", err)
	}
	keep := w.minPinned(latest)
	if rng.Intn(2) == 0 {
		if _, err := w.cli.Vacuum(ctx, core.VacuumOptions{KeepSnapshot: keep}); err != nil {
			return fmt.Errorf("index vacuum: %w", err)
		}
	} else {
		removed, err := w.table.Vacuum(ctx, keep, time.Hour)
		if err != nil {
			return fmt.Errorf("lake vacuum: %w", err)
		}
		w.mu.Lock()
		for _, p := range removed {
			w.removed[p] = true
		}
		w.mu.Unlock()
	}
	w.mu.Lock()
	w.maintenance++
	w.mu.Unlock()
	return nil
}

// schedStep runs one scheduler decision. Concurrent steps may race on
// the same maintenance op (two workers both picking the index job),
// which the protocol resolves by aborting one side — tolerated here
// exactly as the explicit maintenance ops tolerate it.
func (w *world) schedStep(ctx context.Context) error {
	worked, err := w.sched.Step(ctx)
	if errors.Is(err, core.ErrAborted) || errors.Is(err, lake.ErrConflict) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("sched step: %w", err)
	}
	if worked {
		w.mu.Lock()
		w.maintenance++
		w.mu.Unlock()
	}
	return nil
}

// writerFlush forces the writer to commit everything staged so far.
func (w *world) writerFlush(ctx context.Context) error {
	if err := w.writer.Flush(ctx); err != nil {
		return fmt.Errorf("writer flush: %w", err)
	}
	return nil
}

// pickQuery builds one exact K=0 query plus the oracle predicate that
// defines its ground truth.
func (w *world) pickQuery(rng *rand.Rand, version int64) (core.Query, insitu.Predicate, error) {
	if w.opts.Mode == ModeText {
		w.mu.Lock()
		n := len(w.needles)
		var needle string
		if n > 0 {
			needle = w.needles[rng.Intn(n)]
		}
		w.mu.Unlock()
		switch {
		case needle == "" || rng.Intn(4) == 0:
			// All markers at once: a substring shared by every needle.
			pat := []byte("marker-")
			return core.Query{Column: w.column, Substring: pat, K: 0, Snapshot: version},
				func(v []byte) (bool, float64) { return bytes.Contains(v, pat), 0 }, nil
		case rng.Intn(3) == 0:
			expr := `marker-[0-9]+-x`
			re, err := regexp.Compile(expr)
			if err != nil {
				return core.Query{}, nil, err
			}
			return core.Query{Column: w.column, Regex: expr, K: 0, Snapshot: version},
				func(v []byte) (bool, float64) { return re.Match(v), 0 }, nil
		default:
			pat := []byte(needle)
			return core.Query{Column: w.column, Substring: pat, K: 0, Snapshot: version},
				func(v []byte) (bool, float64) { return bytes.Contains(v, pat), 0 }, nil
		}
	}
	// UUID mode: live key usually, deleted or absent key sometimes —
	// negative results must agree too.
	w.mu.Lock()
	var key [16]byte
	roll := rng.Intn(10)
	switch {
	case roll < 7 && len(w.live) > 0:
		for k := range w.live {
			key = k
			break
		}
	case roll < 9 && len(w.deleted) > 0:
		for k := range w.deleted {
			key = k
			break
		}
	default:
		rng.Read(key[:])
	}
	w.mu.Unlock()
	kk := key
	return core.Query{Column: w.column, UUID: &kk, K: 0, Snapshot: version},
		func(v []byte) (bool, float64) { return bytes.Equal(v, kk[:]), 0 }, nil
}

// pickCompound builds one compound K=0 query plus the multi-column
// oracle predicate defining its ground truth. columns lists what the
// oracle must scan, aligned with the vals tuple eval receives;
// outputIdx locates the query's output column in that tuple.
func (w *world) pickCompound(rng *rand.Rand, version int64) (cq core.CompoundQuery, columns []string, outputIdx int, eval func([][]byte) (bool, float64), err error) {
	w.mu.Lock()
	var liveKey, deadKey [16]byte
	haveLive, haveDead := false, false
	for k := range w.live {
		liveKey, haveLive = k, true
		break
	}
	for k := range w.deleted {
		deadKey, haveDead = k, true
		break
	}
	n1, n2 := "marker-", "common-tag"
	if len(w.needles) > 0 {
		n1 = w.needles[rng.Intn(len(w.needles))]
		n2 = w.needles[rng.Intn(len(w.needles))]
	}
	w.mu.Unlock()
	if !haveLive {
		rng.Read(liveKey[:])
	}
	if !haveDead {
		rng.Read(deadKey[:])
	}
	lk, dk := liveKey, deadKey

	has := func(pat string) func(v []byte) bool {
		p := []byte(pat)
		return func(v []byte) bool { return bytes.Contains(v, p) }
	}
	markerRe := regexp.MustCompile(`marker-[0-9]+-x`)
	bodyOnly := func(expr *core.Expr, pred func(v []byte) bool) {
		cq = core.CompoundQuery{Expr: expr, K: 0, Snapshot: version, Output: "body"}
		columns, outputIdx = []string{"body"}, 0
		eval = func(vals [][]byte) (bool, float64) { return pred(vals[0]), 0 }
	}
	cross := func(expr *core.Expr, pred func(id, body []byte) bool) {
		cq = core.CompoundQuery{Expr: expr, K: 0, Snapshot: version, Output: "body"}
		columns, outputIdx = []string{"id", "body"}, 1
		eval = func(vals [][]byte) (bool, float64) { return pred(vals[0], vals[1]), 0 }
	}

	switch rng.Intn(7) {
	case 0:
		// Live key AND the tag every row carries: pins exactly one row
		// through a cross-column page intersection.
		cross(core.And(core.PredUUID("id", lk), core.PredSubstring("body", []byte("common-tag"))),
			func(id, body []byte) bool {
				return bytes.Equal(id, lk[:]) && bytes.Contains(body, []byte("common-tag"))
			})
	case 1:
		p1, p2 := has("marker-"), has(n1)
		bodyOnly(core.And(core.PredSubstring("body", []byte("marker-")), core.PredSubstring("body", []byte(n1))),
			func(v []byte) bool { return p1(v) && p2(v) })
	case 2:
		p1, p2 := has(n1), has(n2)
		bodyOnly(core.Or(core.PredSubstring("body", []byte(n1)), core.PredSubstring("body", []byte(n2))),
			func(v []byte) bool { return p1(v) || p2(v) })
	case 3:
		tag := has("common-tag")
		bodyOnly(core.And(core.PredRegex("body", `marker-[0-9]+-x`), core.PredSubstring("body", []byte("common-tag"))),
			func(v []byte) bool { return markerRe.Match(v) && tag(v) })
	case 4:
		cq = core.CompoundQuery{
			Expr: core.Or(core.PredUUID("id", lk), core.PredUUID("id", dk)),
			K:    0, Snapshot: version, Output: "id",
		}
		columns, outputIdx = []string{"id"}, 0
		eval = func(vals [][]byte) (bool, float64) {
			return bytes.Equal(vals[0], lk[:]) || bytes.Equal(vals[0], dk[:]), 0
		}
	case 5:
		p1, p2, p3 := has(n1), has(n2), has("marker-")
		bodyOnly(core.And(
			core.Or(core.PredSubstring("body", []byte(n1)), core.PredSubstring("body", []byte(n2))),
			core.PredSubstring("body", []byte("marker-"))),
			func(v []byte) bool { return (p1(v) || p2(v)) && p3(v) })
	default:
		// Deleted key AND tag: both sides must agree the row is gone.
		cross(core.And(core.PredUUID("id", dk), core.PredSubstring("body", []byte("common-tag"))),
			func(id, body []byte) bool {
				return bytes.Equal(id, dk[:]) && bytes.Contains(body, []byte("common-tag"))
			})
	}
	return cq, columns, outputIdx, eval, nil
}

// searchDifferential pins a snapshot, searches it through the faulty
// indexed path, scans it through the pristine oracle, and requires
// byte-for-byte identical results. It also checks version
// monotonicity per worker.
func (w *world) searchDifferential(ctx context.Context, rng *rand.Rand, lastVersion int64) (int64, error) {
	v, err := w.table.Version(ctx)
	if err != nil {
		return lastVersion, fmt.Errorf("search: version: %w", err)
	}
	if v < lastVersion {
		return lastVersion, fmt.Errorf("snapshot went backwards: %d after %d", v, lastVersion)
	}
	unpin := w.pin(v)
	defer unpin()

	if w.opts.Mode == ModeCompound || w.opts.Mode == ModeSharded {
		return v, w.compareCompound(ctx, rng, v)
	}

	q, pred, err := w.pickQuery(rng, v)
	if err != nil {
		return v, err
	}
	res, tree, err := w.cli.Trace(ctx, q)
	if err != nil {
		return v, fmt.Errorf("search: %w", err)
	}
	// Span-tree well-formedness: every search's trace must be a closed,
	// named, non-negative tree rooted at the protocol phases.
	if verr := tree.Validate(); verr != nil {
		return v, fmt.Errorf("search span tree (%s): %w", describeQuery(q), verr)
	}
	if tree.Find("search.plan") == nil {
		return v, fmt.Errorf("search span tree (%s): no search.plan phase", describeQuery(q))
	}
	want, _, err := w.oracle.Scan(octx(ctx), v, w.column, pred)
	if err != nil {
		return v, fmt.Errorf("oracle: %w", err)
	}
	if err := diffMatches(res.Matches, want); err != nil {
		return v, fmt.Errorf("differential mismatch at version %d (%s): %w", v, describeQuery(q), err)
	}
	w.mu.Lock()
	w.searches++
	w.compared += len(want)
	w.mu.Unlock()
	return v, nil
}

// compareCompound runs one compound differential search at the pinned
// version: the faulty indexed path against the pristine multi-column
// oracle scan, byte for byte.
func (w *world) compareCompound(ctx context.Context, rng *rand.Rand, v int64) error {
	cq, columns, outputIdx, eval, err := w.pickCompound(rng, v)
	if err != nil {
		return err
	}
	res, tree, err := w.cli.TraceCompound(ctx, cq)
	if err != nil {
		return fmt.Errorf("compound search (%s): %w", describeCompound(cq), err)
	}
	if verr := tree.Validate(); verr != nil {
		return fmt.Errorf("compound span tree (%s): %w", describeCompound(cq), verr)
	}
	if tree.Find("search.plan") == nil {
		return fmt.Errorf("compound span tree (%s): no search.plan phase", describeCompound(cq))
	}
	want, _, err := w.oracle.ScanColumns(octx(ctx), v, columns, outputIdx, eval)
	if err != nil {
		return fmt.Errorf("compound oracle: %w", err)
	}
	if err := diffMatches(res.Matches, want); err != nil {
		return fmt.Errorf("compound differential mismatch at version %d (%s): %w", v, describeCompound(cq), err)
	}
	// ModeSharded: the same pinned query must come back byte-identical
	// through every scatter-gather fan-out. The routers read through
	// the same faulty stack, so per-shard recovery is exercised too,
	// and each trace must be a well-formed scatter tree.
	for _, r := range w.routers {
		rres, rtree, err := r.TraceCompound(ctx, cq)
		if err != nil {
			return fmt.Errorf("sharded search (%d shards, %s): %w", r.Shards(), describeCompound(cq), err)
		}
		if verr := rtree.Validate(); verr != nil {
			return fmt.Errorf("sharded span tree (%d shards, %s): %w", r.Shards(), describeCompound(cq), verr)
		}
		if rtree.Find("router.plan") == nil {
			return fmt.Errorf("sharded span tree (%d shards): no router.plan phase", r.Shards())
		}
		if got := len(rtree.FindAll("router.shard")); got != rres.Stats.Shards {
			return fmt.Errorf("sharded span tree (%d shards): %d router.shard spans, stats say %d",
				r.Shards(), got, rres.Stats.Shards)
		}
		if err := diffMatches(rres.Matches, want); err != nil {
			return fmt.Errorf("sharded differential mismatch at version %d (%d shards, %s): %w",
				v, r.Shards(), describeCompound(cq), err)
		}
		w.mu.Lock()
		w.compared += len(want)
		w.mu.Unlock()
	}
	w.mu.Lock()
	w.searches++
	w.compared += len(want)
	w.mu.Unlock()
	return nil
}

func describeCompound(cq core.CompoundQuery) string {
	if s, err := core.FormatWhere(cq.Expr); err == nil {
		return s
	}
	return "compound"
}

func describeQuery(q core.Query) string {
	switch {
	case q.UUID != nil:
		return fmt.Sprintf("uuid=%x", *q.UUID)
	case q.Regex != "":
		return "regex=" + q.Regex
	default:
		return fmt.Sprintf("substring=%q", q.Substring)
	}
}

// diffMatches requires got == want, byte for byte, after canonical
// ordering.
func diffMatches(got, want []insitu.Match) error {
	got = append([]insitu.Match(nil), got...)
	want = append([]insitu.Match(nil), want...)
	insitu.SortMatches(got)
	insitu.SortMatches(want)
	if len(got) != len(want) {
		return fmt.Errorf("indexed search found %d matches, oracle %d", len(got), len(want))
	}
	for i := range got {
		g, o := got[i], want[i]
		if g.Path != o.Path || g.Row != o.Row || !bytes.Equal(g.Value, o.Value) {
			return fmt.Errorf("match %d differs: indexed (%s,%d,%q) vs oracle (%s,%d,%q)",
				i, g.Path, g.Row, g.Value, o.Path, o.Row, o.Value)
		}
	}
	return nil
}

// finale quiesces the world, ages it past the index timeout, runs the
// full maintenance cycle (exercising physical deletion), and verifies
// the terminal invariants.
func (w *world) finale(ctx context.Context) error {
	fctx := octx(ctx)
	// ModeIngest: drain the writer (every pending ack must resolve)
	// and let the scheduler converge before the terminal invariants.
	if w.writer != nil {
		if err := w.writer.Close(fctx); err != nil {
			return fmt.Errorf("finale writer close: %w", err)
		}
		if err := w.sched.Quiesce(fctx); err != nil {
			return fmt.Errorf("finale scheduler quiesce: %w", err)
		}
	}
	// Age everything past the index timeout so vacuum's physical
	// deletion actually fires, then let one scheduler index what is
	// left, compact and vacuum.
	w.clock.Advance(2 * time.Hour)
	tidy := ingest.NewScheduler(w.table, ingest.SchedulerOptions{
		Client: w.cli, Specs: w.specs,
		Policy: core.MaintainPolicy{CompactWhenEntries: 2},
	})
	if err := tidy.Quiesce(fctx); err != nil {
		return fmt.Errorf("finale maintenance: %w", err)
	}
	latest, err := w.table.Version(fctx)
	if err != nil {
		return err
	}
	removed, err := w.table.Vacuum(fctx, latest, time.Minute)
	if err != nil {
		return fmt.Errorf("finale lake vacuum: %w", err)
	}
	w.mu.Lock()
	for _, p := range removed {
		w.removed[p] = true
	}
	w.maintenance++
	w.mu.Unlock()

	// Existence invariant after physical deletion.
	if err := w.cli.CheckExistence(fctx); err != nil {
		return fmt.Errorf("finale: %w", err)
	}
	// No resurrected vacuumed files.
	snap, err := w.table.Snapshot(fctx)
	if err != nil {
		return err
	}
	for _, f := range snap.Files {
		if w.removed[f.Path] {
			return fmt.Errorf("vacuumed file %s resurrected in snapshot %d", f.Path, snap.Version)
		}
	}

	// Terminal differential sweep plus the exactly-once model check.
	rng := rand.New(rand.NewSource(w.opts.Seed + 42))
	for i := 0; i < 8; i++ {
		if _, err := w.searchDifferential(octx(ctx), rng, -1); err != nil {
			return fmt.Errorf("finale: %w", err)
		}
	}
	if w.opts.Mode != ModeText {
		checked := 0
		for k := range w.live {
			res, err := w.cli.Search(octx(ctx), core.Query{Column: w.column, UUID: ptr(k), K: 0, Snapshot: -1})
			if err != nil {
				return fmt.Errorf("finale live search: %w", err)
			}
			if len(res.Matches) != 1 {
				return fmt.Errorf("live key %x matched %d times (lost or duplicated row)", k, len(res.Matches))
			}
			// Exactly-once must hold through every fan-out too.
			if checked < 10 {
				for _, r := range w.routers {
					rres, err := r.Search(octx(ctx), core.Query{Column: w.column, UUID: ptr(k), K: 0, Snapshot: -1})
					if err != nil {
						return fmt.Errorf("finale sharded live search (%d shards): %w", r.Shards(), err)
					}
					if len(rres.Matches) != 1 {
						return fmt.Errorf("live key %x matched %d times through %d shards", k, len(rres.Matches), r.Shards())
					}
				}
			}
			if checked++; checked >= 30 {
				break
			}
		}
		checked = 0
		for k := range w.deleted {
			res, err := w.cli.Search(octx(ctx), core.Query{Column: w.column, UUID: ptr(k), K: 0, Snapshot: -1})
			if err != nil {
				return fmt.Errorf("finale deleted search: %w", err)
			}
			if len(res.Matches) != 0 {
				return fmt.Errorf("deleted key %x resurrected", k)
			}
			if checked < 5 {
				for _, r := range w.routers {
					rres, err := r.Search(octx(ctx), core.Query{Column: w.column, UUID: ptr(k), K: 0, Snapshot: -1})
					if err != nil {
						return fmt.Errorf("finale sharded deleted search (%d shards): %w", r.Shards(), err)
					}
					if len(rres.Matches) != 0 {
						return fmt.Errorf("deleted key %x resurrected through %d shards", k, r.Shards())
					}
				}
			}
			if checked++; checked >= 15 {
				break
			}
		}
	}
	return nil
}

func ptr(k [16]byte) *[16]byte { return &k }
