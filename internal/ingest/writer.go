// Package ingest is the continuous-ingestion subsystem: a
// micro-batching writer that group-commits many producers' appends in
// one log round, and a budgeted maintenance scheduler that keeps
// indexes fresh behind the stream (ROADMAP "Continuous ingestion +
// maintenance scheduler").
//
// The writer amortizes the lake's conditional-PUT commit round: N
// micro-batches become N Add actions in a single log entry, so eight
// concurrent producers cost one PUT per group instead of eight. The
// scheduler watches commit hooks, schedules index/compact/vacuum by
// priority under a requests/sec budget derived from the store's
// throttle headroom, and pushes back on the writer when unindexed
// rows outrun indexing.
package ingest

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"rottnest/internal/lake"
	"rottnest/internal/obs"
	"rottnest/internal/parquet"
	"rottnest/internal/simtime"
)

// ErrClosed reports an Append or Flush on a closed writer.
var ErrClosed = errors.New("ingest: writer closed")

// WriterOptions configure a Writer. The zero value is usable: every
// bound has a sensible default.
type WriterOptions struct {
	// MaxBatchRows seals the staging micro-batch when it reaches this
	// many rows. Default 1024.
	MaxBatchRows int
	// GroupCommitBatches is the most sealed micro-batches one commit
	// round may carry. Default 8.
	GroupCommitBatches int
	// MaxPendingRows bounds in-flight memory: Append blocks once this
	// many rows are staged or awaiting commit. When the observed
	// commit latency exceeds 2 s (slowCommit) the effective bound halves,
	// pushing back on producers before the queue grows. Default 1<<16.
	MaxPendingRows int
	// Parquet are the options for the staged data files.
	Parquet parquet.WriterOptions
	// Manual disables the background committer: batches commit only
	// on Flush, Tick (age-sealed groups), or Close. Deterministic
	// drivers (benchmarks, tests) use it to control grouping exactly.
	Manual bool
}

// maxBatchBytes seals the staging micro-batch when its estimated
// in-memory size reaches this many bytes.
const maxBatchBytes = 1 << 20

// maxBatchAge seals the staging micro-batch when its oldest row has
// waited this long by the table's clock. Age is checked on Tick, so a
// caller (the scheduler's run loop, or a test driving a virtual clock)
// must tick the writer for the bound to fire.
const maxBatchAge = 500 * time.Millisecond

// slowCommit is the commit-latency threshold (exponential moving
// average over group commits) above which the writer halves its
// pending budget.
const slowCommit = 2 * time.Second

func (o WriterOptions) withDefaults() WriterOptions {
	if o.MaxBatchRows <= 0 {
		o.MaxBatchRows = 1024
	}
	if o.GroupCommitBatches <= 0 {
		o.GroupCommitBatches = 8
	}
	if o.MaxPendingRows <= 0 {
		o.MaxPendingRows = 1 << 16
	}
	return o
}

// CommittedFile describes one data file a group commit landed.
type CommittedFile struct {
	// Path is the file key relative to the table root.
	Path string
	// Rows is the file's row count.
	Rows int64
	// Version is the log version the file became visible at.
	Version int64
	// AckedAt is when the commit was acknowledged to producers — the
	// start of the file's searchable lag.
	AckedAt time.Time
}

// Ack is a producer's handle on one Append: it resolves when the
// appended rows are durably committed (or failed).
type Ack struct {
	done    chan struct{}
	version int64
	path    string
	err     error
}

// Done returns a channel closed when the ack resolves.
func (a *Ack) Done() <-chan struct{} { return a.done }

// Wait blocks until the ack resolves or ctx is done, returning the
// committed version.
func (a *Ack) Wait(ctx context.Context) (int64, error) {
	select {
	case <-a.done:
		return a.version, a.err
	case <-ctx.Done():
		return 0, ctx.Err()
	}
}

// Path returns the data file holding the appended rows. Valid only
// after the ack resolves successfully.
func (a *Ack) Path() string { return a.path }

// Err returns the ack's outcome. Valid only after the ack resolves.
func (a *Ack) Err() error { return a.err }

// microBatch is one staging buffer: accumulated rows plus the acks of
// the producers that contributed them.
type microBatch struct {
	batch *parquet.Batch
	rows  int
	bytes int64
	born  time.Time
	acks  []*Ack
}

// Writer is a micro-batching ingest writer. Many producers Append
// concurrently; rows stage into size/age-bounded micro-batches, and a
// committer lands up to GroupCommitBatches batches per log round —
// one conditional PUT per group instead of one per batch.
type Writer struct {
	table *lake.Table
	opts  WriterOptions
	clock simtime.Clock
	reg   *obs.Registry

	mu        sync.Mutex
	cond      *sync.Cond
	staging   *microBatch
	sealed    []*microBatch
	inflight  map[*microBatch]struct{} // handed to a commit pass, acks unresolved
	pending   int                      // rows staged or awaiting commit
	paused    bool
	closed    bool
	commitEMA time.Duration

	done chan struct{} // background committer exited

	hookMu    sync.Mutex
	committed []func([]CommittedFile)

	rowsAcked     *obs.Counter
	batchesDone   *obs.Counter
	groupCommits  *obs.Counter
	commitErrors  *obs.Counter
	ambResolved   *obs.Counter
	bpWaits       *obs.Counter
	pendingGauge  *obs.Gauge
	commitLatency *obs.Histogram
}

// NewWriter returns a writer over the table. Unless opts.Manual is
// set, a background committer goroutine drains sealed batches; Close
// stops it.
func NewWriter(table *lake.Table, opts WriterOptions) *Writer {
	opts = opts.withDefaults()
	reg := obs.NewRegistry()
	w := &Writer{
		table:    table,
		opts:     opts,
		clock:    table.Clock(),
		reg:      reg,
		inflight: make(map[*microBatch]struct{}),
		done:     make(chan struct{}),

		rowsAcked:     reg.Counter("ingest.rows_acked"),
		batchesDone:   reg.Counter("ingest.batches_committed"),
		groupCommits:  reg.Counter("ingest.group_commits"),
		commitErrors:  reg.Counter("ingest.commit_errors"),
		ambResolved:   reg.Counter("ingest.ambiguous_resolved"),
		bpWaits:       reg.Counter("ingest.backpressure_waits"),
		pendingGauge:  reg.Gauge("ingest.pending_rows"),
		commitLatency: reg.Histogram("ingest.commit_latency_ns"),
	}
	w.cond = sync.NewCond(&w.mu)
	if opts.Manual {
		close(w.done)
	} else {
		go w.run()
	}
	return w
}

// Registry returns the writer's metrics registry ("ingest.*" names).
func (w *Writer) Registry() *obs.Registry { return w.reg }

// Table returns the table the writer commits to.
func (w *Writer) Table() *lake.Table { return w.table }

// OnCommitted registers fn to run after every successful group
// commit with the files that landed. The scheduler uses it to feed
// its freshness ledger and to pause the writer past its watermark. fn
// runs without the writer's lock: it may Pause the writer, but must not
// append, flush or close through it.
func (w *Writer) OnCommitted(fn func([]CommittedFile)) {
	w.hookMu.Lock()
	w.committed = append(w.committed, fn)
	w.hookMu.Unlock()
}

func (w *Writer) fireCommitted(files []CommittedFile) {
	w.hookMu.Lock()
	hooks := make([]func([]CommittedFile), len(w.committed))
	copy(hooks, w.committed)
	w.hookMu.Unlock()
	for _, fn := range hooks {
		fn(files)
	}
}

// budgetLocked is the effective pending-row bound: the configured
// bound, halved while commits are slow (backpressure when commit
// latency rises).
func (w *Writer) budgetLocked() int {
	b := w.opts.MaxPendingRows
	if w.commitEMA > slowCommit {
		b /= 2
	}
	return b
}

// Append stages the batch's rows and returns an ack that resolves
// when they are durably committed. It blocks while the writer is
// paused or the pending-row budget is exhausted, honouring ctx.
func (w *Writer) Append(ctx context.Context, b *parquet.Batch) (*Ack, error) {
	rows := b.NumRows()
	if rows == 0 {
		return nil, fmt.Errorf("ingest: append of empty batch")
	}
	if err := b.Validate(); err != nil {
		return nil, err
	}
	stop := context.AfterFunc(ctx, func() {
		w.mu.Lock()
		w.cond.Broadcast()
		w.mu.Unlock()
	})
	defer stop()

	w.mu.Lock()
	waited := false
	for !w.closed && ctx.Err() == nil &&
		(w.paused || (w.pending > 0 && w.pending+rows > w.budgetLocked())) {
		if !waited {
			waited = true
			w.bpWaits.Inc()
		}
		w.cond.Wait()
	}
	if w.closed {
		w.mu.Unlock()
		return nil, ErrClosed
	}
	if err := ctx.Err(); err != nil {
		w.mu.Unlock()
		return nil, err
	}

	if w.staging == nil {
		w.staging = &microBatch{batch: parquet.NewBatch(b.Schema), born: w.clock.Now()}
	}
	st := w.staging
	if !b.Schema.Equal(st.batch.Schema) {
		// Same arity is not enough: merging differently named or typed
		// columns under the staging schema would corrupt the staged
		// file, so producers must agree on the exact schema.
		w.mu.Unlock()
		return nil, fmt.Errorf("ingest: batch schema mismatch: columns differ from the staging batch's schema")
	}
	for i := range st.batch.Cols {
		st.batch.Cols[i] = st.batch.Cols[i].Append(b.Cols[i])
	}
	st.rows += rows
	st.bytes += batchBytes(b)
	ack := &Ack{done: make(chan struct{})}
	st.acks = append(st.acks, ack)
	w.pending += rows
	w.pendingGauge.Set(int64(w.pending))
	if st.rows >= w.opts.MaxBatchRows || st.bytes >= maxBatchBytes {
		w.sealLocked()
	}
	w.cond.Broadcast()
	w.mu.Unlock()
	return ack, nil
}

// batchBytes estimates a batch's in-memory size for the byte bound.
func batchBytes(b *parquet.Batch) int64 {
	var n int64
	for _, c := range b.Cols {
		n += int64(len(c.Bools))
		n += int64(len(c.Ints)) * 8
		n += int64(len(c.Doubles)) * 8
		for _, v := range c.Bytes {
			n += int64(len(v)) + 16
		}
	}
	return n
}

// sealLocked moves the staging batch to the sealed queue.
func (w *Writer) sealLocked() {
	if w.staging == nil || w.staging.rows == 0 {
		return
	}
	w.sealed = append(w.sealed, w.staging)
	w.staging = nil
}

// Tick applies the age bound: if the staging batch's oldest row has
// waited maxBatchAge, it seals (and, in manual mode, commits every
// sealed group). Callers advance the table's clock, then tick.
func (w *Writer) Tick(ctx context.Context) error {
	w.mu.Lock()
	if w.staging != nil && w.staging.rows > 0 &&
		w.clock.Now().Sub(w.staging.born) >= maxBatchAge {
		w.sealLocked()
		w.cond.Broadcast()
	}
	manualWork := w.opts.Manual && len(w.sealed) > 0
	w.mu.Unlock()
	if manualWork {
		return w.drainSealed(ctx)
	}
	return nil
}

// drainSealed commits sealed groups inline without idle-flushing the
// staging batch (manual mode's age path: young staged rows stay put).
func (w *Writer) drainSealed(ctx context.Context) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if !w.commitPass(ctx, false) {
			return nil
		}
	}
}

// Pause blocks producers (Append waits) without stopping the
// committer, so in-flight batches still drain. The scheduler uses it
// as backpressure when unindexed rows outrun indexing.
func (w *Writer) Pause() {
	w.mu.Lock()
	w.paused = true
	w.mu.Unlock()
}

// Resume lifts a Pause.
func (w *Writer) Resume() {
	w.mu.Lock()
	w.paused = false
	w.cond.Broadcast()
	w.mu.Unlock()
}

// Paused reports whether the writer is pausing producers.
func (w *Writer) Paused() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.paused
}

// Flush seals the staging batch and blocks until every row staged
// before the call is committed (or failed, resolving its ack). Rows
// appended by other producers after the call do not extend the wait:
// Flush snapshots the acks outstanding at call time and waits only on
// those, so sustained concurrent traffic cannot starve it.
func (w *Writer) Flush(ctx context.Context) error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return ErrClosed
	}
	w.sealLocked()
	acks := w.outstandingAcksLocked()
	w.cond.Broadcast()
	w.mu.Unlock()
	if w.opts.Manual {
		// No background committer: run commit passes inline until the
		// snapshot resolves (later-staged batches ahead in the queue
		// just commit along the way).
		for !acksResolved(acks) {
			if err := ctx.Err(); err != nil {
				return err
			}
			if !w.commitPass(ctx, false) {
				break
			}
		}
	}
	return waitAcks(ctx, acks)
}

// outstandingAcksLocked snapshots the acks of every batch staged but
// not yet resolved: sealed batches plus groups a commit pass holds.
// (The staging batch is empty at the call sites — Flush seals first.)
func (w *Writer) outstandingAcksLocked() []*Ack {
	var acks []*Ack
	for _, mb := range w.sealed {
		acks = append(acks, mb.acks...)
	}
	for mb := range w.inflight {
		acks = append(acks, mb.acks...)
	}
	return acks
}

// acksResolved reports whether every ack has resolved.
func acksResolved(acks []*Ack) bool {
	for _, a := range acks {
		select {
		case <-a.done:
		default:
			return false
		}
	}
	return true
}

// waitAcks blocks until every ack resolves or ctx is done.
func waitAcks(ctx context.Context, acks []*Ack) error {
	for _, a := range acks {
		select {
		case <-a.done:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

// Close seals and drains everything — every pending ack resolves,
// successfully or with an error — then stops the committer. Appends
// after Close fail with ErrClosed.
func (w *Writer) Close(ctx context.Context) error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	w.sealLocked()
	w.cond.Broadcast()
	w.mu.Unlock()
	if w.opts.Manual {
		return w.drain(ctx)
	}
	select {
	case <-w.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// drain runs manual-mode commit passes inline until no work remains.
// Close uses it: a closed writer admits no new rows, so the loop is
// exact.
func (w *Writer) drain(ctx context.Context) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if !w.commitPass(ctx, true) {
			return nil
		}
	}
}

// run is the background committer: it drains sealed batches in
// groups, sealing the staging batch when otherwise idle so latency
// stays low under light load while batching emerges under heavy load
// (a commit in flight lets producers fill the next group).
func (w *Writer) run() {
	defer close(w.done)
	for {
		w.mu.Lock()
		for !w.workLocked() && !w.closed {
			w.cond.Wait()
		}
		if !w.workLocked() && w.closed {
			w.mu.Unlock()
			return
		}
		w.mu.Unlock()
		w.commitPass(context.Background(), true)
	}
}

func (w *Writer) workLocked() bool {
	return len(w.sealed) > 0 || (w.staging != nil && w.staging.rows > 0)
}

// commitPass commits one group of sealed batches (idle-flushing the
// staging batch when the sealed queue is empty and idleFlush is set).
// It reports whether it found work.
func (w *Writer) commitPass(ctx context.Context, idleFlush bool) bool {
	w.mu.Lock()
	if len(w.sealed) == 0 && idleFlush {
		w.sealLocked()
	}
	n := len(w.sealed)
	if n == 0 {
		w.mu.Unlock()
		return false
	}
	if n > w.opts.GroupCommitBatches {
		n = w.opts.GroupCommitBatches
	}
	group := make([]*microBatch, n)
	copy(group, w.sealed[:n])
	w.sealed = w.sealed[n:]
	for _, mb := range group {
		w.inflight[mb] = struct{}{}
	}
	w.mu.Unlock()
	w.commitGroup(ctx, group)
	return true
}

// maxCommitAttempts bounds the commit-and-resolve loop of one group.
const maxCommitAttempts = 10

// commitGroup stages each batch as a data file and lands the whole
// group in one commit round, then resolves every ack exactly once.
//
// Exactly-once across ambiguous outcomes: data-file paths are unique
// and random, and snapshot reconstruction keys files by path, so
// re-committing the same staged files is idempotent — a group that
// landed invisibly cannot duplicate rows on retry. When CommitFiles
// errors, the loop checks the latest snapshot for the group's files
// (landed → acks succeed) and otherwise retries the commit. (A
// compaction racing into the narrow ambiguous window could remove a
// landed file before the presence check; the window requires an
// unresolvable read-back failure and is vanishingly small.)
func (w *Writer) commitGroup(ctx context.Context, group []*microBatch) {
	var totalRows int64
	for _, mb := range group {
		totalRows += int64(mb.rows)
	}

	// Stage the files side by side: the group is acked two PUT levels
	// after it was taken up — the uploads, then the commit — however
	// many batches it holds. Uploads are plain PUTs to unique keys —
	// idempotent, so failures just retry; persistent failures fail the
	// batch's acks and drop it from the group.
	staged := make([]lake.PendingFile, len(group))
	stageErrs := make([]error, len(group))
	_ = simtime.Fan(ctx, len(group), 0, func(ctx context.Context, i int) error { // errors are per batch: stageErrs
		for attempt := 0; attempt < 4; attempt++ {
			staged[i], stageErrs[i] = w.table.WriteFile(ctx, group[i].batch, w.opts.Parquet)
			if stageErrs[i] == nil {
				break
			}
		}
		return nil
	})
	var files []lake.PendingFile
	var committed []*microBatch
	for i, mb := range group {
		if err := stageErrs[i]; err != nil {
			w.finish(mb, 0, "", fmt.Errorf("ingest: stage batch: %w", err))
			continue
		}
		files = append(files, staged[i])
		committed = append(committed, mb)
	}
	if len(files) == 0 {
		return
	}

	start := w.clock.Now()
	var version int64
	var err error
	for attempt := 0; attempt < maxCommitAttempts; attempt++ {
		version, err = w.table.CommitFiles(ctx, files...)
		if err == nil {
			break
		}
		w.commitErrors.Inc()
		if ctx.Err() != nil {
			break
		}
		if landed, v, perr := w.landed(ctx, files[0].Path); perr == nil && landed {
			w.ambResolved.Inc()
			version, err = v, nil
			break
		}
	}
	latency := w.clock.Now().Sub(start)
	w.commitLatency.Observe(int64(latency))

	w.mu.Lock()
	if w.commitEMA == 0 {
		w.commitEMA = latency
	} else {
		w.commitEMA = (3*w.commitEMA + latency) / 4
	}
	w.mu.Unlock()

	if err != nil {
		for _, mb := range committed {
			w.finish(mb, 0, "", err)
		}
		return
	}
	w.groupCommits.Inc()
	w.batchesDone.Add(int64(len(committed)))
	w.rowsAcked.Add(totalRows)
	acked := w.clock.Now()
	out := make([]CommittedFile, len(committed))
	for i, mb := range committed {
		out[i] = CommittedFile{Path: files[i].Path, Rows: files[i].Rows, Version: version, AckedAt: acked}
		w.finish(mb, version, files[i].Path, nil)
	}
	w.fireCommitted(out)
}

// landed reports whether path is visible in the latest snapshot.
func (w *Writer) landed(ctx context.Context, path string) (bool, int64, error) {
	snap, err := w.table.Snapshot(ctx)
	if err != nil {
		return false, 0, err
	}
	_, ok := snap.File(path)
	return ok, snap.Version, nil
}

// finish resolves a batch's acks and releases its pending rows.
func (w *Writer) finish(mb *microBatch, version int64, path string, err error) {
	w.mu.Lock()
	delete(w.inflight, mb)
	w.pending -= mb.rows
	w.pendingGauge.Set(int64(w.pending))
	w.cond.Broadcast()
	w.mu.Unlock()
	for _, a := range mb.acks {
		a.version, a.path, a.err = version, path, err
		close(a.done)
	}
}
