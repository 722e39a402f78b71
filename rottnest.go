// Package rottnest is a Go implementation of Rottnest ("Rottnest:
// Indexing Data Lakes for Search", ICDE 2025): a bolt-on system that
// maintains lightweight, object-storage-resident search indices —
// high-cardinality UUID lookup, exact substring search, and vector
// nearest-neighbor search — on top of a Parquet-based transactional
// data lake.
//
// The library is self-contained: it ships its own object-store
// abstraction (in-memory simulated S3 and a directory-backed store),
// a Parquet-equivalent columnar format with both a traditional reader
// and Rottnest's page-granular optimized reader, a Delta-Lake-style
// transactional table format with deletion vectors, the three
// componentized index families, the lazy consistent-on-demand index
// protocol with its four APIs (index, search, compact, vacuum), both
// evaluation baselines, and the paper's TCO phase-diagram framework.
//
// # Store layering
//
// Object-store wrappers compose in one canonical order, innermost
// first: base → fault → retry → instrument → cache (see NewStack).
// The returned *Stack is itself a Store: hand it to CreateTable or
// OpenTable, and every client over the table shares its layers — the
// lake log, metadata, index and data reads all go through the same
// retries, meter and cache.
//
// # Observability
//
// Every protocol phase, index probe, in-situ page read, retry sleep,
// and store request reports into the obs subsystem: Client.Trace runs
// one search with a span tree attached ("EXPLAIN ANALYZE"; render it
// with RenderTrace), and Client.Metrics returns a MetricsSnapshot of
// every counter, gauge, and histogram (Prometheus text format via its
// WritePrometheus method).
//
// # Quick start
//
//	store := rottnest.NewMemStore()
//	schema := rottnest.MustSchema(rottnest.Column{
//		Name: "id", Type: rottnest.TypeFixedLenByteArray, TypeLen: 16,
//	})
//	table, _ := rottnest.CreateTable(ctx, store, "my-lake", schema)
//	// ... table.Append batches ...
//	client := rottnest.NewClient(table, rottnest.Config{IndexDir: "my-index"})
//	client.Index(ctx, "id", rottnest.KindTrie)
//	res, _ := client.Search(ctx, rottnest.Query{Column: "id", UUID: &key, K: 10, Snapshot: -1})
//
// See examples/ for runnable end-to-end programs and DESIGN.md for
// the architecture.
package rottnest

import (
	"context"
	"io"

	"rottnest/internal/adaptive"
	"rottnest/internal/component"
	"rottnest/internal/core"
	"rottnest/internal/ingest"
	"rottnest/internal/insitu"
	"rottnest/internal/lake"
	"rottnest/internal/meta"
	"rottnest/internal/objectstore"
	"rottnest/internal/obs"
	"rottnest/internal/parquet"
	"rottnest/internal/shard"
	"rottnest/internal/simtime"
)

// Core client types. Client is the Rottnest handle offering the four
// protocol APIs: Index, Search, Compact, and Vacuum.
type (
	// Client is the Rottnest client (see core.Client).
	Client = core.Client
	// Config tunes a Client.
	Config = core.Config
	// Query describes one search.
	Query = core.Query
	// PartitionFilter prunes searched files by a structured-attribute
	// range (file-granular).
	PartitionFilter = core.PartitionFilter
	// Result is a search outcome.
	Result = core.Result
	// Stats summarizes a search's work.
	Stats = core.Stats
	// Match is one matching row.
	Match = insitu.Match
	// IndexEntry is one metadata-table row.
	IndexEntry = meta.IndexEntry
	// CompactOptions tunes index compaction.
	CompactOptions = core.CompactOptions
	// VacuumOptions tunes index garbage collection.
	VacuumOptions = core.VacuumOptions
	// VacuumReport summarizes a vacuum.
	VacuumReport = core.VacuumReport
	// IndexStatus describes one index's state vs the latest snapshot.
	IndexStatus = core.IndexStatus
	// IndexSpec names one maintained (column, kind) index.
	IndexSpec = core.IndexSpec
	// MaintainPolicy tunes the automated maintenance pass.
	MaintainPolicy = core.MaintainPolicy
	// MaintainReport summarizes one maintenance pass.
	MaintainReport = core.MaintainReport
)

// Compound query types: boolean AND/OR trees over the predicate kinds,
// executed by the multi-predicate planner (Client.SearchCompound).
type (
	// CompoundQuery is a search over a boolean predicate tree.
	CompoundQuery = core.CompoundQuery
	// Expr is one node of a predicate tree.
	Expr = core.Expr
	// Pred is one leaf predicate.
	Pred = core.Pred
	// Op discriminates Expr nodes.
	Op = core.Op
)

// Expr node kinds.
const (
	// OpLeaf is a single predicate.
	OpLeaf = core.OpLeaf
	// OpAnd is a conjunction of children.
	OpAnd = core.OpAnd
	// OpOr is a disjunction of children.
	OpOr = core.OpOr
)

// Predicate-tree constructors.
var (
	// And conjoins subtrees.
	And = core.And
	// Or disjoins subtrees.
	Or = core.Or
	// Leaf wraps one predicate as a tree.
	Leaf = core.Leaf
	// PredUUID is an exact 16-byte key predicate.
	PredUUID = core.PredUUID
	// PredSubstring is a substring predicate.
	PredSubstring = core.PredSubstring
	// PredRegex is a regular-expression predicate.
	PredRegex = core.PredRegex
	// PredVector is a ranked nearest-neighbour leaf.
	PredVector = core.PredVector
)

// Sharded serving tier: a ShardRouter partitions a table's snapshot
// into N contiguous file ranges, scatters every query to per-shard
// replica workers (hedging slow ones), merges the results into
// single-node order, and rate-limits tenants at the front door.
type (
	// ShardRouter is the scatter-gather front door (see shard.Router).
	ShardRouter = shard.Router
	// ShardOptions configures a ShardRouter.
	ShardOptions = shard.Options
	// ShardResult is a routed query outcome.
	ShardResult = shard.Result
	// ShardStats summarizes one routed query.
	ShardStats = shard.Stats
	// HedgeOptions tunes hedged replica requests.
	HedgeOptions = shard.HedgeOptions
	// AdmissionOptions tunes per-tenant token-bucket rate limits.
	AdmissionOptions = shard.AdmissionOptions
	// FileRange restricts a Query or CompoundQuery to a contiguous
	// path range of the snapshot — the shard-scoped view routers fan
	// out. Nil searches everything.
	FileRange = core.FileRange
)

// ErrRateLimited: the query's tenant exhausted its admission bucket.
var ErrRateLimited = shard.ErrRateLimited

// NewShardRouter builds a scatter-gather router over the table at
// root. Every worker reads through store with its own slice of the
// router's cache budgets.
func NewShardRouter(ctx context.Context, store Store, root string, opts ShardOptions) (*ShardRouter, error) {
	return shard.New(ctx, store, root, opts)
}

// WithTenant tags ctx with the tenant name admission control buckets
// requests by; untagged requests share the "default" tenant.
func WithTenant(ctx context.Context, tenant string) context.Context {
	return shard.WithTenant(ctx, tenant)
}

// ParseWhere parses the CLI's -where predicate grammar ("a~x AND
// (b=~\"er+or\" OR c=HEX)") into a predicate tree.
func ParseWhere(input string) (*Expr, error) { return core.ParseWhere(input) }

// FormatWhere renders a predicate tree back to the -where grammar.
func FormatWhere(e *Expr) (string, error) { return core.FormatWhere(e) }

// IndexKind identifies an index family.
type IndexKind = component.Kind

// The three index kinds of the paper's Section V-C.
const (
	// KindTrie is the binary-trie UUID index.
	KindTrie = component.KindTrie
	// KindFM is the FM-index substring index.
	KindFM = component.KindFM
	// KindIVFPQ is the IVF-PQ vector index.
	KindIVFPQ = component.KindIVFPQ
)

// Errors surfaced by the client.
var (
	// ErrAborted: an index/compact operation must be retried.
	ErrAborted = core.ErrAborted
	// ErrTimeout: the operation exceeded the index timeout.
	ErrTimeout = core.ErrTimeout
	// ErrBadColumn: the column's type cannot host the index kind.
	ErrBadColumn = core.ErrBadColumn
	// ErrBelowMinRows: too few new rows for a vector index file.
	ErrBelowMinRows = core.ErrBelowMinRows
)

// Schema types (the columnar format's schema language).
type (
	// Schema is an ordered set of columns.
	Schema = parquet.Schema
	// Column describes one field.
	Column = parquet.Column
	// ColumnType is a physical column type.
	ColumnType = parquet.Type
	// Batch is a set of rows appended to a table.
	Batch = parquet.Batch
	// ColumnValues holds one column of a batch.
	ColumnValues = parquet.ColumnValues
	// FileWriterOptions tune data file layout (row groups, pages,
	// compression).
	FileWriterOptions = parquet.WriterOptions
)

// Physical column types.
const (
	TypeBool              = parquet.TypeBool
	TypeInt64             = parquet.TypeInt64
	TypeDouble            = parquet.TypeDouble
	TypeByteArray         = parquet.TypeByteArray
	TypeFixedLenByteArray = parquet.TypeFixedLenByteArray
)

// NewSchema validates and builds a schema.
func NewSchema(cols ...Column) (*Schema, error) { return parquet.NewSchema(cols...) }

// MustSchema is NewSchema panicking on error.
func MustSchema(cols ...Column) *Schema { return parquet.MustSchema(cols...) }

// NewBatch returns an empty batch for the schema.
func NewBatch(schema *Schema) *Batch { return parquet.NewBatch(schema) }

// Lake types (the transactional table format).
type (
	// Table is a transactional lake table.
	Table = lake.Table
	// Snapshot is a point-in-time view of a table.
	Snapshot = lake.Snapshot
	// DataFile describes one active data file.
	DataFile = lake.DataFile
)

// Store types (the object-storage substrate).
type (
	// Store is a strongly consistent object store.
	Store = objectstore.Store
	// LatencyModel shapes simulated request latency.
	LatencyModel = objectstore.LatencyModel
	// StoreMetrics meters requests and bytes.
	StoreMetrics = objectstore.Metrics
	// RetryPolicy tunes the bounded-backoff retry layer
	// (StackOptions.Retry).
	RetryPolicy = objectstore.RetryPolicy
	// FaultProfile configures deterministic fault injection for chaos
	// testing (StackOptions.Faults).
	FaultProfile = objectstore.FaultProfile
	// FaultCounts reports injected faults by kind.
	FaultCounts = objectstore.FaultCounts
	// StackOptions selects the wrapper layers NewStack composes.
	StackOptions = objectstore.StackOptions
	// Stack is a composed store with handles to each of its layers.
	Stack = objectstore.Stack
)

// Observability types (the obs subsystem: context-propagated trace
// spans plus a typed metrics registry).
type (
	// TraceNode is one node of a finished span tree, as returned by
	// Client.Trace; it serializes to JSON and renders via RenderTrace.
	TraceNode = obs.Node
	// TraceSpan is a live span created by WithTrace or StartSpan.
	TraceSpan = obs.Span
	// MetricsSnapshot is a point-in-time view of every metric
	// (counters, gauges, histograms), as returned by Client.Metrics.
	// It renders in Prometheus text format via WritePrometheus.
	MetricsSnapshot = obs.Snapshot
)

// WithTrace starts a new trace rooted at name and returns the derived
// context carrying it. End the returned span, then call its Tree
// method for the finished TraceNode. Client.Trace wraps this for the
// common "explain one search" case.
func WithTrace(ctx context.Context, name string) (context.Context, *TraceSpan) {
	return obs.WithTrace(ctx, name)
}

// StartSpan opens a child span under the trace carried by ctx; it is
// a no-op (nil span, same ctx) when ctx carries no trace, so
// libraries can call it unconditionally.
func StartSpan(ctx context.Context, name string) (context.Context, *TraceSpan) {
	return obs.Start(ctx, name)
}

// RenderTrace writes an indented, human-readable rendering of a span
// tree — the text form of "EXPLAIN ANALYZE".
func RenderTrace(w io.Writer, n *TraceNode) error { return obs.RenderText(w, n) }

// Clock abstracts time for simulation; see NewVirtualClock.
type Clock = simtime.Clock

// Session tracks virtual latency of one logical operation.
type Session = simtime.Session

// NewMemStore returns an in-memory object store with real-time
// timestamps, suitable for tests and embedded use.
func NewMemStore() *objectstore.MemStore {
	return objectstore.NewMemStore(nil)
}

// NewStack composes the store wrapper zoo around base in the one
// canonical order, innermost first:
//
//	base → fault → retry → instrument → cache
//
// Each layer is optional (see StackOptions) but the order is fixed,
// and it is the order every layer was designed for: faults sit at the
// bottom so everything above sees the misbehaving substrate a real
// client would; retries sit directly above the faults, below the
// meter, so a request that took several attempts is metered once and
// its extra attempts are counted as "retry.retries"; instrumentation
// charges the latency model's virtual time and counts requests and
// bytes; the read cache is outermost so hits cost zero requests and
// zero virtual latency.
//
// The returned Stack is the store to open a table on. It carries a
// handle to each constructed layer plus MetricsSnapshot, which merges
// every layer's metrics; a Client over the table reports the same
// layers in Client.Metrics. NewStack over a Stack extends it: the new
// layers go on top and the base's handles are kept.
func NewStack(base Store, opts StackOptions) *Stack {
	return objectstore.NewStack(base, opts)
}

// NewSimulatedStore returns an in-memory object store stamped by a
// fresh virtual clock, wrapped in the paper's S3 latency model and a
// shared read cache (a NewStack with Latency and the default cache).
// Operations run inside a Session (see WithSession) accumulate
// virtual latency; cache hits are free (zero latency, zero requests).
// The returned metrics meter the requests and bytes that actually
// reach the simulated store. A client built over a table on this
// store joins the same cache, so lake snapshot reads are accelerated
// too.
func NewSimulatedStore() (*Stack, *simtime.VirtualClock, *StoreMetrics) {
	clock := simtime.NewVirtualClock()
	model := objectstore.DefaultS3Model()
	st := objectstore.NewStack(objectstore.NewMemStore(clock), objectstore.StackOptions{Latency: &model})
	return st, clock, st.Metrics
}

// NewDirStore returns an object store backed by a local directory, so
// lakes and indices persist across process runs.
func NewDirStore(dir string) (Store, error) {
	return objectstore.NewDirStore(dir)
}

// NewVirtualClock returns a manually advanced clock for simulations.
func NewVirtualClock() *simtime.VirtualClock { return simtime.NewVirtualClock() }

// NewSession returns a fresh virtual-latency session.
func NewSession() *Session { return simtime.NewSession() }

// WithSession attaches a session to the context; store operations
// under it accumulate virtual latency (parallel fans overlap).
func WithSession(ctx context.Context, s *Session) context.Context {
	return simtime.With(ctx, s)
}

// TableOptions configure CreateTableWith/OpenTableWith; the zero
// value (real wall clock) is what CreateTable/OpenTable use.
type TableOptions = lake.OpenOptions

// CreateTable initializes a new lake table at root on the store.
func CreateTable(ctx context.Context, store Store, root string, schema *Schema) (*Table, error) {
	return lake.CreateWith(ctx, store, root, schema, lake.OpenOptions{})
}

// CreateTableWith is CreateTable with explicit options (simulations
// set TableOptions.Clock so lake commits share the virtual timeline).
func CreateTableWith(ctx context.Context, store Store, root string, schema *Schema, opts TableOptions) (*Table, error) {
	return lake.CreateWith(ctx, store, root, schema, opts)
}

// OpenTable returns a handle to the lake table at root. It issues no
// request: existence is reported by the first read or commit through
// the handle (Snapshot, Version, Append, Client.Search, Client.Status
// ...), which fails with the lake's "table not found" error when root
// holds no table.
func OpenTable(ctx context.Context, store Store, root string) (*Table, error) {
	return lake.OpenWith(ctx, store, root, lake.OpenOptions{})
}

// OpenTableWith is OpenTable with explicit options.
func OpenTableWith(ctx context.Context, store Store, root string, opts TableOptions) (*Table, error) {
	return lake.OpenWith(ctx, store, root, opts)
}

// NewClient returns a Rottnest client over the table. The clock
// driving timeouts and vacuum decisions comes from cfg.Clock; leave it
// nil for the real wall clock, or set a VirtualClock for simulations.
func NewClient(table *Table, cfg Config) *Client {
	return core.NewClient(table, cfg)
}

// Continuous ingestion types: a micro-batching group-commit writer and
// a budgeted background maintenance scheduler (see internal/ingest and
// DESIGN.md §16).
type (
	// Writer is the micro-batching, group-committing ingestion writer.
	Writer = ingest.Writer
	// WriterOptions tune a Writer (batch bounds, group size,
	// backpressure budget).
	//
	// Renamed meaning: before the ingest subsystem, WriterOptions
	// named the data-file layout options (row groups, pages,
	// compression); that type is now FileWriterOptions, and a
	// WriterOptions value carries it in its Parquet field. Code that
	// configured file layout through rottnest.WriterOptions should
	// migrate to FileWriterOptions — see README "API stability".
	WriterOptions = ingest.WriterOptions
	// IngestWriterOptions is an explicit alias for WriterOptions, for
	// call sites that want the unambiguous name across the rename.
	IngestWriterOptions = ingest.WriterOptions
	// Ack resolves when an appended batch is durably committed.
	Ack = ingest.Ack
	// CommittedFile describes one micro-batch landed by a group commit.
	CommittedFile = ingest.CommittedFile
	// Scheduler is the budgeted background maintenance daemon.
	Scheduler = ingest.Scheduler
	// SchedulerOptions tune a Scheduler (request budget, watermarks,
	// maintained index specs).
	SchedulerOptions = ingest.SchedulerOptions
)

// NewWriter returns a micro-batching writer over the table: concurrent
// Appends coalesce into size/age-bounded micro-batches, sealed batches
// group-commit through one conditional PUT per group, and every Append
// returns an Ack resolving at durability. Close drains all pending
// acks.
func NewWriter(table *Table, opts WriterOptions) *Writer {
	return ingest.NewWriter(table, opts)
}

// NewScheduler returns a background maintenance scheduler for the
// table: it watches commits (and opts.Writer, when set), then runs
// index, compact, and vacuum jobs by priority under a request-per-
// second budget, pausing the writer when unindexed rows outrun
// indexing. Drive it with Run (daemon) or Step/Quiesce (manual).
func NewScheduler(table *Table, opts SchedulerOptions) *Scheduler {
	return ingest.NewScheduler(table, opts)
}

// Workload-adaptive maintenance types: a decayed query-heat ledger, a
// live TCO autopilot, and the scheduler policy that joins them (see
// internal/adaptive and DESIGN.md §17).
type (
	// HeatObserver receives per-(column, file) query observations; a
	// Client tap installed with Client.SetHeatObserver feeds one.
	HeatObserver = core.HeatObserver
	// HeatLedger is the decayed per-(column, file) query-heat ledger.
	HeatLedger = adaptive.Ledger
	// HeatLedgerOptions tune a HeatLedger (half-life, capacity).
	HeatLedgerOptions = adaptive.LedgerOptions
	// Autopilot evaluates the TCO phase diagram per column from live
	// measurements and exposes index/scan/deep verdicts.
	Autopilot = adaptive.Autopilot
	// AutopilotOptions tune an Autopilot (pricing, horizon, refresh
	// cadence, scale factor).
	AutopilotOptions = adaptive.AutopilotOptions
	// AdaptivePolicy plugs a HeatLedger and an Autopilot into a
	// Scheduler via SchedulerOptions.Adaptive: hot files are indexed
	// first, never-queried columns are demoted to the scan path, and
	// vector indexes refine progressively under probe traffic.
	AdaptivePolicy = adaptive.Policy
	// AdaptivePolicyOptions wire an AdaptivePolicy (ledger, autopilot,
	// client, hot-subset bounds).
	AdaptivePolicyOptions = adaptive.PolicyOptions
)

// NewHeatLedger returns a decayed query-heat ledger. Install it with
// Client.SetHeatObserver so searches feed it, then hand it to
// NewAdaptivePolicy.
func NewHeatLedger(opts HeatLedgerOptions) *HeatLedger {
	return adaptive.NewLedger(opts)
}

// NewAutopilot returns a live TCO autopilot deciding over the given
// specs' columns: each refresh feeds measured sizes and the ledger's
// observed query rates into the phase diagram (tco.Params.Best) and
// records an index, scan, or deep verdict per column.
func NewAutopilot(client *Client, ledger *HeatLedger, specs []IndexSpec, opts AutopilotOptions) *Autopilot {
	return adaptive.NewAutopilot(client, ledger, specs, opts)
}

// NewAdaptivePolicy returns the scheduler policy that turns heat and
// TCO verdicts into maintenance decisions. Set it as
// SchedulerOptions.Adaptive.
func NewAdaptivePolicy(opts AdaptivePolicyOptions) *AdaptivePolicy {
	return adaptive.NewPolicy(opts)
}
