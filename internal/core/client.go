// Package core implements the Rottnest index protocol (Section IV of
// the paper): the four client APIs — index, search, compact, vacuum —
// that maintain object-storage-resident secondary indices over a
// transactional data lake while preserving two invariants:
//
//   - Existence: every index file referenced by the metadata table is
//     present in the object storage bucket; and
//   - Consistency: an index file correctly indexes its associated
//     Parquet files if they still exist.
//
// The protocol is bolt-on and lazy: it never touches the lake's own
// log, requires only strong read-after-write consistency and
// conditional PUT (no atomic rename), and tolerates concurrent lake
// maintenance (compaction, deletes, vacuum) by indexing every new
// Parquet file regardless of its origin and filtering stale physical
// locations at search time.
package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"rottnest/internal/component"
	"rottnest/internal/lake"
	"rottnest/internal/meta"
	"rottnest/internal/objcache"
	"rottnest/internal/objectstore"
	"rottnest/internal/obs"
	"rottnest/internal/parquet"
	"rottnest/internal/simtime"
	"rottnest/internal/trie"
)

// Errors returned by the client APIs.
var (
	// ErrAborted reports that an index or compact operation observed
	// a disappearing input (e.g. lake garbage collection removed a
	// file mid-scan) and must be retried.
	ErrAborted = errors.New("core: operation aborted, retry")
	// ErrTimeout reports that an index or compact operation exceeded
	// the index timeout and aborted before commit; its uploaded file
	// (if any) will be garbage collected by vacuum.
	ErrTimeout = errors.New("core: operation exceeded index timeout")
	// ErrBelowMinRows reports that too few new rows exist to justify
	// an index file (the paper's footnote 2: small batches are left
	// for brute-force scanning).
	ErrBelowMinRows = errors.New("core: new rows below index minimum")
	// ErrBadColumn reports an index/search against a column whose
	// type does not match the index kind.
	ErrBadColumn = errors.New("core: column type incompatible with index kind")
)

// Config tunes a Client.
type Config struct {
	// IndexDir is the key prefix (the paper's index_dir bucket) that
	// holds index files and the metadata table.
	IndexDir string
	// Timeout is the index timeout: index/compact operations abort
	// rather than commit beyond it, and vacuum may physically delete
	// uncommitted objects older than it (Section IV-C). Defaults to
	// one hour.
	Timeout time.Duration
	// MinVectorRows is the minimum number of new rows worth a vector
	// index file. Defaults to 64.
	MinVectorRows int64
	// SearchWidth caps a single search's request concurrency —
	// Rottnest searches run on one instance (Section VII-A), so
	// fan-outs over many index files proceed in waves of this width.
	// Defaults to 32.
	SearchWidth int
	// CacheBytes bounds the shared read cache the client layers over
	// the table's store: component tails, index components, data
	// pages, deletion vectors, and meta-log records are immutable, so
	// repeated and concurrent searches reuse them without re-GETting,
	// and a fan of nearby ranged GETs goes out as one request. 0 means
	// the 64 MiB default; negative disables the cache (and range
	// coalescing with it). Ignored when the table's store is an
	// objectstore.Stack with a cache — the client then joins that
	// cache.
	CacheBytes int64
	// DecodedCacheBytes bounds the decoded-object cache holding
	// per-query reconstruction results across queries: component
	// reader directories, manifests, FM/trie/IVF-PQ open results
	// (headers, checkpoints, centroids, codebooks — not posting
	// payloads), deletion vectors, and decoded data pages, which use
	// whatever the others leave free (they are evicted first). Where
	// CacheBytes removes the repeat GET, this removes the repeat decode
	// CPU and the request fan above it. 0 means the 64 MiB default;
	// negative disables it, and the shared-probe batcher (batch.go)
	// with it.
	// Invalidation is exact (vacuum/compact/append hooks), never
	// TTL-based, so results are identical with the cache on or off.
	DecodedCacheBytes int64
	// PlanCacheTTLVersions bounds the plan cache, which memoizes the
	// planning round (lake snapshot + metadata listing) keyed by
	// resolved snapshot version so repeat queries against an
	// unchanged table skip the planning LIST entirely. The value is
	// how many lake versions behind the latest commit a cached plan
	// may trail before being pruned (hygiene only — version keying,
	// not freshness, is what keeps results exact). 0 means the
	// default of 8; negative disables the plan cache.
	PlanCacheTTLVersions int
}

func (c Config) withDefaults() Config {
	if !strings.HasSuffix(c.IndexDir, "/") {
		c.IndexDir += "/"
	}
	if c.Timeout <= 0 {
		c.Timeout = time.Hour
	}
	if c.MinVectorRows <= 0 {
		c.MinVectorRows = 64
	}
	if c.SearchWidth <= 0 {
		c.SearchWidth = 32
	}
	return c
}

// Client is a Rottnest client bound to one lake table and one index
// directory. Clients are stateless beyond configuration: every API
// call re-plans against the current metadata table and lake snapshot,
// so any number of processes can run clients concurrently.
type Client struct {
	table *lake.Table
	// store is the table's store stack, plus the client's own read
	// cache when the stack has none; Metrics reports its layers.
	store *objectstore.Stack
	clock simtime.Clock
	cfg   Config
	meta  *meta.Table
	// objc caches decoded objects (readers, manifests, index opens,
	// deletion vectors) across queries; plans caches planning rounds
	// keyed by snapshot version. Both are nil when disabled.
	objc  *objcache.Cache
	plans *planCache
	// batch coalesces and memoizes index probes across concurrent
	// queries; nil exactly when objc is.
	batch *probeBatcher
	// reg holds the client's own "search.*" metrics; Metrics() merges
	// it with the store-layer registries and any attached extras.
	extraMu   sync.Mutex
	extraRegs []*obs.Registry

	// heat, when set, taps the search path for an adaptive
	// maintenance policy; see SetHeatObserver.
	heatMu sync.RWMutex
	heat   HeatObserver

	reg            *obs.Registry
	searches       *obs.Counter
	pagesProbed    *obs.Counter
	scannedFull    *obs.Counter
	pagesCandidate *obs.Counter
	pagesPruned    *obs.Counter
	probeRuns      *obs.Counter
	probeCoalesced *obs.Counter
	leavesSkipped  *obs.Counter
	occFetched     *obs.Counter
	occReused      *obs.Counter
	latencyHist    *obs.Histogram
}

// NewClient returns a client over the table, storing its index under
// cfg.IndexDir on the table's object store. The world clock stamping
// index timeouts and vacuum cutoffs is the table's (lake.Table.Clock),
// which is its store's.
//
// The client reads through the table's store. When that store is an
// objectstore.Stack, the client shares its layers: its retries cover
// every request, lake log included, and its cache, if it has one, is
// the client's — then lake snapshot reads share it too. Otherwise,
// unless cfg.CacheBytes is negative, the client's reads (index files,
// probed data pages, deletion vectors, metadata log) flow through a
// read cache of its own, stacked over the table's store.
func NewClient(table *lake.Table, cfg Config) *Client {
	cfg = cfg.withDefaults()
	store, ok := table.Store().(*objectstore.Stack)
	if !ok || (store.Cache == nil && cfg.CacheBytes >= 0) {
		store = objectstore.NewStack(table.Store(), objectstore.StackOptions{CacheBytes: cfg.CacheBytes})
	}
	reg := obs.NewRegistry()
	var objc *objcache.Cache
	if cfg.DecodedCacheBytes >= 0 {
		objc = objcache.New(cfg.DecodedCacheBytes)
	}
	var plans *planCache
	if cfg.PlanCacheTTLVersions >= 0 {
		plans = newPlanCache(cfg.PlanCacheTTLVersions, reg)
	}
	c := &Client{
		table:          table,
		store:          store,
		clock:          table.Clock(),
		cfg:            cfg,
		meta:           meta.New(store, nil, cfg.IndexDir+"_meta/"),
		objc:           objc,
		plans:          plans,
		reg:            reg,
		searches:       reg.Counter("search.queries"),
		pagesProbed:    reg.Counter("search.pages_probed"),
		scannedFull:    reg.Counter("search.files_scanned"),
		pagesCandidate: reg.Counter("search.pages_candidate"),
		pagesPruned:    reg.Counter("search.pages_pruned"),
		probeRuns:      reg.Counter("search.probe_runs"),
		probeCoalesced: reg.Counter("search.probe_coalesced"),
		leavesSkipped:  reg.Counter("search.leaves_skipped"),
		occFetched:     reg.Counter("search.occ_fetched"),
		occReused:      reg.Counter("search.occ_reused"),
		latencyHist:    reg.Histogram("search.latency_ns"),
	}
	if objc != nil {
		c.batch = newProbeBatcher(c.probeCoalesced)
	}
	// Lake hooks keep the warm caches exact under mutation through
	// this table handle: commits advance the plan cache's latest
	// version, and lake vacuum reports the data files and deletion
	// vectors it physically deleted.
	table.OnCommit(plans.noteCommit)
	root := table.Root()
	table.OnVacuum(func(removed []string) {
		for _, rel := range removed {
			c.objectGone(root + rel)
		}
	})
	return c
}

// Meta exposes the metadata table (tests and tooling).
func (c *Client) Meta() *meta.Table { return c.meta }

// Table returns the underlying lake table.
func (c *Client) Table() *lake.Table { return c.table }

// Metrics returns one merged snapshot of every layer of the client's
// store stack plus the client's own search counters: "store.*"
// (request/byte totals), "cache.*" (hit/miss/eviction), "retry.*"
// (recovery work), "fault.*" (injected faults), "objcache.*"
// (decoded-object cache), and "search.*"
// (query counts, pages probed, plan-cache activity, latency
// histogram), plus any attached registries ("ingest.*" when a
// writer/scheduler is wired in).
func (c *Client) Metrics() obs.Snapshot {
	snaps := []obs.Snapshot{c.store.MetricsSnapshot(), c.reg.Snapshot()}
	if c.objc != nil {
		snaps = append(snaps, c.objc.Registry().Snapshot())
	}
	c.extraMu.Lock()
	extras := make([]*obs.Registry, len(c.extraRegs))
	copy(extras, c.extraRegs)
	c.extraMu.Unlock()
	for _, r := range extras {
		snaps = append(snaps, r.Snapshot())
	}
	return obs.Merge(snaps...)
}

// AttachRegistry adds a registry to the client's Metrics merge, so
// subsystems built beside the client (the ingest writer and
// scheduler) surface through the one snapshot. Registries should use
// prefix-disjoint names ("ingest.*").
func (c *Client) AttachRegistry(reg *obs.Registry) {
	if reg == nil {
		return
	}
	c.extraMu.Lock()
	c.extraRegs = append(c.extraRegs, reg)
	c.extraMu.Unlock()
}

// indexFilePrefix is where index files live under IndexDir.
const indexFilePrefix = "files/"

// Manifest is component 0 of every index file: the table of Parquet
// files the index covers, with each file's page table (Section V-A) so
// searches can translate page refs to exact byte ranges without
// touching Parquet footers.
type Manifest struct {
	Column string         `json:"column"`
	Kind   component.Kind `json:"kind"`
	Files  []ManifestFile `json:"files"`
}

// ManifestFile is one covered Parquet file.
type ManifestFile struct {
	// Path is the lake-relative file path.
	Path string `json:"path"`
	// Rows is the file's row count.
	Rows int64 `json:"rows"`
	// Pages is the page table of the indexed column.
	Pages parquet.PageTable `json:"pages"`
}

// readManifest fetches and parses component 0 of an index file.
func readManifest(ctx context.Context, r *component.Reader) (*Manifest, error) {
	data, err := r.Component(ctx, 0)
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("core: parse manifest of %s: %w", r.Key(), err)
	}
	return &m, nil
}

// kindForColumn validates that the column can host the index kind and
// returns the schema column.
func kindForColumn(schema *parquet.Schema, column string, kind component.Kind) (int, parquet.Column, error) {
	ci := schema.ColumnIndex(column)
	if ci < 0 {
		return 0, parquet.Column{}, fmt.Errorf("core: column %q not in schema: %w", column, ErrBadColumn)
	}
	col := schema.Columns[ci]
	switch kind {
	case component.KindTrie:
		if col.Type != parquet.TypeFixedLenByteArray || col.TypeLen != trie.KeyLen {
			return 0, parquet.Column{}, fmt.Errorf("core: trie index needs FIXED_LEN_BYTE_ARRAY(16) column, %q is %v(%d): %w", column, col.Type, col.TypeLen, ErrBadColumn)
		}
	case component.KindFM:
		if col.Type != parquet.TypeByteArray {
			return 0, parquet.Column{}, fmt.Errorf("core: substring index needs BYTE_ARRAY column, %q is %v: %w", column, col.Type, ErrBadColumn)
		}
	case component.KindIVFPQ:
		if col.Type != parquet.TypeFixedLenByteArray || col.TypeLen%4 != 0 || col.TypeLen == 0 {
			return 0, parquet.Column{}, fmt.Errorf("core: vector index needs FIXED_LEN_BYTE_ARRAY(4*dim) column, %q is %v(%d): %w", column, col.Type, col.TypeLen, ErrBadColumn)
		}
	default:
		return 0, parquet.Column{}, fmt.Errorf("core: unknown index kind %d", kind)
	}
	return ci, col, nil
}

// coverEntries greedily selects metadata entries until no entry adds
// coverage of an active path, returning the chosen entries and the
// covered set. Both search planning and vacuum use it: it maximizes
// covered Parquet files while heuristically minimizing index files
// (Section IV-C).
func coverEntries(entries []meta.IndexEntry, active map[string]bool) ([]meta.IndexEntry, map[string]bool) {
	covered := make(map[string]bool)
	remaining := append([]meta.IndexEntry(nil), entries...)
	var chosen []meta.IndexEntry
	for {
		bestGain, bestIdx := 0, -1
		for i, e := range remaining {
			gain := 0
			for _, f := range e.Files {
				if active[f] && !covered[f] {
					gain++
				}
			}
			if gain > bestGain {
				bestGain, bestIdx = gain, i
			}
		}
		if bestIdx < 0 {
			return chosen, covered
		}
		e := remaining[bestIdx]
		chosen = append(chosen, e)
		remaining = append(remaining[:bestIdx], remaining[bestIdx+1:]...)
		for _, f := range e.Files {
			if active[f] {
				covered[f] = true
			}
		}
	}
}

// CheckExistence verifies the Existence invariant (Lemma 1): every
// index file referenced by the metadata table is present in the
// bucket. Tests run it between and during concurrent operations.
func (c *Client) CheckExistence(ctx context.Context) error {
	entries, err := c.meta.List(ctx)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if _, err := c.store.Head(ctx, e.IndexKey); err != nil {
			return fmt.Errorf("core: existence violated for %s: %w", e.IndexKey, err)
		}
	}
	return nil
}
