package core

import (
	"context"
	"errors"
	"time"

	"rottnest/internal/insitu"
	"rottnest/internal/objectstore"
	"rottnest/internal/obs"
	"rottnest/internal/simtime"
)

// searchMaxReplans bounds how many times one Search replans after an
// index object it planned against is vacuumed out from under it. Each
// replan excludes the vanished index, so every retry makes progress.
const searchMaxReplans = 8

// staleIndexError marks an index file that vanished (vacuumed) after
// the search planned against it, letting the replan exclude exactly
// that entry. It unwraps to the underlying not-found error.
type staleIndexError struct {
	key string
	err error
}

func (e *staleIndexError) Error() string { return e.err.Error() }
func (e *staleIndexError) Unwrap() error { return e.err }

// Query describes one search. Exactly one of UUID, Substring, or
// Vector must be set; the index kind follows from it.
type Query struct {
	// Column is the column to search.
	Column string
	// K bounds the result count. For exact-match queries 0 means
	// "all matches" (which always scans unindexed files too); vector
	// queries require K > 0.
	K int
	// Snapshot selects the lake snapshot to search (-1 = latest).
	Snapshot int64
	// UUID is an exact-match key for a trie-indexed column.
	UUID *[16]byte
	// Substring is an exact substring pattern for an FM-indexed
	// column.
	Substring []byte
	// Regex is a regular expression for an FM-indexed column. The
	// search extracts a required literal from the pattern to drive
	// the index and re-checks the full expression in situ; patterns
	// with no usable literal fall back to scanning.
	Regex string
	// Vector is a query embedding for an IVF-PQ-indexed column.
	Vector []float32
	// NProbe is the number of coarse lists probed per vector index
	// file (default 8). Higher values raise recall and cost — the
	// recall knob of Figure 9.
	NProbe int
	// Refine is the number of candidates re-ranked against
	// full-precision vectors fetched in situ (default 4*K).
	Refine int
	// Partition optionally restricts the search to files whose
	// recorded stats overlap a structured-attribute range — the
	// paper's "normalized query" mechanism (Section VI): data
	// clustered by an attribute like timestamp lets every approach
	// touch only the matching partition.
	Partition *PartitionFilter
	// FileRange optionally restricts the search to a contiguous
	// path range of the snapshot's files — the shard-scoped view the
	// scatter-gather router fans out (internal/shard). Nil searches
	// the whole snapshot.
	FileRange *FileRange
}

// FileRange selects snapshot files whose path lies in the half-open
// interval [Start, End); an empty Start means "from the beginning"
// and an empty End means "to the end". Ranges produced by the shard
// partitioner are disjoint and cover the whole snapshot, so a union
// of per-range results equals the unrestricted search.
type FileRange struct {
	Start string
	End   string
}

// Contains reports whether path falls inside the range. A nil range
// contains everything.
func (r *FileRange) Contains(path string) bool {
	if r == nil {
		return true
	}
	return path >= r.Start && (r.End == "" || path < r.End)
}

// PartitionFilter prunes the searched files by an int64 column range
// (inclusive). Pruning is file-granular: on data clustered by the
// attribute it is exact partition selection; on unclustered data it
// is best-effort (files without stats are always searched).
type PartitionFilter struct {
	Column string
	Min    int64
	Max    int64
}

// Stats summarizes a search's work.
type Stats struct {
	// IndexFiles is the number of index files queried.
	IndexFiles int
	// CoveredFiles and UnindexedFiles partition the snapshot.
	CoveredFiles   int
	UnindexedFiles int
	// PagesProbed counts data pages selected for in-situ probing,
	// whether they were fetched or found decoded in the decoded-object
	// cache.
	PagesProbed int
	// PagesCandidate counts pages (or vector candidates) the indices
	// nominated before the plan's set algebra ran; PagesPruned is how
	// many of those the intersection discarded without a fetch. For
	// single-predicate plans the two are equal and zero respectively.
	PagesCandidate int
	PagesPruned    int
	// FilesScanned counts unindexed files scanned in full.
	FilesScanned int
	// PrunedFiles counts snapshot files skipped by the partition
	// filter.
	PrunedFiles int
	// OrderedAND reports that the probe phase staged this plan's
	// top-level AND children by estimated cost: cheap children (trie
	// walks, memoized probes, unindexed leaves) probed first, expensive
	// ones only if the cheap intersection left any file alive. Ranked
	// plans share the probe phase, so a vector query whose filter is an
	// AND may set OrderedAND, ShortCircuited and LeavesSkipped too.
	OrderedAND bool
	// ShortCircuited reports that the cheap stage emptied the page-set
	// intersection for every searched file, so the expensive AND
	// branches were never probed. LeavesSkipped counts the (leaf,
	// index) probes skipped that way.
	ShortCircuited bool
	LeavesSkipped  int
	// Latency is the virtual latency of the search when run inside a
	// simtime session.
	Latency time.Duration
	// GETs and BytesRead are the GET requests this search issued and
	// the bytes they fetched, counted on its own tally by the store
	// chain's Instrumented layer (zero without one): reads served by a
	// cache, or by another search's flight this one joined, are not
	// among them. The cache, retry and probe-coalescing work behind a
	// search is in Client.Metrics ("cache.*", "objcache.*", "retry.*",
	// "search.probe_coalesced").
	GETs      int64
	BytesRead int64
}

// Result is a search outcome.
type Result struct {
	Matches []insitu.Match
	Stats   Stats

	// heat is the final attempt's per-unit plan resolution, reported
	// to the client's HeatObserver (if any) by searchTree.
	heat []QueryHeat
}

// Search executes the protocol of Section IV-B: plan against the
// snapshot and metadata table, query covering index files in
// parallel, filter stale physical locations, probe result pages in
// situ (applying deletion vectors), and scan unindexed files when the
// indexed results cannot satisfy the query.
//
// A single-predicate Query is the degenerate one-leaf compound tree;
// every search runs through the compound planner (SearchCompound), so
// the two paths cannot drift.
func (c *Client) Search(ctx context.Context, q Query) (*Result, error) {
	return c.SearchCompound(ctx, q.compound())
}

// SearchCompound executes a compound boolean query as one plan: every
// referenced index is probed once, candidate page sets are converted
// to row ranges and intersected/unioned in memory, and the in-situ
// phase fetches each surviving page at most once, evaluating all
// residual predicates in a single pass over the decoded values. A
// vector leaf (root, or direct child of a root AND) ranks: IVF-PQ
// candidate generation runs first, the sibling filter's row set is
// applied before refinement, and exact-distance reads touch only
// admitted rows.
//
// A plan runs as five stages, one file each: resolve (resolve.go)
// reads the snapshot and metadata listings, bind (bind.go) chooses
// files, covers and columns, probe (probe.go) asks the index files,
// the set algebra (algebra.go) intersects what they answered, and
// read/rank (read.go) fetches, re-checks, scans and cuts. Only
// resolve, probe and read touch the store.
func (c *Client) SearchCompound(ctx context.Context, cq CompoundQuery) (*Result, error) {
	shape, err := compileShape(cq)
	if err != nil {
		return nil, err
	}
	return c.searchTree(ctx, cq, shape)
}

// TraceCompound is Trace for compound queries: SearchCompound with a
// trace attached, returning the finished span tree.
func (c *Client) TraceCompound(ctx context.Context, cq CompoundQuery) (*Result, *obs.Node, error) {
	if simtime.From(ctx) == nil {
		ctx = simtime.With(ctx, simtime.NewSession())
	}
	ctx, root := obs.WithTrace(ctx, "search")
	res, err := c.SearchCompound(ctx, cq)
	root.End()
	return res, root.Tree(), err
}

// searchTree is the executor behind Search and SearchCompound: the
// vacuumed-index replan loop, run under the search's own request tally
// and session clock.
func (c *Client) searchTree(ctx context.Context, cq CompoundQuery, shape *planShape) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	session := simtime.From(ctx)
	startElapsed := session.Elapsed()
	var tally objectstore.Metrics
	ctx = objectstore.WithTally(ctx, &tally)

	snapVersion := cq.Snapshot
	if snapVersion == 0 {
		snapVersion = -1
	}

	// A vacuum may physically delete an index object after this search
	// planned against it (commit-then-delete: the metadata row goes
	// first, so by the time the object is gone the plan is stale).
	// Replan rather than failing the query, excluding the vanished
	// index so files it covered fall to another index or to the scan
	// path — either way the results stay exact.
	var result *Result
	var err error
	var excluded map[string]bool
	for tries := 0; ; tries++ {
		result, err = c.round(ctx, cq, shape, snapVersion, excluded)
		var stale *staleIndexError
		if err == nil || tries >= searchMaxReplans || !errors.As(err, &stale) {
			break
		}
		if excluded == nil {
			excluded = make(map[string]bool)
		}
		excluded[stale.key] = true
		// The stale plan and everything cached from the vanished
		// index must not serve again.
		c.metaChanged()
		c.objectGone(stale.key)
	}
	if err != nil {
		return nil, err
	}
	result.Stats.Latency = session.Elapsed() - startElapsed
	result.Stats.GETs = tally.Gets.Load()
	result.Stats.BytesRead = tally.BytesRead.Load()
	c.searches.Inc()
	c.pagesProbed.Add(int64(result.Stats.PagesProbed))
	c.scannedFull.Add(int64(result.Stats.FilesScanned))
	c.pagesCandidate.Add(int64(result.Stats.PagesCandidate))
	c.pagesPruned.Add(int64(result.Stats.PagesPruned))
	c.latencyHist.Observe(int64(result.Stats.Latency))
	if h := c.heatObserver(); h != nil && result.heat != nil {
		h.ObserveSearch(SearchHeat{Units: result.heat, Latency: result.Stats.Latency})
	}
	return result, nil
}

// round runs one plan round through the five stages. Planning — resolve
// then bind — is one "search.plan" span on the root session: its
// virtual duration is exactly the session time the round's planning
// costs, so sibling phase durations sum to the search latency.
func (c *Client) round(ctx context.Context, cq CompoundQuery, shape *planShape, version int64, excluded map[string]bool) (*Result, error) {
	pctx, planSpan := obs.Start(ctx, "search.plan")
	defer planSpan.End()
	snap, listings, opened, fromCache, err := c.resolve(pctx, shape, version, len(excluded) > 0)
	if err != nil {
		return nil, err
	}
	if fromCache {
		planSpan.SetAttr("plan_cache", true)
	}
	env, err := bind(cq, shape, snap, listings, excluded)
	if err != nil {
		return nil, err
	}
	env.opened = opened
	planSpan.SetAttr("snapshot", snap.Version)
	planSpan.SetAttr("index_files", env.stats.IndexFiles)
	planSpan.SetAttr("covered_files", env.stats.CoveredFiles)
	planSpan.SetAttr("unindexed_files", env.stats.UnindexedFiles)
	planSpan.SetAttr("pruned_files", env.stats.PrunedFiles)
	planSpan.SetAttr("leaves", len(shape.leaves))
	planSpan.End() // idempotent: the defer covers the early error returns

	// Heat tap: record how this plan resolved files per probe unit, and
	// surface vector probe traffic, before execution so the observer
	// sees the plan even if execution fails downstream.
	var heat []QueryHeat
	if h := c.heatObserver(); h != nil {
		heat = heatUnits(env)
		if shape.vector != nil {
			h.ObserveVectorQuery(shape.vector.Column, shape.vector.Vector, shape.nprobe)
		}
	}

	var result *Result
	if shape.vector != nil {
		result, err = c.execVector(ctx, env)
	} else {
		result, err = c.execExact(ctx, env)
	}
	if result != nil {
		result.heat = heat
	}
	return result, err
}
