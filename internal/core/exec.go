package core

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"rottnest/internal/component"
	"rottnest/internal/insitu"
	"rottnest/internal/ivfpq"
	"rottnest/internal/lake"
	"rottnest/internal/meta"
	"rottnest/internal/objectstore"
	"rottnest/internal/obs"
	"rottnest/internal/parquet"
	"rottnest/internal/postings"
	"rottnest/internal/simtime"
)

// SearchCompound executes a compound boolean query as one plan: every
// referenced index is probed once, candidate page sets are converted
// to row ranges and intersected/unioned in memory, and the in-situ
// phase fetches each surviving page at most once, evaluating all
// residual predicates in a single pass over the decoded values. A
// vector leaf (root, or direct child of a root AND) ranks: IVF-PQ
// candidate generation runs first, the sibling filter's row set is
// applied before refinement, and exact-distance reads touch only
// admitted rows.
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

// leafExec is one exact leaf bound to a plan attempt: the compiled
// predicate plus the chosen index cover for the searched file set.
type leafExec struct {
	plan    *leafPlan
	colIdx  int
	col     parquet.Column
	chosen  []meta.IndexEntry
	covered map[string]bool
}

// leafCandSet accumulates one leaf's probe results across its chosen
// index files: candidate pages per snapshot file (deduplicated by
// ordinal) and their row ranges.
type leafCandSet struct {
	pages     map[string][]parquet.PageInfo
	seen      map[string]map[int]bool
	ranges    map[string][]postings.RowRange
	truncated bool
}

func newLeafCandSet() *leafCandSet {
	return &leafCandSet{
		pages: make(map[string][]parquet.PageInfo),
		seen:  make(map[string]map[int]bool),
	}
}

func (s *leafCandSet) add(path string, pages []parquet.PageInfo) {
	seen := s.seen[path]
	if seen == nil {
		seen = make(map[int]bool)
		s.seen[path] = seen
	}
	for _, p := range pages {
		if !seen[p.Ordinal] {
			seen[p.Ordinal] = true
			s.pages[path] = append(s.pages[path], p)
		}
	}
}

func (s *leafCandSet) buildRanges() {
	s.ranges = make(map[string][]postings.RowRange, len(s.pages))
	for path, pages := range s.pages {
		rs := make([]postings.RowRange, 0, len(pages))
		for _, p := range pages {
			rs = append(rs, postings.RowRange{Lo: p.FirstRow, Hi: p.FirstRow + int64(p.NumValues)})
		}
		s.ranges[path] = postings.NormalizeRanges(rs)
	}
}

// pageTables maps snapshot file path -> column name -> page table,
// harvested from every probed manifest so surviving row ranges can be
// mapped back to each column's pages.
type pageTables map[string]map[string]parquet.PageTable

func (t pageTables) add(m *Manifest, active map[string]bool) {
	for _, mf := range m.Files {
		if !active[mf.Path] || len(mf.Pages) == 0 {
			continue
		}
		byCol := t[mf.Path]
		if byCol == nil {
			byCol = make(map[string]parquet.PageTable)
			t[mf.Path] = byCol
		}
		if _, ok := byCol[m.Column]; !ok {
			byCol[m.Column] = mf.Pages
		}
	}
}

// execEnv is the state of one plan attempt shared by the exec phases.
type execEnv struct {
	cq         CompoundQuery
	shape      *planShape
	snap       *lake.Snapshot
	searched   []lake.DataFile
	active     map[string]bool
	fileByPath map[string]lake.DataFile
	leaves     []*leafExec
	// vector cover (ranked queries only).
	vecEntries []meta.IndexEntry
	vecCovered map[string]bool
	vecColIdx  int
	vecCol     parquet.Column
	// orderedCols is the deterministic residual-evaluation column
	// order; colPos is its inverse.
	orderedCols []string
	colPos      map[string]int
	stats       *Stats
}

// searchTree is the unified three-phase executor behind Search and
// SearchCompound, including the metrics prologue/epilogue and the
// vacuumed-index replan loop.
func (c *Client) searchTree(ctx context.Context, cq CompoundQuery, shape *planShape) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	session := simtime.From(ctx)
	startElapsed := session.Elapsed()
	var startMetrics objectstore.Snapshot
	if c.inst != nil {
		startMetrics = c.inst.Metrics().Snapshot()
	}
	var startCache objectstore.CacheStats
	if c.cache != nil {
		startCache = c.cache.Stats()
	}
	var startRetry objectstore.RetryStats
	if c.retry != nil {
		startRetry = c.retry.Stats()
	}
	startCoalesced := c.probeCoalesced.Value()

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
		result, err = c.attempt(ctx, cq, shape, snapVersion, excluded)
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
	var cacheDelta objectstore.CacheStats
	if c.cache != nil {
		cacheDelta = c.cache.Stats().Sub(startCache)
		result.Stats.CacheHits = cacheDelta.Hits
		result.Stats.CacheMisses = cacheDelta.Misses
		result.Stats.CacheBytesSaved = cacheDelta.BytesSaved
	}
	switch {
	case c.inst != nil:
		m := c.inst.Metrics().Snapshot().Sub(startMetrics)
		result.Stats.GETs = m.Gets
		result.Stats.BytesRead = m.BytesRead
	case c.cache != nil:
		// No instrumented store underneath (e.g. a bare directory
		// store): meter requests at the cache boundary instead.
		result.Stats.GETs = cacheDelta.UpstreamGets
		result.Stats.BytesRead = cacheDelta.UpstreamBytes
	}
	if c.retry != nil {
		r := c.retry.Stats().Sub(startRetry)
		result.Stats.Retries = r.Retries
		result.Stats.ThrottleWaits = r.ThrottleWaits
	}
	result.Stats.ProbesCoalesced = c.probeCoalesced.Value() - startCoalesced
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

// probeUnit names one metadata listing a plan needs.
type probeUnit struct {
	column string
	kind   component.Kind
}

// planUnits returns one unit per exact leaf plus one for the vector
// leaf, in canonical (shape) order, so cached listings align.
func planUnits(shape *planShape) []probeUnit {
	units := make([]probeUnit, 0, len(shape.leaves)+1)
	for _, lp := range shape.leaves {
		units = append(units, probeUnit{column: lp.pred.Column, kind: lp.kind})
	}
	if shape.vector != nil {
		units = append(units, probeUnit{column: shape.vector.Column, kind: component.KindIVFPQ})
	}
	return units
}

// attempt runs one full planning + execution round.
func (c *Client) attempt(ctx context.Context, cq CompoundQuery, shape *planShape, snapVersion int64, excluded map[string]bool) (*Result, error) {
	session := simtime.From(ctx)
	// The plan phase is one span on the root session: its virtual
	// duration is exactly the session time the planning round costs,
	// so sibling phase durations sum to the search latency.
	pctx, planSpan := obs.Start(ctx, "search.plan")
	defer planSpan.End()

	units := planUnits(shape)
	// Plan. The lake snapshot and the metadata listings are
	// independent logs; any tree whose (column, kind) pairs the plan
	// cache has all listed at the version reuses the whole round.
	// Replans (excluded non-empty) always go to the store: the cached
	// plan is what referenced the vanished index.
	replan := len(excluded) > 0
	snap, listings, planCached := c.plans.lookup(snapVersion, units, replan)
	if planCached {
		planSpan.SetAttr("plan_cache", true)
	} else {
		// The snapshot and the metadata table are independent logs:
		// replay each once, side by side, and split the meta entries
		// per unit in memory.
		var all []meta.IndexEntry
		var snapErr, metaErr error
		branch := func(fn func(ctx context.Context)) func(*simtime.Session) {
			return func(s *simtime.Session) {
				bctx := pctx
				if s != nil {
					bctx = simtime.With(pctx, s)
				}
				fn(bctx)
			}
		}
		branches := []func(*simtime.Session){
			branch(func(ctx context.Context) { snap, snapErr = c.table.SnapshotAt(ctx, snapVersion) }),
		}
		if len(units) > 0 {
			branches = append(branches, branch(func(ctx context.Context) { all, metaErr = c.meta.List(ctx) }))
		}
		session.Parallel(branches...)
		if snapErr != nil {
			return nil, snapErr
		}
		if metaErr != nil {
			// Surface a schema error over the listing failure, as
			// the single-predicate path always has.
			if err := c.validateColumns(snap, shape); err != nil {
				return nil, err
			}
			return nil, metaErr
		}
		listings = make([][]meta.IndexEntry, len(units))
		for i, u := range units {
			listings[i] = meta.EntriesFor(all, u.column, u.kind)
		}
		if !replan {
			c.plans.put(snap, units, listings)
		}
	}
	if err := c.validateColumns(snap, shape); err != nil {
		return nil, err
	}
	if len(excluded) > 0 {
		for i, l := range listings {
			kept := l[:0:0]
			for _, e := range l {
				if !excluded[e.IndexKey] {
					kept = append(kept, e)
				}
			}
			listings[i] = kept
		}
	}

	// Partition pruning: restrict the searched file set before any
	// index or scan planning.
	searched := snap.Files
	if cq.Partition != nil {
		if snap.Schema.ColumnIndex(cq.Partition.Column) < 0 {
			return nil, fmt.Errorf("core: partition column %q not in schema: %w", cq.Partition.Column, ErrBadColumn)
		}
		min := parquet.OrderableInt64(cq.Partition.Min)
		max := parquet.OrderableInt64(cq.Partition.Max)
		kept := searched[:0:0]
		for _, f := range searched {
			if f.MayContainRange(cq.Partition.Column, min, max) {
				kept = append(kept, f)
			}
		}
		searched = kept
	}
	if cq.FileRange != nil {
		kept := searched[:0:0]
		for _, f := range searched {
			if cq.FileRange.Contains(f.Path) {
				kept = append(kept, f)
			}
		}
		searched = kept
	}
	active := make(map[string]bool, len(searched))
	fileByPath := make(map[string]lake.DataFile, len(searched))
	for _, f := range searched {
		active[f.Path] = true
		fileByPath[f.Path] = f
	}

	// Per-leaf index cover. Leaves sharing a (column, kind) share the
	// listing, so their covers coincide; compute each pair once.
	env := &execEnv{
		cq: cq, shape: shape, snap: snap,
		searched: searched, active: active, fileByPath: fileByPath,
		colPos: make(map[string]int),
		stats:  &Stats{PrunedFiles: len(snap.Files) - len(searched)},
	}
	type cover struct {
		chosen  []meta.IndexEntry
		covered map[string]bool
	}
	covers := make(map[probeUnit]*cover)
	coverFor := func(u probeUnit, listing []meta.IndexEntry) *cover {
		if cv, ok := covers[u]; ok {
			return cv
		}
		chosen, covered := coverEntries(listing, active)
		cv := &cover{chosen: chosen, covered: covered}
		covers[u] = cv
		return cv
	}
	indexKeys := make(map[string]bool)
	for i, lp := range shape.leaves {
		colIdx := snap.Schema.ColumnIndex(lp.pred.Column)
		le := &leafExec{plan: lp, colIdx: colIdx, col: snap.Schema.Columns[colIdx]}
		if lp.indexable {
			cv := coverFor(units[i], listings[i])
			le.chosen, le.covered = cv.chosen, cv.covered
			for _, e := range cv.chosen {
				indexKeys[e.IndexKey] = true
			}
		} else {
			le.covered = map[string]bool{}
		}
		env.leaves = append(env.leaves, le)
		if _, ok := env.colPos[lp.pred.Column]; !ok {
			env.colPos[lp.pred.Column] = len(env.orderedCols)
			env.orderedCols = append(env.orderedCols, lp.pred.Column)
		}
	}
	if shape.vector != nil {
		u := units[len(units)-1]
		cv := coverFor(u, listings[len(units)-1])
		env.vecEntries, env.vecCovered = cv.chosen, cv.covered
		for _, e := range cv.chosen {
			indexKeys[e.IndexKey] = true
		}
		env.vecColIdx = snap.Schema.ColumnIndex(shape.vector.Column)
		env.vecCol = snap.Schema.Columns[env.vecColIdx]
		if _, ok := env.colPos[shape.vector.Column]; !ok {
			env.colPos[shape.vector.Column] = len(env.orderedCols)
			env.orderedCols = append(env.orderedCols, shape.vector.Column)
		}
	}

	// Snapshot partition stats. A file counts as covered when every
	// leaf's cover (and the vector cover, for ranked queries) includes
	// it — those are the files the plan can serve purely from pages.
	coveredCount := 0
	for _, f := range searched {
		if env.fileCovered(f.Path) {
			coveredCount++
		}
	}
	env.stats.IndexFiles = len(indexKeys)
	env.stats.CoveredFiles = coveredCount
	env.stats.UnindexedFiles = len(searched) - coveredCount
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
		heat = heatUnits(env, units)
		if shape.vector != nil {
			nprobe := shape.vector.NProbe
			if nprobe <= 0 {
				nprobe = 8
			}
			h.ObserveVectorQuery(shape.vector.Column, shape.vector.Vector, nprobe)
		}
	}

	var result *Result
	var err error
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

// heatUnits flattens the attempt's per-leaf covers into QueryHeat
// records, deduplicating leaves that share a (column, kind) pair.
func heatUnits(env *execEnv, units []probeUnit) []QueryHeat {
	seen := make(map[probeUnit]bool, len(units))
	out := make([]QueryHeat, 0, len(units))
	emit := func(u probeUnit, covered map[string]bool) {
		if seen[u] {
			return
		}
		seen[u] = true
		files := make([]HeatFile, 0, len(env.searched))
		for _, f := range env.searched {
			files = append(files, HeatFile{Path: f.Path, Rows: f.Rows, Covered: covered[f.Path]})
		}
		out = append(out, QueryHeat{Column: u.column, Kind: u.kind, Files: files})
	}
	for i, le := range env.leaves {
		if le.plan.indexable {
			emit(units[i], le.covered)
		}
	}
	if env.shape.vector != nil {
		emit(units[len(units)-1], env.vecCovered)
	}
	return out
}

// fileCovered reports whether every leaf (and the vector cover, when
// present) covers the file.
func (e *execEnv) fileCovered(path string) bool {
	for _, le := range e.leaves {
		if !le.plan.indexable || !le.covered[path] {
			return false
		}
	}
	if e.shape.vector != nil && !e.vecCovered[path] {
		return false
	}
	return true
}

// validateColumns checks every referenced column against the schema.
func (c *Client) validateColumns(snap *lake.Snapshot, shape *planShape) error {
	for _, lp := range shape.leaves {
		if _, _, err := kindForColumn(snap.Schema, lp.pred.Column, lp.kind); err != nil {
			return err
		}
	}
	if shape.vector != nil {
		if _, _, err := kindForColumn(snap.Schema, shape.vector.Column, component.KindIVFPQ); err != nil {
			return err
		}
	}
	return nil
}

// leafProbeKey is the batcher key of one normalized probe: the
// predicate pattern (hex, so no input forges a separator) plus the
// lookup bound.
func leafProbeKey(lp *leafPlan, maxRows int) string {
	if lp.kind == component.KindTrie {
		return "t:" + hex.EncodeToString(lp.pred.UUID[:])
	}
	return fmt.Sprintf("f:%s:%d", hex.EncodeToString(lp.fmPattern), maxRows)
}

// exactProbe is one memoized exact-probe result.
type exactProbe struct {
	refs      []postings.PageRef
	truncated bool
}

// probeExactEntry opens one index file and resolves the leaf's probe
// against it: path -> page infos plus the manifest (for page tables).
// The manifest fetch and the index walk fan in parallel; the walk
// itself goes through the shared-probe batcher.
func (c *Client) probeExactEntry(ctx context.Context, le *leafExec, entry meta.IndexEntry, maxRows int) (*Manifest, []postings.PageRef, bool, error) {
	ctx, span := obs.Start(ctx, "index.probe")
	defer span.End()
	span.SetAttr("index", entry.IndexKey)
	span.SetAttr("kind", le.plan.kind.String())
	r, err := c.openReader(ctx, entry.IndexKey)
	if err != nil {
		return nil, nil, false, err
	}
	session := simtime.From(ctx)
	var manifest *Manifest
	var probe exactProbe
	var mErr, qErr error
	branches := []func(*simtime.Session){
		func(s *simtime.Session) {
			bctx := ctx
			if s != nil {
				bctx = simtime.With(ctx, s)
			}
			manifest, mErr = c.manifest(bctx, r)
		},
		func(s *simtime.Session) {
			bctx := ctx
			if s != nil {
				bctx = simtime.With(ctx, s)
			}
			if le.plan.kind == component.KindTrie {
				v, err := c.batch.do(bctx, entry.IndexKey, leafProbeKey(le.plan, maxRows), func(bctx context.Context) (any, int64, error) {
					c.probeRuns.Inc()
					var p exactProbe
					ix, err := c.openTrie(bctx, r)
					if err == nil {
						p.refs, err = ix.Lookup(bctx, *le.plan.pred.UUID)
					}
					if err != nil {
						return nil, 0, err
					}
					return p, int64(len(p.refs)*8 + 96), nil
				})
				if err != nil {
					qErr = err
					return
				}
				probe = v.(exactProbe)
			} else {
				// FM probes route through the batcher's group path even
				// as singletons: a probe arriving while another query's
				// superwalk is in flight rides the next wave.
				vs, err := c.batch.doFMBatch(bctx, entry.IndexKey,
					[]fmReq{{probeKey: leafProbeKey(le.plan, maxRows), pattern: le.plan.fmPattern, maxRows: maxRows}},
					c.fmRunner(r))
				if err != nil {
					qErr = err
					return
				}
				probe = vs[0].(exactProbe)
			}
		},
	}
	runBranches(session, c.cfg.SearchWidth, branches)
	if mErr != nil {
		return nil, nil, false, mErr
	}
	if qErr != nil {
		return nil, nil, false, qErr
	}
	span.SetAttr("refs", len(probe.refs))
	if probe.truncated {
		span.SetAttr("truncated", true)
	}
	return manifest, probe.refs, probe.truncated, nil
}

// fmRunner returns the batcher's runMany closure for the FM index
// behind r: one multi-pattern superwalk resolving every pattern in the
// wave, with checkpoint-block fetches deduplicated across them.
func (c *Client) fmRunner(r *component.Reader) fmRunMany {
	return func(bctx context.Context, reqs []fmReq) ([]any, []int64, error) {
		c.probeRuns.Inc()
		ix, err := c.openFM(bctx, r)
		if err != nil {
			return nil, nil, err
		}
		patterns := make([][]byte, len(reqs))
		bounds := make([]int, len(reqs))
		for i, req := range reqs {
			patterns[i], bounds[i] = req.pattern, req.maxRows
		}
		refs, trunc, stats, err := ix.LookupManyBounded(bctx, patterns, bounds)
		if err != nil {
			return nil, nil, err
		}
		c.occFetched.Add(int64(stats.OccFetched))
		c.occReused.Add(int64(stats.OccReused))
		vals := make([]any, len(reqs))
		costs := make([]int64, len(reqs))
		for i := range reqs {
			vals[i] = exactProbe{refs: refs[i], truncated: trunc[i]}
			costs[i] = int64(len(refs[i])*8 + 96)
		}
		return vals, costs, nil
	}
}

// probeFMGroup probes several FM leaves that chose the same index
// object with one superwalk: the manifest is fetched once and the
// batcher's group path walks all unmemoized patterns together.
// probes[i] is the result for leaves[i].
func (c *Client) probeFMGroup(ctx context.Context, indexKey string, leaves []*leafExec, maxRows []int) (*Manifest, []exactProbe, error) {
	ctx, span := obs.Start(ctx, "index.probe")
	defer span.End()
	span.SetAttr("index", indexKey)
	span.SetAttr("kind", leaves[0].plan.kind.String())
	span.SetAttr("patterns", len(leaves))
	r, err := c.openReader(ctx, indexKey)
	if err != nil {
		return nil, nil, err
	}
	reqs := make([]fmReq, len(leaves))
	for i, le := range leaves {
		reqs[i] = fmReq{probeKey: leafProbeKey(le.plan, maxRows[i]), pattern: le.plan.fmPattern, maxRows: maxRows[i]}
	}
	session := simtime.From(ctx)
	var manifest *Manifest
	probes := make([]exactProbe, len(leaves))
	var mErr, qErr error
	branches := []func(*simtime.Session){
		func(s *simtime.Session) {
			bctx := ctx
			if s != nil {
				bctx = simtime.With(ctx, s)
			}
			manifest, mErr = c.manifest(bctx, r)
		},
		func(s *simtime.Session) {
			bctx := ctx
			if s != nil {
				bctx = simtime.With(ctx, s)
			}
			vs, err := c.batch.doFMBatch(bctx, indexKey, reqs, c.fmRunner(r))
			if err != nil {
				qErr = err
				return
			}
			for i, v := range vs {
				probes[i] = v.(exactProbe)
			}
		},
	}
	runBranches(session, c.cfg.SearchWidth, branches)
	if mErr != nil {
		return nil, nil, mErr
	}
	if qErr != nil {
		return nil, nil, qErr
	}
	total := 0
	for _, p := range probes {
		total += len(p.refs)
	}
	span.SetAttr("refs", total)
	return manifest, probes, nil
}

// probeJob is one (leaf, chosen index) probe of the exact probe phase.
type probeJob struct {
	leaf  int
	entry meta.IndexEntry
}

// countLeaves returns the number of leaves in the expression subtree,
// matching the DFS leaf numbering of planShape.leaves.
func countLeaves(e *Expr) int {
	if e.Op == OpLeaf {
		return 1
	}
	n := 0
	for _, child := range e.Children {
		n += countLeaves(child)
	}
	return n
}

// andStaging is the cost model's partition of a top-level AND: which
// children are cheap to probe (trie walks, memoized probes, leaves
// that probe nothing) and which leaf indexes they own.
type andStaging struct {
	children   []*Expr
	childStart []int // first leaf index of each child's subtree
	childLen   []int
	cheap      []bool
	cheapLeaf  []bool // per leaf index
}

// planANDStages builds the probe-order plan for a top-level AND:
// children whose probes are all cheap — trie lookups (fixed shallow
// walks), probes the batcher has memoized, or leaves that probe
// nothing — run first; children needing fresh FM walks wait, and are
// skipped entirely when the cheap stage's page-set intersection
// already rules out every file. Returns nil when staging is a no-op:
// ordering is worthwhile only with both a cheap child that can prune
// and an expensive child to save.
func (c *Client) planANDStages(env *execEnv, maxRowsFor func(*leafExec) int) *andStaging {
	root := env.shape.filter
	if c.cfg.DisableANDOrdering || root == nil || root.Op != OpAnd || len(env.leaves) < 2 {
		return nil
	}
	st := &andStaging{children: root.Children}
	leafIdx := 0
	anyCheapPruning, anyExpensive := false, false
	for _, child := range root.Children {
		start := leafIdx
		n := countLeaves(child)
		leafIdx += n
		cheap, prunes := true, false
		for i := start; i < start+n && cheap; i++ {
			le := env.leaves[i]
			if !le.plan.indexable || len(le.chosen) == 0 {
				continue // probes nothing: free either way
			}
			prunes = true
			if le.plan.kind == component.KindTrie {
				continue
			}
			for _, e := range le.chosen {
				if !c.batch.peek(e.IndexKey, leafProbeKey(le.plan, maxRowsFor(le))) {
					cheap = false
					break
				}
			}
		}
		st.childStart = append(st.childStart, start)
		st.childLen = append(st.childLen, n)
		st.cheap = append(st.cheap, cheap)
		if cheap && prunes {
			anyCheapPruning = true
		}
		if !cheap {
			anyExpensive = true
		}
	}
	if !anyCheapPruning || !anyExpensive {
		return nil
	}
	st.cheapLeaf = make([]bool, len(env.leaves))
	for ci := range st.children {
		if st.cheap[ci] {
			for i := st.childStart[ci]; i < st.childStart[ci]+st.childLen[ci]; i++ {
				st.cheapLeaf[i] = true
			}
		}
	}
	return st
}

// cheapStageKills reports whether the cheap stage alone already rules
// out every searched file: per file, the intersection of the cheap
// AND children's admitted ranges is empty. Adding the remaining AND
// terms can only shrink those sets, so an empty result is final and
// the expensive probes are pure waste.
func cheapStageKills(env *execEnv, st *andStaging, cands []*leafCandSet) bool {
	for _, f := range env.searched {
		if f.Rows == 0 {
			continue // no rows to match regardless of probes
		}
		var inter []postings.RowRange
		first := true
		for ci, child := range st.children {
			if !st.cheap[ci] {
				continue
			}
			leafIdx := st.childStart[ci]
			rs := filterRanges(child, env, cands, f, &leafIdx)
			if first {
				inter, first = rs, false
			} else {
				inter = postings.IntersectRanges(inter, rs)
			}
			if len(inter) == 0 {
				break
			}
		}
		if len(inter) > 0 {
			return false
		}
	}
	return true
}

// probeExactLeaves fans all (leaf, chosen index) probes as one
// "search.probe" phase, returning per-leaf candidate sets and the
// harvested page tables. FM probes sharing an index object run as one
// multi-pattern superwalk; under a top-level AND the cost model may
// stage the fan, probing cheap children first and skipping the rest
// when their intersection already rules out every file.
func (c *Client) probeExactLeaves(ctx context.Context, env *execEnv, unbounded bool) ([]*leafCandSet, pageTables, error) {
	session := simtime.From(ctx)
	probeCtx, probeSpan := obs.Start(ctx, "search.probe")
	defer probeSpan.End()

	boundedK := 0
	if !unbounded && c.boundedEligible(env) {
		// Over-fetch to survive page-level false positives and deleted
		// rows. Regex and multi-leaf plans read all literal hits: the
		// literal may be far more common than the full predicate, and
		// truncation would break the set algebra.
		boundedK = env.cq.K * 8
	}
	maxRowsFor := func(le *leafExec) int {
		if boundedK > 0 && le.plan.kind == component.KindFM {
			return boundedK
		}
		return 0
	}

	cands := make([]*leafCandSet, len(env.leaves))
	tables := make(pageTables)
	var jobs []probeJob
	for i, le := range env.leaves {
		cands[i] = newLeafCandSet()
		for _, e := range le.chosen {
			jobs = append(jobs, probeJob{leaf: i, entry: e})
		}
	}
	probeSpan.SetAttr("index_files", len(jobs))
	if unbounded {
		probeSpan.SetAttr("unbounded", true)
	}

	var mu sync.Mutex
	merge := func(leaf int, manifest *Manifest, refs []postings.PageRef, truncated bool) {
		mu.Lock()
		defer mu.Unlock()
		if truncated {
			cands[leaf].truncated = true
		}
		tables.add(manifest, env.active)
		for _, ref := range refs {
			if int(ref.File) >= len(manifest.Files) {
				continue
			}
			mf := manifest.Files[ref.File]
			if int(ref.Page) >= len(mf.Pages) {
				continue
			}
			if !env.active[mf.Path] {
				continue // stale physical location, filtered out
			}
			cands[leaf].add(mf.Path, []parquet.PageInfo{mf.Pages[ref.Page]})
		}
	}

	// runJobs fans one wave of probes: FM jobs sharing an index object
	// group into a single superwalk branch, everything else probes on
	// its own branch exactly as before.
	runJobs := func(run []probeJob) error {
		fmCount := make(map[string]int)
		for _, j := range run {
			if env.leaves[j.leaf].plan.kind == component.KindFM {
				fmCount[j.entry.IndexKey]++
			}
		}
		var singles []probeJob
		groups := make(map[string][]probeJob)
		for _, j := range run {
			if env.leaves[j.leaf].plan.kind == component.KindFM && fmCount[j.entry.IndexKey] >= 2 {
				groups[j.entry.IndexKey] = append(groups[j.entry.IndexKey], j)
			} else {
				singles = append(singles, j)
			}
		}
		groupKeys := make([]string, 0, len(groups))
		for k := range groups {
			groupKeys = append(groupKeys, k)
		}
		sort.Strings(groupKeys) // deterministic branch (and wave) order

		errs := make([]error, len(singles)+len(groupKeys))
		branches := make([]func(*simtime.Session), 0, len(errs))
		for i := range singles {
			j := singles[i]
			idx := i
			branches = append(branches, func(s *simtime.Session) {
				bctx := probeCtx
				if s != nil {
					bctx = simtime.With(probeCtx, s)
				}
				le := env.leaves[j.leaf]
				manifest, refs, truncated, err := c.probeExactEntry(bctx, le, j.entry, maxRowsFor(le))
				if err != nil {
					if errors.Is(err, objectstore.ErrNotFound) {
						err = &staleIndexError{key: j.entry.IndexKey, err: err}
					}
					errs[idx] = err
					return
				}
				merge(j.leaf, manifest, refs, truncated)
			})
		}
		for gi, key := range groupKeys {
			g := groups[key]
			key := key
			idx := len(singles) + gi
			branches = append(branches, func(s *simtime.Session) {
				bctx := probeCtx
				if s != nil {
					bctx = simtime.With(probeCtx, s)
				}
				les := make([]*leafExec, len(g))
				bounds := make([]int, len(g))
				for i, j := range g {
					les[i] = env.leaves[j.leaf]
					bounds[i] = maxRowsFor(les[i])
				}
				manifest, probes, err := c.probeFMGroup(bctx, key, les, bounds)
				if err != nil {
					if errors.Is(err, objectstore.ErrNotFound) {
						err = &staleIndexError{key: key, err: err}
					}
					errs[idx] = err
					return
				}
				for i, j := range g {
					merge(j.leaf, manifest, probes[i].refs, probes[i].truncated)
				}
			})
		}
		runBranches(session, c.cfg.SearchWidth, branches)
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	}

	staged := c.planANDStages(env, maxRowsFor)
	if staged == nil {
		if err := runJobs(jobs); err != nil {
			return nil, nil, err
		}
	} else {
		var stageA, stageB []probeJob
		for _, j := range jobs {
			if staged.cheapLeaf[j.leaf] {
				stageA = append(stageA, j)
			} else {
				stageB = append(stageB, j)
			}
		}
		env.stats.OrderedAND = true
		probeSpan.SetAttr("ordered", true)
		if err := runJobs(stageA); err != nil {
			return nil, nil, err
		}
		for _, s := range cands {
			s.buildRanges() // cheap-stage ranges for the kill check
		}
		if cheapStageKills(env, staged, cands) {
			// Every file is already dead under the cheap children alone;
			// AND can only shrink further, so the expensive probes can
			// never resurrect a row. Their candidate sets stay empty and
			// the normal downstream pipeline yields the same (empty)
			// result it would have computed the long way.
			env.stats.ShortCircuited = true
			env.stats.LeavesSkipped = len(stageB)
			c.leavesSkipped.Add(int64(len(stageB)))
			probeSpan.SetAttr("short_circuited", true)
			probeSpan.SetAttr("leaves_skipped", len(stageB))
		} else if err := runJobs(stageB); err != nil {
			return nil, nil, err
		}
	}
	probeSpan.End()
	for _, s := range cands {
		s.buildRanges()
	}
	return cands, tables, nil
}

// boundedEligible reports whether the plan may use bounded FM lookups
// with an unbounded retry: a single substring leaf with K > 0 —
// exactly the single-predicate fast path. Multi-leaf plans always
// probe unbounded: a truncated candidate set is not a superset, which
// the set algebra requires.
func (c *Client) boundedEligible(env *execEnv) bool {
	return len(env.leaves) == 1 && env.shape.vector == nil &&
		env.leaves[0].plan.pred.Substring != nil && env.cq.K > 0
}

// filterRanges evaluates the filter tree's row-set algebra for one
// file: leaves admit their candidate ranges (or the whole file when
// the leaf's index cannot speak for it), AND intersects, OR unions.
// The result is a superset of the rows that can match.
func filterRanges(e *Expr, env *execEnv, cands []*leafCandSet, f lake.DataFile, leafIdx *int) []postings.RowRange {
	if e.Op == OpLeaf {
		i := *leafIdx
		*leafIdx++
		le := env.leaves[i]
		if !le.plan.indexable || !le.covered[f.Path] {
			return []postings.RowRange{{Lo: 0, Hi: f.Rows}}
		}
		return cands[i].ranges[f.Path]
	}
	var out []postings.RowRange
	for i, child := range e.Children {
		rs := filterRanges(child, env, cands, f, leafIdx)
		if i == 0 {
			out = rs
			continue
		}
		if e.Op == OpAnd {
			out = postings.IntersectRanges(out, rs)
		} else {
			out = postings.UnionRanges(out, rs)
		}
	}
	return out
}

// buildEval compiles the filter tree into one per-row check over the
// residual values, in env.orderedCols order. Every leaf re-checks its
// exact predicate, so index false positives die here.
func buildEval(e *Expr, env *execEnv) func(vals [][]byte) bool {
	idx := 0
	var build func(e *Expr) func([][]byte) bool
	build = func(e *Expr) func([][]byte) bool {
		if e.Op == OpLeaf {
			le := env.leaves[idx]
			idx++
			pos := env.colPos[le.plan.pred.Column]
			match := le.plan.match
			return func(vals [][]byte) bool { return vals[pos] != nil && match(vals[pos]) }
		}
		kids := make([]func([][]byte) bool, len(e.Children))
		for i, c := range e.Children {
			kids[i] = build(c)
		}
		if e.Op == OpAnd {
			return func(vals [][]byte) bool {
				for _, k := range kids {
					if !k(vals) {
						return false
					}
				}
				return true
			}
		}
		return func(vals [][]byte) bool {
			for _, k := range kids {
				if k(vals) {
					return true
				}
			}
			return false
		}
	}
	return build(e)
}

// fileTarget is one file's surviving plan: the admitted row ranges
// and how to read each needed column.
type fileTarget struct {
	file      lake.DataFile
	surviving []postings.RowRange
	cols      []insitu.ColumnRead
	planned   int  // pages selected across page-driven columns
	scan      bool // true when any column falls back to a full scan
}

// intersectTargets runs the in-memory set phase: per file, the filter
// tree's range algebra, then the surviving ranges mapped back to each
// needed column's pages. Files split into page-driven targets (every
// column served by exact page fetches) and scan targets (at least one
// column must be read in full).
func (c *Client) intersectTargets(ctx context.Context, env *execEnv, cands []*leafCandSet, tables pageTables, neededCols []string) (pageDriven, scanMode []*fileTarget) {
	// Degenerate single-leaf plans have no set algebra worth a phase
	// span; compound plans get one so traces show the pruning. SetAttr
	// and End are nil-safe.
	var span *obs.Span
	if len(env.leaves) > 1 {
		_, span = obs.Start(ctx, "search.intersect")
		defer span.End()
	}

	candidatePages := 0
	for _, s := range cands {
		for _, pages := range s.pages {
			candidatePages += len(pages)
		}
	}
	var rowsSurviving int64
	for _, f := range env.searched {
		leafIdx := 0
		surviving := filterRanges(env.shape.filter, env, cands, f, &leafIdx)
		if len(surviving) == 0 && f.Rows > 0 {
			continue // the set algebra pruned the whole file
		}
		rowsSurviving += postings.RangesLen(surviving)
		t := &fileTarget{file: f, surviving: surviving}
		byCol := tables[f.Path]
		for _, col := range neededCols {
			ci := env.snap.Schema.ColumnIndex(col)
			cr := insitu.ColumnRead{Name: col, Col: env.snap.Schema.Columns[ci], ColIdx: ci}
			if table, ok := byCol[col]; ok {
				for _, p := range table {
					if postings.RangesOverlap(surviving, p.FirstRow, p.FirstRow+int64(p.NumValues)) {
						cr.Pages = append(cr.Pages, p)
					}
				}
				t.planned += len(cr.Pages)
			} else {
				cr.Scan = true
				t.scan = true
			}
			t.cols = append(t.cols, cr)
		}
		if t.scan {
			scanMode = append(scanMode, t)
		} else {
			pageDriven = append(pageDriven, t)
		}
	}
	sort.Slice(pageDriven, func(i, j int) bool { return pageDriven[i].file.Path < pageDriven[j].file.Path })
	sort.Slice(scanMode, func(i, j int) bool { return scanMode[i].file.Path < scanMode[j].file.Path })

	planned := 0
	for _, t := range pageDriven {
		planned += t.planned
	}
	for _, t := range scanMode {
		planned += t.planned
	}
	pruned := candidatePages - planned
	if pruned < 0 {
		pruned = 0
	}
	env.stats.PagesCandidate += candidatePages
	env.stats.PagesPruned += pruned
	span.SetAttr("pages_candidate", candidatePages)
	span.SetAttr("pages_planned", planned)
	span.SetAttr("pages_pruned", pruned)
	span.SetAttr("rows_surviving", rowsSurviving)
	span.SetAttr("files_page_driven", len(pageDriven))
	span.SetAttr("files_scan", len(scanMode))
	return pageDriven, scanMode
}

// evalTargets reads and evaluates targets in parallel under the named
// phase span, one EvalPages pass per file.
func (c *Client) evalTargets(ctx context.Context, env *execEnv, phase string, targets []*fileTarget, eval func(t *fileTarget) insitu.RowEval, output int) ([]insitu.Match, error) {
	session := simtime.From(ctx)
	ectx, span := obs.Start(ctx, phase)
	defer span.End()
	span.SetAttr("files", len(targets))
	pages := 0
	for _, t := range targets {
		pages += t.planned
	}
	span.SetAttr("pages", pages)
	outs := make([][]insitu.Match, len(targets))
	fetched := make([]int, len(targets))
	errs := make([]error, len(targets))
	branches := make([]func(*simtime.Session), len(targets))
	for i := range targets {
		t := targets[i]
		idx := i
		branches[i] = func(s *simtime.Session) {
			bctx := ectx
			if s != nil {
				bctx = simtime.With(ectx, s)
			}
			dv, err := c.readDV(bctx, t.file)
			if err != nil {
				errs[idx] = err
				return
			}
			outs[idx], fetched[idx], errs[idx] = insitu.EvalPages(bctx, c.store, c.table.Root()+t.file.Path, t.file.Path, t.cols, t.surviving, dv, eval(t), output)
		}
	}
	runBranches(session, c.cfg.SearchWidth, branches)
	span.End()
	var matches []insitu.Match
	for i := range targets {
		if errs[i] != nil {
			return nil, errs[i]
		}
		matches = append(matches, outs[i]...)
		env.stats.PagesProbed += fetched[i]
	}
	return matches, nil
}

// execExact runs pure-filter compound plans (UUID, substring, regex
// leaves under AND/OR): probe once per (leaf, index), intersect in
// memory, then one single-pass read per surviving file.
func (c *Client) execExact(ctx context.Context, env *execEnv) (*Result, error) {
	output := env.colPos[env.shape.output]
	rowEval := func(t *fileTarget) insitu.RowEval {
		check := buildEval(env.shape.filter, env)
		return func(row int64, vals [][]byte) (bool, float64) {
			return check(vals), 0
		}
	}

	// One pass of probe + intersect + page-driven reads. Bounded FM
	// lookups may truncate; retry unbounded if the bounded pass
	// under-fills an exact top-K.
	var scanMode []*fileTarget
	runPass := func(unbounded bool) ([]insitu.Match, bool, error) {
		cands, tables, err := c.probeExactLeaves(ctx, env, unbounded)
		if err != nil {
			return nil, false, err
		}
		truncated := false
		for _, s := range cands {
			if s.truncated {
				truncated = true
			}
		}
		var pageDriven []*fileTarget
		pageDriven, scanMode = c.intersectTargets(ctx, env, cands, tables, env.orderedCols)
		matches, err := c.evalTargets(ctx, env, "search.read", pageDriven, rowEval, output)
		if err != nil {
			return nil, false, err
		}
		return matches, truncated, nil
	}

	matches, truncated, err := runPass(false)
	if err != nil {
		return nil, err
	}
	if env.cq.K > 0 && len(matches) < env.cq.K && truncated {
		// The bounded sample under-filled K (deleted rows or page
		// false positives): retry unbounded for exact top-K.
		matches, _, err = runPass(true)
		if err != nil {
			return nil, err
		}
	}

	// Scan files the index cover cannot serve when the page-driven
	// results cannot satisfy the query (Section IV-B step 3).
	if len(scanMode) > 0 && (env.cq.K <= 0 || len(matches) < env.cq.K) {
		scanned, err := c.evalTargets(ctx, env, "search.scan", scanMode, rowEval, output)
		if err != nil {
			return nil, err
		}
		matches = append(matches, scanned...)
		env.stats.FilesScanned = len(scanMode)
	}

	insitu.SortMatches(matches)
	if env.cq.K > 0 && len(matches) > env.cq.K {
		matches = matches[:env.cq.K]
	}
	return &Result{Matches: matches, Stats: *env.stats}, nil
}

// vectorProbeKey is the batcher key of one normalized vector probe.
func vectorProbeKey(vec []float32, nprobe, maxCands int) string {
	var b []byte
	b = append(b, fmt.Sprintf("v:%d:%d:", nprobe, maxCands)...)
	for _, f := range vec {
		b = append(b, fmt.Sprintf("%08x", math.Float32bits(f))...)
	}
	return string(b)
}

// probeVectorEntry opens one vector index file, probes it through the
// batcher, and resolves candidates to snapshot files and pages.
func (c *Client) probeVectorEntry(ctx context.Context, entry meta.IndexEntry, vec []float32, nprobe, maxCands int, fileByPath map[string]lake.DataFile) ([]vecCandidate, error) {
	ctx, span := obs.Start(ctx, "index.probe")
	defer span.End()
	span.SetAttr("index", entry.IndexKey)
	span.SetAttr("kind", component.KindIVFPQ.String())
	r, err := c.openReader(ctx, entry.IndexKey)
	if err != nil {
		return nil, err
	}
	session := simtime.From(ctx)
	var manifest *Manifest
	var raw []ivfpq.Candidate
	var mErr, qErr error
	branches := []func(*simtime.Session){
		func(s *simtime.Session) {
			bctx := ctx
			if s != nil {
				bctx = simtime.With(ctx, s)
			}
			manifest, mErr = c.manifest(bctx, r)
		},
		func(s *simtime.Session) {
			bctx := ctx
			if s != nil {
				bctx = simtime.With(ctx, s)
			}
			v, err := c.batch.do(bctx, entry.IndexKey, vectorProbeKey(vec, nprobe, maxCands), func(bctx context.Context) (any, int64, error) {
				c.probeRuns.Inc()
				ix, err := c.openIVF(bctx, r)
				if err != nil {
					return nil, 0, err
				}
				cands, err := ix.Search(bctx, vec, nprobe, maxCands)
				if err != nil {
					return nil, 0, err
				}
				return cands, int64(len(cands)*24 + 96), nil
			})
			if err != nil {
				qErr = err
				return
			}
			raw = v.([]ivfpq.Candidate)
		},
	}
	runBranches(session, c.cfg.SearchWidth, branches)
	if mErr != nil {
		return nil, mErr
	}
	if qErr != nil {
		return nil, qErr
	}
	var out []vecCandidate
	for _, cand := range raw {
		if int(cand.Ref.File) >= len(manifest.Files) {
			continue
		}
		mf := manifest.Files[cand.Ref.File]
		f, ok := fileByPath[mf.Path]
		if !ok {
			continue // stale physical location
		}
		pi := mf.Pages.FindRow(cand.Ref.Row)
		if pi < 0 {
			continue
		}
		out = append(out, vecCandidate{file: f, page: mf.Pages[pi], row: cand.Ref.Row, approx: cand.Dist})
	}
	span.SetAttr("candidates", len(out))
	return out, nil
}

// execVector runs ranked plans: IVF-PQ candidate generation (and the
// filter subtree's index probes) in one probe phase, the filter's row
// sets applied before refinement, exact-distance refinement reading
// each admitted page once, and exhaustive scoring of files the vector
// cover misses (scoring queries must rank all data), restricted to
// the filter's surviving rows.
func (c *Client) execVector(ctx context.Context, env *execEnv) (*Result, error) {
	session := simtime.From(ctx)
	vp := env.shape.vector
	nprobe := vp.NProbe
	if nprobe <= 0 {
		nprobe = 8
	}
	refine := vp.Refine
	if refine <= 0 {
		refine = 4 * env.cq.K
	}
	if refine < env.cq.K {
		refine = env.cq.K
	}
	maxCands := refine
	if env.shape.filter != nil {
		// The filter discards candidates before refinement; generate
		// proportionally more so a selective filter still fills K.
		maxCands = refine * 4
	}

	// Probe phase: the vector indices and the filter leaves' indices
	// fan together.
	probeCtx, probeSpan := obs.Start(ctx, "search.probe")
	defer probeSpan.End()
	probeSpan.SetAttr("nprobe", nprobe)

	var filterCands []*leafCandSet
	tables := make(pageTables)
	candLists := make([][]vecCandidate, len(env.vecEntries))
	vecErrs := make([]error, len(env.vecEntries))
	var mu sync.Mutex
	type leafJob struct {
		leaf  int
		entry meta.IndexEntry
	}
	var leafJobs []leafJob
	filterCands = make([]*leafCandSet, len(env.leaves))
	for i, le := range env.leaves {
		filterCands[i] = newLeafCandSet()
		for _, e := range le.chosen {
			leafJobs = append(leafJobs, leafJob{leaf: i, entry: e})
		}
	}
	probeSpan.SetAttr("index_files", len(env.vecEntries)+len(leafJobs))
	leafErrs := make([]error, len(leafJobs))
	branches := make([]func(*simtime.Session), 0, len(env.vecEntries)+len(leafJobs))
	for i := range env.vecEntries {
		entry := env.vecEntries[i]
		idx := i
		branches = append(branches, func(s *simtime.Session) {
			bctx := probeCtx
			if s != nil {
				bctx = simtime.With(probeCtx, s)
			}
			candLists[idx], vecErrs[idx] = c.probeVectorEntry(bctx, entry, vp.Vector, nprobe, maxCands, env.fileByPath)
			if vecErrs[idx] != nil && errors.Is(vecErrs[idx], objectstore.ErrNotFound) {
				vecErrs[idx] = &staleIndexError{key: entry.IndexKey, err: vecErrs[idx]}
			}
		})
	}
	for i := range leafJobs {
		j := leafJobs[i]
		idx := i
		branches = append(branches, func(s *simtime.Session) {
			bctx := probeCtx
			if s != nil {
				bctx = simtime.With(probeCtx, s)
			}
			le := env.leaves[j.leaf]
			manifest, refs, _, err := c.probeExactEntry(bctx, le, j.entry, 0)
			if err != nil {
				if errors.Is(err, objectstore.ErrNotFound) {
					err = &staleIndexError{key: j.entry.IndexKey, err: err}
				}
				leafErrs[idx] = err
				return
			}
			mu.Lock()
			defer mu.Unlock()
			tables.add(manifest, env.active)
			for _, ref := range refs {
				if int(ref.File) >= len(manifest.Files) {
					continue
				}
				mf := manifest.Files[ref.File]
				if int(ref.Page) >= len(mf.Pages) || !env.active[mf.Path] {
					continue
				}
				filterCands[j.leaf].add(mf.Path, []parquet.PageInfo{mf.Pages[ref.Page]})
			}
		})
	}
	runBranches(session, c.cfg.SearchWidth, branches)
	probeSpan.End()
	for _, err := range vecErrs {
		if err != nil {
			return nil, err
		}
	}
	for _, err := range leafErrs {
		if err != nil {
			return nil, err
		}
	}
	for _, s := range filterCands {
		s.buildRanges()
	}

	// Intersect phase: the filter's surviving row set per file, used
	// to discard vector candidates before any exact-distance read.
	surviving := make(map[string][]postings.RowRange, len(env.searched))
	if env.shape.filter != nil {
		_, span := obs.Start(ctx, "search.intersect")
		pruned := 0
		for _, f := range env.searched {
			leafIdx := 0
			surviving[f.Path] = filterRanges(env.shape.filter, env, filterCands, f, &leafIdx)
		}
		var cands []vecCandidate
		total := 0
		for _, list := range candLists {
			for _, cand := range list {
				total++
				if postings.RangesContain(surviving[cand.file.Path], cand.row) {
					cands = append(cands, cand)
				} else {
					pruned++
				}
			}
		}
		candLists = [][]vecCandidate{cands}
		span.SetAttr("candidates", total)
		span.SetAttr("candidates_pruned", pruned)
		env.stats.PagesCandidate += total
		env.stats.PagesPruned += pruned
		span.End()
	}
	var cands []vecCandidate
	for _, list := range candLists {
		cands = append(cands, list...)
	}

	// Keep the best `refine` candidates by approximate distance.
	sortVecCandidates(cands)
	if len(cands) > refine {
		cands = cands[:refine]
	}

	// Read phase: fetch each admitted page once, score exactly, and
	// re-check the filter's residual predicates on the same pass.
	dim := len(vp.Vector)
	vecPos := env.colPos[vp.Column]
	output := env.colPos[env.shape.output]
	var filterCheck func(vals [][]byte) bool
	if env.shape.filter != nil {
		filterCheck = buildEval(env.shape.filter, env)
	}
	rowEval := func(t *fileTarget) insitu.RowEval {
		return func(row int64, vals [][]byte) (bool, float64) {
			if vals[vecPos] == nil {
				return false, 0
			}
			if filterCheck != nil && !filterCheck(vals) {
				return false, 0
			}
			return true, float64(ivfpq.L2Sq(vp.Vector, decodeVector(vals[vecPos], dim)))
		}
	}
	refineTargets := c.vectorTargets(env, cands, tables)
	readCtx, readSpan := obs.Start(ctx, "search.read")
	readSpan.SetAttr("candidates", len(cands))
	matches, err := c.evalTargets(readCtx, env, "search.refine", refineTargets, rowEval, output)
	readSpan.End()
	if err != nil {
		return nil, err
	}

	// Files the vector cover misses must be scanned exhaustively for
	// scoring queries — restricted to the filter's surviving rows.
	var scanTargets []*fileTarget
	for _, f := range env.searched {
		if env.vecCovered[f.Path] {
			continue
		}
		rows := []postings.RowRange{{Lo: 0, Hi: f.Rows}}
		if env.shape.filter != nil {
			rows = surviving[f.Path]
			if len(rows) == 0 && f.Rows > 0 {
				continue
			}
		}
		t := &fileTarget{file: f, surviving: rows, scan: true}
		for _, col := range env.orderedCols {
			ci := env.snap.Schema.ColumnIndex(col)
			cr := insitu.ColumnRead{Name: col, Col: env.snap.Schema.Columns[ci], ColIdx: ci}
			if table, ok := tables[f.Path][col]; ok && col != vp.Column {
				for _, p := range table {
					if postings.RangesOverlap(rows, p.FirstRow, p.FirstRow+int64(p.NumValues)) {
						cr.Pages = append(cr.Pages, p)
					}
				}
				t.planned += len(cr.Pages)
			} else {
				cr.Scan = true
			}
			t.cols = append(t.cols, cr)
		}
		scanTargets = append(scanTargets, t)
	}
	if len(scanTargets) > 0 {
		scanned, err := c.evalTargets(ctx, env, "search.scan", scanTargets, rowEval, output)
		if err != nil {
			return nil, err
		}
		matches = append(matches, scanned...)
		env.stats.FilesScanned = len(scanTargets)
	}

	insitu.SortByScore(matches)
	if len(matches) > env.cq.K {
		matches = matches[:env.cq.K]
	}
	return &Result{Matches: matches, Stats: *env.stats}, nil
}

// vectorTargets groups refinement candidates by file: the vector
// column's candidate pages (deduplicated) plus any filter columns'
// pages overlapping the candidate rows, with the surviving set being
// exactly the candidate rows.
func (c *Client) vectorTargets(env *execEnv, cands []vecCandidate, tables pageTables) []*fileTarget {
	type group struct {
		file  lake.DataFile
		pages []parquet.PageInfo
		seen  map[int]bool
		rows  []postings.RowRange
	}
	groups := make(map[string]*group)
	for _, cand := range cands {
		g := groups[cand.file.Path]
		if g == nil {
			g = &group{file: cand.file, seen: make(map[int]bool)}
			groups[cand.file.Path] = g
		}
		if !g.seen[cand.page.Ordinal] {
			g.seen[cand.page.Ordinal] = true
			g.pages = append(g.pages, cand.page)
		}
		g.rows = append(g.rows, postings.RowRange{Lo: cand.row, Hi: cand.row + 1})
	}
	var targets []*fileTarget
	for _, g := range groups {
		rows := postings.NormalizeRanges(g.rows)
		t := &fileTarget{file: g.file, surviving: rows}
		for _, col := range env.orderedCols {
			ci := env.snap.Schema.ColumnIndex(col)
			cr := insitu.ColumnRead{Name: col, Col: env.snap.Schema.Columns[ci], ColIdx: ci}
			if col == env.shape.vector.Column {
				cr.Pages = g.pages
				t.planned += len(g.pages)
			} else if table, ok := tables[g.file.Path][col]; ok {
				for _, p := range table {
					if postings.RangesOverlap(rows, p.FirstRow, p.FirstRow+int64(p.NumValues)) {
						cr.Pages = append(cr.Pages, p)
					}
				}
				t.planned += len(cr.Pages)
			} else {
				cr.Scan = true
				t.scan = true
			}
			t.cols = append(t.cols, cr)
		}
		targets = append(targets, t)
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].file.Path < targets[j].file.Path })
	return targets
}
