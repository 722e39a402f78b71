package core

import (
	"context"
	"errors"
	"strconv"
	"sync"

	"rottnest/internal/component"
	"rottnest/internal/ivfpq"
	"rottnest/internal/lake"
	"rottnest/internal/objectstore"
	"rottnest/internal/obs"
	"rottnest/internal/parquet"
	"rottnest/internal/postings"
	"rottnest/internal/simtime"
)

// Stage 3 of a search, probe, asks every chosen index file its
// question — once — and resolves the answers through the file's
// manifest to live snapshot files, dropping stale physical locations.
// It is the only stage that reads index files.

// probed is the probe stage's output.
type probed struct {
	// cands holds each exact leaf's candidate pages; tables the page
	// tables harvested from the exact leaves' manifests.
	cands  []*leafCandSet
	tables pageTables
	// vec holds a ranked plan's IVF-PQ candidates.
	vec []vecCandidate
	// truncated reports that a bounded lookup cut some posting list.
	truncated bool
}

// vecCandidate is one vector candidate resolved to a physical
// location.
type vecCandidate struct {
	file   lake.DataFile
	page   parquet.PageInfo
	row    int64 // file-global row
	approx float32
}

// probeJob is one index file the probe phase opens: the walk that
// runs beside the manifest fetch, and the merge that folds the walk's
// result through the manifest into the phase output (called under the
// phase lock once both landed).
type probeJob struct {
	key   string
	kind  component.Kind
	walk  func(ctx context.Context, r *component.Reader, span *obs.Span) error
	merge func(m *Manifest)
}

// probeIndex opens one index file and fans the manifest fetch beside
// the walk; a kind contributes only the walk, which goes through the
// shared-probe batcher. An index object that is gone was vacuumed
// after this search planned against it: the error names its key so the
// replan excludes exactly that entry.
func (c *Client) probeIndex(ctx context.Context, key string, kind component.Kind, walk func(ctx context.Context, r *component.Reader, span *obs.Span) error) (*Manifest, error) {
	ctx, span := obs.Start(ctx, "index.probe")
	defer span.End()
	span.SetAttr("index", key)
	span.SetAttr("kind", kind.String())
	var manifest *Manifest
	r, err := c.openReader(ctx, key)
	if err == nil {
		err = simtime.Fan(ctx, 2, c.cfg.SearchWidth, func(ctx context.Context, i int) (ferr error) {
			if i == 0 {
				manifest, ferr = c.manifest(ctx, r)
				return ferr
			}
			return walk(ctx, r, span)
		})
	}
	if errors.Is(err, objectstore.ErrNotFound) {
		err = &staleIndexError{key: key, err: err}
	}
	return manifest, err
}

// exactProbe is one memoized exact-probe result.
type exactProbe struct {
	refs      []postings.PageRef
	truncated bool
}

// exactKind is what an index family answering exact predicates
// contributes to the probe phase; nothing else in the executor
// branches on the kind.
type exactKind struct {
	// shallow marks walks of fixed small depth (a trie descent), which
	// the AND cost model treats as always cheap.
	shallow bool
	// walk resolves every request against the index file behind r,
	// through the batcher.
	walk func(c *Client, ctx context.Context, r *component.Reader, reqs []probeReq) ([]exactProbe, error)
}

var exactKinds = map[component.Kind]exactKind{
	component.KindTrie: {shallow: true, walk: (*Client).walkTrie},
	component.KindFM:   {walk: (*Client).walkFM},
}

// probeKey is the batcher key of the leaf's normalized probe: the
// pattern plus the lookup bound.
func (lp *leafPlan) probeKey(maxRows int) string {
	return lp.probe + ":" + strconv.Itoa(maxRows)
}

// walkTrie looks each key up on its own branch: lookups are
// independent descents, each coalesced and memoized by the batcher.
func (c *Client) walkTrie(ctx context.Context, r *component.Reader, reqs []probeReq) ([]exactProbe, error) {
	out := make([]exactProbe, len(reqs))
	err := simtime.Fan(ctx, len(reqs), c.cfg.SearchWidth, func(ctx context.Context, i int) error {
		v, err := c.batch.do(ctx, r.Key(), reqs[i].probeKey, func(ctx context.Context) (any, int64, error) {
			c.probeRuns.Inc()
			ix, err := c.openTrie(ctx, r)
			if err != nil {
				return nil, 0, err
			}
			var key [16]byte
			copy(key[:], reqs[i].pattern)
			refs, err := ix.Lookup(ctx, key)
			if err != nil {
				return nil, 0, err
			}
			return exactProbe{refs: refs}, int64(len(refs)*8 + 96), nil
		})
		if err == nil {
			out[i] = v.(exactProbe)
		}
		return err
	})
	return out, err
}

// walkFM resolves every pattern with one superwalk. FM probes always
// route through the batcher's group path, even alone: a probe arriving
// while another query's superwalk is in flight rides the next wave.
func (c *Client) walkFM(ctx context.Context, r *component.Reader, reqs []probeReq) ([]exactProbe, error) {
	vs, err := c.batch.doFMBatch(ctx, r.Key(), reqs, c.fmRunner(r))
	if err != nil {
		return nil, err
	}
	out := make([]exactProbe, len(vs))
	for i, v := range vs {
		out[i] = v.(exactProbe)
	}
	return out, nil
}

// fmRunner returns the batcher's runMany closure for the FM index
// behind r: one multi-pattern superwalk resolving every pattern in the
// wave, with checkpoint-block fetches deduplicated across them.
func (c *Client) fmRunner(r *component.Reader) fmRunMany {
	return func(bctx context.Context, reqs []probeReq) ([]any, []int64, error) {
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

// probePair is one (leaf, chosen index file) probe of the probe phase.
type probePair struct {
	leaf int
	key  string
}

// exactJobs appends one job per index file named by the (leaf, index)
// pairs: leaves that chose the same file probe it together, so its
// manifest is fetched once and, for an FM index, all their patterns
// ride one superwalk. Jobs keep the order their files first appear in,
// which keeps branch and wave order deterministic.
func (c *Client) exactJobs(jobs []probeJob, env *execEnv, pairs []probePair, maxRows int, out *probed) []probeJob {
	type group struct {
		key    string
		leaves []int
	}
	groups := make([]group, 0, len(pairs))
	at := make(map[string]int, len(pairs))
	for _, p := range pairs {
		g, ok := at[p.key]
		if !ok {
			g = len(groups)
			at[p.key] = g
			groups = append(groups, group{key: p.key})
		}
		groups[g].leaves = append(groups[g].leaves, p.leaf)
	}
	for _, g := range groups {
		kind := env.leaves[g.leaves[0]].plan.kind
		reqs := make([]probeReq, len(g.leaves))
		for i, li := range g.leaves {
			lp := env.leaves[li].plan
			reqs[i] = probeReq{probeKey: lp.probeKey(maxRows), pattern: lp.pattern, maxRows: maxRows}
			if out.cands[li] == nil {
				out.cands[li] = newLeafCandSet()
			}
		}
		var probes []exactProbe
		jobs = append(jobs, probeJob{
			key: g.key, kind: kind,
			walk: func(ctx context.Context, r *component.Reader, span *obs.Span) (err error) {
				probes, err = exactKinds[kind].walk(c, ctx, r, reqs)
				refs := 0
				for _, p := range probes {
					refs += len(p.refs)
				}
				span.SetAttr("patterns", len(reqs))
				span.SetAttr("refs", refs)
				return err
			},
			merge: func(m *Manifest) {
				out.tables.add(m, env.active)
				for i, li := range g.leaves {
					out.truncated = out.truncated || probes[i].truncated
					for _, ref := range probes[i].refs {
						if int(ref.File) >= len(m.Files) {
							continue
						}
						mf := m.Files[ref.File]
						if int(ref.Page) < len(mf.Pages) && env.active[mf.Path] { // else: stale physical location
							out.cands[li].add(mf.Path, mf.Pages[ref.Page])
						}
					}
				}
			},
		})
	}
	return jobs
}

// rankerJobs appends one job per chosen IVF-PQ index file of a ranked
// plan: candidate generation through the batcher, candidates resolved
// to live snapshot files and pages.
func (c *Client) rankerJobs(jobs []probeJob, env *execEnv, out *probed) []probeJob {
	for _, entry := range env.vecEntries {
		shape := env.shape
		var raw []ivfpq.Candidate
		jobs = append(jobs, probeJob{
			key: entry.IndexKey, kind: component.KindIVFPQ,
			walk: func(ctx context.Context, r *component.Reader, span *obs.Span) error {
				v, err := c.batch.do(ctx, r.Key(), shape.vecProbe, func(ctx context.Context) (any, int64, error) {
					c.probeRuns.Inc()
					ix, err := c.openIVF(ctx, r)
					if err != nil {
						return nil, 0, err
					}
					cands, err := ix.Search(ctx, shape.vector.Vector, shape.nprobe, shape.maxCands)
					if err != nil {
						return nil, 0, err
					}
					return cands, int64(len(cands)*24 + 96), nil
				})
				if err == nil {
					raw = v.([]ivfpq.Candidate)
					span.SetAttr("candidates", len(raw))
				}
				return err
			},
			merge: func(m *Manifest) {
				for _, cand := range raw {
					if int(cand.Ref.File) >= len(m.Files) {
						continue
					}
					mf := m.Files[cand.Ref.File]
					f, ok := env.fileByPath[mf.Path]
					if !ok {
						continue // stale physical location
					}
					if pi := mf.Pages.FindRow(cand.Ref.Row); pi >= 0 {
						out.vec = append(out.vec, vecCandidate{file: f, page: mf.Pages[pi], row: cand.Ref.Row, approx: cand.Dist})
					}
				}
			},
		})
	}
	return jobs
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

// stageAND is the cost model's probe order for a top-level AND:
// children whose probes are all cheap — shallow walks, probes the
// batcher has memoized, or leaves that probe nothing — go first;
// children needing fresh walks wait, and are skipped entirely when the
// cheap stage already rules out every file. It returns, per leaf,
// whether it belongs to the cheap stage, or nil when staging is a
// no-op: ordering is worthwhile only with both a cheap child that can
// prune and an expensive child to save.
func (c *Client) stageAND(env *execEnv, maxRows int) []bool {
	root := env.shape.filter
	if c.cfg.DisableANDOrdering || root == nil || root.Op != OpAnd || len(env.leaves) < 2 {
		return nil
	}
	cheapLeaf := make([]bool, len(env.leaves))
	anyCheapPruning, anyExpensive := false, false
	end := 0
	for _, child := range root.Children {
		start := end
		end += countLeaves(child)
		cheap, prunes := true, false
		for _, le := range env.leaves[start:end] {
			if len(le.chosen) == 0 {
				continue // probes nothing: free either way
			}
			prunes = true
			if exactKinds[le.plan.kind].shallow {
				continue
			}
			for _, e := range le.chosen {
				cheap = cheap && c.batch.peek(e.IndexKey, le.plan.probeKey(maxRows))
			}
		}
		for i := start; cheap && i < end; i++ {
			cheapLeaf[i] = true
		}
		anyCheapPruning = anyCheapPruning || (cheap && prunes)
		anyExpensive = anyExpensive || !cheap
	}
	if !anyCheapPruning || !anyExpensive {
		return nil
	}
	return cheapLeaf
}

// probe runs the one "search.probe" phase: every (leaf, chosen index)
// probe and, for a ranked plan, every IVF-PQ probe, fanned together.
// Under a top-level AND the cost model may stage the fan, probing the
// cheap children first and skipping the rest when their intersection
// already rules out every file.
func (c *Client) probe(ctx context.Context, env *execEnv, unbounded bool) (*probed, error) {
	probeCtx, span := obs.Start(ctx, "search.probe")
	defer span.End()

	maxRows := 0
	if !unbounded && env.boundedEligible() {
		// Over-fetch to survive page-level false positives and deleted
		// rows. Regex and multi-leaf plans read all literal hits: the
		// literal may be far more common than the full predicate, and
		// truncation would break the set algebra.
		maxRows = env.cq.K * 8
	}
	// A leaf's candidate set stays nil until a probe of it is
	// scheduled, which the set algebra reads as "admits every row".
	out := &probed{cands: make([]*leafCandSet, len(env.leaves)), tables: make(pageTables)}
	n := 0
	for _, le := range env.leaves {
		n += len(le.chosen)
	}
	pairs := make([]probePair, 0, n)
	for i, le := range env.leaves {
		for _, e := range le.chosen {
			pairs = append(pairs, probePair{leaf: i, key: e.IndexKey})
		}
	}
	// The ranker's probes ride the first fan, ahead of the leaves'.
	first := c.rankerJobs(make([]probeJob, 0, len(env.vecEntries)+n), env, out)
	span.SetAttr("index_files", len(pairs)+len(first))
	if unbounded {
		span.SetAttr("unbounded", true)
	}
	if env.shape.vector != nil {
		span.SetAttr("nprobe", env.shape.nprobe)
	}

	var mu sync.Mutex
	run := func(jobs []probeJob) error {
		return simtime.Fan(probeCtx, len(jobs), c.cfg.SearchWidth, func(ctx context.Context, i int) error {
			m, err := c.probeIndex(ctx, jobs[i].key, jobs[i].kind, jobs[i].walk)
			if err != nil {
				return err
			}
			mu.Lock()
			defer mu.Unlock()
			jobs[i].merge(m)
			return nil
		})
	}

	stageA, stageB := pairs, []probePair(nil)
	if cheapLeaf := c.stageAND(env, maxRows); cheapLeaf != nil {
		stageA = nil
		for _, p := range pairs {
			if cheapLeaf[p.leaf] {
				stageA = append(stageA, p)
			} else {
				stageB = append(stageB, p)
			}
		}
		env.stats.OrderedAND = true
		span.SetAttr("ordered", true)
	}
	if err := run(c.exactJobs(first, env, stageA, maxRows, out)); err != nil {
		return nil, err
	}
	if len(stageB) > 0 {
		for _, cs := range out.cands {
			if cs != nil {
				cs.buildRanges() // cheap-stage ranges for the kill check
			}
		}
		if env.anyRowAlive(out.cands) {
			if err := run(c.exactJobs(nil, env, stageB, maxRows, out)); err != nil {
				return nil, err
			}
		} else {
			// Every file is already dead under the cheap children alone;
			// AND can only shrink further, so the expensive probes can
			// never resurrect a row. Their candidate sets stay empty and
			// the normal downstream pipeline yields the same (empty)
			// result it would have computed the long way.
			env.stats.ShortCircuited = true
			env.stats.LeavesSkipped = len(stageB)
			c.leavesSkipped.Add(int64(len(stageB)))
			span.SetAttr("short_circuited", true)
			span.SetAttr("leaves_skipped", len(stageB))
		}
	}
	span.End()
	for i := range out.cands {
		if out.cands[i] == nil {
			out.cands[i] = newLeafCandSet()
		}
		out.cands[i].buildRanges()
	}
	return out, nil
}

// boundedEligible reports whether the plan may use bounded FM lookups
// with an unbounded retry: a single substring leaf with K > 0 —
// exactly the single-predicate fast path. Multi-leaf plans always
// probe unbounded: a truncated candidate set is not a superset, which
// the set algebra requires.
func (e *execEnv) boundedEligible() bool {
	return len(e.leaves) == 1 && e.shape.vector == nil &&
		e.leaves[0].plan.pred.Substring != nil && e.cq.K > 0
}
