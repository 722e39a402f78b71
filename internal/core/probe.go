package core

import (
	"context"
	"errors"
	"strconv"
	"sync"

	"rottnest/internal/component"
	"rottnest/internal/ivfpq"
	"rottnest/internal/lake"
	"rottnest/internal/meta"
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
	entry meta.IndexEntry
	// reader is the file's reader when resolve opened it in the log
	// fan (execEnv.opened); nil means probeIndex opens the file.
	reader *component.Reader
	walk   func(ctx context.Context, r *component.Reader, span *obs.Span) error
	merge  func(m *Manifest)
}

// probeIndex opens the job's index file, unless it was opened ahead,
// and fans the manifest fetch beside the walk; a kind contributes only
// the walk, which goes through the shared-probe batcher. An index
// object that is gone was vacuumed after this search planned against
// it: the error names its key so the replan excludes exactly that
// entry.
func (c *Client) probeIndex(ctx context.Context, job probeJob) (*Manifest, error) {
	ctx, span := obs.Start(ctx, "index.probe")
	defer span.End()
	key := job.entry.IndexKey
	span.SetAttr("index", key)
	span.SetAttr("kind", job.entry.Kind.String())
	var manifest *Manifest
	r, err := job.reader, error(nil)
	if r == nil {
		r, err = c.openReader(ctx, job.entry)
	}
	if err == nil {
		err = simtime.Fan(ctx, 2, c.cfg.SearchWidth, func(ctx context.Context, i int) (ferr error) {
			if i == 0 {
				manifest, ferr = c.manifest(ctx, r)
				return ferr
			}
			return job.walk(ctx, r, span)
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
	// run answers, in one batch, the requests against the index file
	// behind r that the probe memo could not.
	run func(c *Client, ctx context.Context, r *component.Reader, reqs []probeReq) ([]exactProbe, error)
}

var exactKinds = map[component.Kind]exactKind{
	component.KindTrie: {shallow: true, run: (*Client).trieLookups},
	component.KindFM:   {run: (*Client).fmSuperwalk},
}

// probeKey is the batcher key of the leaf's normalized probe: the
// pattern plus the lookup bound.
func (lp *leafPlan) probeKey(maxRows int) string {
	return lp.probe + ":" + strconv.Itoa(maxRows)
}

// walkExact resolves every request against the index file behind r
// into out, through the batcher: repeats come from the memo, probes
// another query is running are joined, and the rest go to the kind's
// batch runner together.
func (c *Client) walkExact(ctx context.Context, kind exactKind, r *component.Reader, reqs []probeReq, out []exactProbe) error {
	vs, err := c.batch.doMany(ctx, r.Key(), reqs, func(ctx context.Context, missing []int) ([]any, []int64, error) {
		batch := make([]probeReq, len(missing))
		for j, i := range missing {
			batch[j] = reqs[i]
		}
		probes, err := kind.run(c, ctx, r, batch)
		if err != nil {
			return nil, nil, err
		}
		vals, costs := make([]any, len(probes)), make([]int64, len(probes))
		for j, p := range probes {
			vals[j], costs[j] = p, int64(len(p.refs)*8+96)
		}
		return vals, costs, nil
	})
	for i, v := range vs {
		out[i] = v.(exactProbe)
	}
	return err
}

// trieLookups looks each key up on its own branch of one fan: lookups
// are independent descents, one probe run each.
func (c *Client) trieLookups(ctx context.Context, r *component.Reader, reqs []probeReq) ([]exactProbe, error) {
	c.probeRuns.Add(int64(len(reqs)))
	ix, err := c.openTrie(ctx, r)
	if err != nil {
		return nil, err
	}
	out := make([]exactProbe, len(reqs))
	err = simtime.Fan(ctx, len(reqs), c.cfg.SearchWidth, func(ctx context.Context, i int) (err error) {
		var key [16]byte
		copy(key[:], reqs[i].pattern)
		out[i].refs, err = ix.Lookup(ctx, key)
		return err
	})
	return out, err
}

// fmSuperwalk resolves every pattern with one multi-pattern superwalk,
// one probe run, with checkpoint-block fetches deduplicated across the
// patterns.
func (c *Client) fmSuperwalk(ctx context.Context, r *component.Reader, reqs []probeReq) ([]exactProbe, error) {
	c.probeRuns.Inc()
	ix, err := c.openFM(ctx, r)
	if err != nil {
		return nil, err
	}
	patterns := make([][]byte, len(reqs))
	bounds := make([]int, len(reqs))
	for i, req := range reqs {
		patterns[i], bounds[i] = req.pattern, req.maxRows
	}
	refs, trunc, stats, err := ix.LookupManyBounded(ctx, patterns, bounds)
	if err != nil {
		return nil, err
	}
	c.occFetched.Add(int64(stats.OccFetched))
	c.occReused.Add(int64(stats.OccReused))
	out := make([]exactProbe, len(reqs))
	for i := range reqs {
		out[i] = exactProbe{refs: refs[i], truncated: trunc[i]}
	}
	return out, nil
}

// probePair is one (leaf, chosen index file) probe of the probe phase.
type probePair struct {
	leaf  int
	entry meta.IndexEntry
}

// exactJobs appends one job per index file named by the (leaf, index)
// pairs: leaves that chose the same file probe it together, so its
// manifest is fetched once and, for an FM index, all their patterns
// ride one superwalk. Jobs keep the order their files first appear in,
// which keeps branch and wave order deterministic.
func (c *Client) exactJobs(jobs []probeJob, env *execEnv, pairs []probePair, maxRows int, out *probed) []probeJob {
	type group struct {
		entry  meta.IndexEntry
		leaves []int
	}
	groups := make([]group, 0, len(pairs))
	at := make(map[string]int, len(pairs))
	for _, p := range pairs {
		g, ok := at[p.entry.IndexKey]
		if !ok {
			g = len(groups)
			at[p.entry.IndexKey] = g
			groups = append(groups, group{entry: p.entry})
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
		probes := make([]exactProbe, len(reqs))
		jobs = append(jobs, probeJob{
			entry:  g.entry,
			reader: env.opened[g.entry.IndexKey],
			walk: func(ctx context.Context, r *component.Reader, span *obs.Span) error {
				err := c.walkExact(ctx, exactKinds[kind], r, reqs, probes)
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
			entry:  entry,
			reader: env.opened[entry.IndexKey],
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
func (c *Client) stageAND(env *execEnv, maxRows int) (cheapLeaf []bool) {
	root := env.shape.filter
	if root == nil || root.Op != OpAnd || len(env.leaves) < 2 {
		return nil
	}
	cheapLeaf = make([]bool, len(env.leaves))
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
// already rules out every file. On a plan miss both stages' files were
// opened in the log fan (resolve), so the expensive stage starts at its
// walk.
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
			pairs = append(pairs, probePair{leaf: i, entry: e})
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
			m, err := c.probeIndex(ctx, jobs[i])
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
