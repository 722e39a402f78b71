package core

import (
	"bytes"
	"context"

	"rottnest/internal/insitu"
	"rottnest/internal/ivfpq"
	"rottnest/internal/lake"
	"rottnest/internal/objcache"
	"rottnest/internal/objectstore"
	"rottnest/internal/obs"
	"rottnest/internal/parquet"
	"rottnest/internal/postings"
	"rottnest/internal/simtime"
)

// Stage 5 of a search, read/rank, fetches what the set algebra let
// through — each surviving page at most once, every residual predicate
// re-checked in one pass over the decoded values — scans what no index
// covers, and orders and cuts the result. It is the only stage that
// reads data files.

// fileTarget is one file's surviving plan: the admitted row ranges
// and how to read each needed column.
type fileTarget struct {
	file      lake.DataFile
	surviving []postings.RowRange
	cols      []insitu.ColumnRead
	planned   int  // pages selected across page-driven columns
	scan      bool // true when any column falls back to a full scan
}

// planReads is the one read planner: for each needed column of f, the
// pages of its page table that overlap rows when a probed manifest
// supplied the table, else a full scan. The ranker's column never
// plans from a table: vecPages names its pages exactly (refinement),
// and when nil the column is scanned (a file the vector cover misses).
func (e *execEnv) planReads(f lake.DataFile, rows []postings.RowRange, tables map[string]parquet.PageTable, vecPages []parquet.PageInfo) *fileTarget {
	t := &fileTarget{file: f, surviving: rows, cols: make([]insitu.ColumnRead, len(e.cols))}
	for i, cr := range e.cols {
		table, known := tables[cr.Name]
		switch {
		case i == e.shape.vecPos:
			cr.Pages, cr.Scan = vecPages, vecPages == nil
		case known:
			for _, p := range table {
				if postings.RangesOverlap(rows, p.FirstRow, p.FirstRow+int64(p.NumValues)) {
					cr.Pages = append(cr.Pages, p)
				}
			}
		default:
			cr.Scan = true
		}
		t.planned += len(cr.Pages)
		t.scan = t.scan || cr.Scan
		t.cols[i] = cr
	}
	return t
}

// compileKernel compiles the filter tree and the ranker into the read
// stage's one kernel over s.columns. Every leaf re-checks its exact
// predicate, so index false positives die here, and a ranked plan
// scores the rows that survive by their exact distance.
func (s *planShape) compileKernel() insitu.Kernel {
	var filter insitu.Kernel
	if s.filter != nil {
		idx := 0
		var build func(e *Expr) insitu.Kernel
		build = func(e *Expr) insitu.Kernel {
			if e.Op == OpLeaf {
				lp := s.leaves[idx]
				idx++
				col := s.columnPos(lp.pred.Column)
				switch {
				case lp.pred.UUID != nil:
					return insitu.UUIDKernel(col, *lp.pred.UUID)
				case lp.pred.Substring != nil:
					return insitu.SubstringKernel(col, lp.pred.Substring)
				default:
					return insitu.MatchKernel(col, lp.re.Match)
				}
			}
			kids := make([]insitu.Kernel, len(e.Children))
			for i, c := range e.Children {
				kids[i] = build(c)
			}
			if e.Op == OpAnd {
				return insitu.AndKernel(kids...)
			}
			return insitu.OrKernel(kids...)
		}
		filter = build(s.filter)
	}
	if s.vector == nil {
		return filter
	}
	q := s.vector.Vector
	return insitu.RankKernel(filter, s.vecPos, func(v []byte) float64 {
		// Up to 64 dimensions decode into a buffer on the stack, so
		// scoring a row allocates nothing at usual widths.
		var buf [64]float32
		x := buf[:]
		if len(q) > len(x) {
			x = make([]float32, len(q))
		}
		return float64(ivfpq.L2Sq(q, decodeVectorInto(x[:len(q)], v)))
	})
}

// readPages is how a search turns page locations into values: every
// page is looked up in the decoded-object cache under (page, data
// file key, offset), and the ones that are neither resident nor being
// decoded by another query go to one parquet.ReadPages call — so a
// cold read is the same single fan over the same coalesced ranges as
// without the cache, and a warm one inflates nothing. Deletion vectors
// are applied after decode, so a resident page does not depend on
// them; the file's key is the entry's tag, so objectGone drops its
// pages with its other decoded forms. The values are shared: read-only.
func (c *Client) readPages(ctx context.Context, store objectstore.Store, key string, col parquet.Column, infos []parquet.PageInfo) ([]parquet.Page, error) {
	if c.objc == nil {
		return parquet.ReadPages(ctx, store, key, col, infos)
	}
	offs := make([]int64, len(infos))
	for i, info := range infos {
		offs[i] = info.Offset
	}
	vals, err := c.objc.DoMany(ctx, objcache.KindPage, key, offs, func(ctx context.Context, missing []int) ([]any, []int64, error) {
		miss := make([]parquet.PageInfo, len(missing))
		for j, i := range missing {
			miss[j] = infos[i]
		}
		pages, err := parquet.ReadPages(ctx, store, key, col, miss)
		if err != nil {
			return nil, nil, err
		}
		vals, costs := make([]any, len(pages)), make([]int64, len(pages))
		for j, p := range pages {
			vals[j], costs[j] = p.Values, p.Values.Footprint()
		}
		return vals, costs, nil
	})
	if err != nil {
		return nil, err
	}
	pages := make([]parquet.Page, len(infos))
	for i, v := range vals {
		pages[i] = parquet.Page{Info: infos[i], Values: v.(parquet.ColumnValues)}
	}
	return pages, nil
}

// evalTargets reads and evaluates targets in parallel under the named
// phase span, one EvalPagesWith pass per file.
func (c *Client) evalTargets(ctx context.Context, env *execEnv, phase string, targets []*fileTarget) ([]insitu.Match, error) {
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
	err := simtime.Fan(ectx, len(targets), c.cfg.SearchWidth, func(ctx context.Context, i int) error {
		t := targets[i]
		dv, err := c.readDV(ctx, t.file)
		if err != nil {
			return err
		}
		outs[i], fetched[i], err = insitu.EvalPagesWith(ctx, c.readPages, c.store, c.table.Root()+t.file.Path, t.file.Path, t.cols, t.surviving, dv, env.shape.kernel, env.shape.outPos)
		return err
	})
	if err != nil {
		return nil, err
	}
	var matches []insitu.Match
	for i := range targets {
		matches = append(matches, outs[i]...)
		env.stats.PagesProbed += fetched[i]
	}
	return matches, nil
}

// finish is the tail every plan shares: scan the files the index cover
// cannot serve, order, and cut to K. A pure-filter plan scans only
// while the page-driven results cannot satisfy the query (Section IV-B
// step 3); a ranked plan must score all data, so it always scans.
func (c *Client) finish(ctx context.Context, env *execEnv, matches []insitu.Match, scan []*fileTarget) (*Result, error) {
	ranked := env.shape.vector != nil
	if len(scan) > 0 && (ranked || env.cq.K <= 0 || len(matches) < env.cq.K) {
		scanned, err := c.evalTargets(ctx, env, "search.scan", scan)
		if err != nil {
			return nil, err
		}
		matches = append(matches, scanned...)
		env.stats.FilesScanned = len(scan)
	}
	if ranked {
		insitu.SortByScore(matches)
	} else {
		insitu.SortMatches(matches)
	}
	if env.cq.K > 0 && len(matches) > env.cq.K {
		matches = matches[:env.cq.K]
	}
	// Values are views into decoded pages that later queries share:
	// what leaves the client is a copy, so a caller can neither change
	// a resident page nor keep one alive through a single value.
	for i := range matches {
		matches[i].Value = bytes.Clone(matches[i].Value)
	}
	return &Result{Matches: matches, Stats: *env.stats}, nil
}

// execExact runs pure-filter plans (UUID, substring, regex leaves
// under AND/OR): probe once per index file, intersect in memory, then
// one single-pass read per surviving file.
func (c *Client) execExact(ctx context.Context, env *execEnv) (*Result, error) {
	var scan []*fileTarget
	pass := func(unbounded bool) ([]insitu.Match, bool, error) {
		p, err := c.probe(ctx, env, unbounded)
		if err != nil {
			return nil, false, err
		}
		// Degenerate single-leaf plans have no set algebra worth a phase
		// span; compound plans get one so traces show the pruning.
		var span *obs.Span
		if len(env.leaves) > 1 {
			_, span = obs.Start(ctx, "search.intersect")
		}
		var pageDriven []*fileTarget
		pageDriven, scan = env.exactTargets(p, span)
		span.End()
		matches, err := c.evalTargets(ctx, env, "search.read", pageDriven)
		return matches, p.truncated, err
	}
	matches, truncated, err := pass(false)
	if err == nil && env.cq.K > 0 && len(matches) < env.cq.K && truncated {
		// The bounded sample under-filled K (deleted rows or page
		// false positives): retry unbounded for exact top-K.
		matches, _, err = pass(true)
	}
	if err != nil {
		return nil, err
	}
	return c.finish(ctx, env, matches, scan)
}

// execVector runs ranked plans: IVF-PQ candidate generation and the
// filter's index probes in one probe phase, the filter's row sets
// applied before refinement, exact-distance refinement reading each
// admitted page once, and exhaustive scoring of files the vector cover
// misses.
func (c *Client) execVector(ctx context.Context, env *execEnv) (*Result, error) {
	p, err := c.probe(ctx, env, false)
	if err != nil {
		return nil, err
	}
	var span *obs.Span
	if env.shape.filter != nil {
		_, span = obs.Start(ctx, "search.intersect")
	}
	refine, scan, kept := env.rankedTargets(p, span)
	span.End()
	readCtx, readSpan := obs.Start(ctx, "search.read")
	readSpan.SetAttr("candidates", kept)
	matches, err := c.evalTargets(readCtx, env, "search.refine", refine)
	readSpan.End()
	if err != nil {
		return nil, err
	}
	return c.finish(ctx, env, matches, scan)
}
