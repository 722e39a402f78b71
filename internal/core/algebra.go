package core

import (
	"sort"

	"rottnest/internal/lake"
	"rottnest/internal/obs"
	"rottnest/internal/parquet"
	"rottnest/internal/postings"
)

// Stage 4 of a search, the set algebra, runs in memory between the
// probes and the reads: candidate pages become row ranges, the filter
// tree intersects and unions them per file, and what survives is
// handed to the read planner. It touches no store; the span it is
// given only records what it pruned.

// leafCandSet accumulates candidate pages per snapshot file,
// deduplicated by ordinal, and their row ranges: one exact leaf's probe
// results across its chosen index files, or a ranked plan's refinement
// pages.
type leafCandSet struct {
	pages  map[string][]parquet.PageInfo
	seen   map[string]map[int]bool
	ranges map[string][]postings.RowRange
}

func newLeafCandSet() *leafCandSet {
	return &leafCandSet{
		pages: make(map[string][]parquet.PageInfo),
		seen:  make(map[string]map[int]bool),
	}
}

func (s *leafCandSet) add(path string, p parquet.PageInfo) {
	seen := s.seen[path]
	if seen == nil {
		seen = make(map[int]bool)
		s.seen[path] = seen
	}
	if !seen[p.Ordinal] {
		seen[p.Ordinal] = true
		s.pages[path] = append(s.pages[path], p)
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

// filterRanges evaluates the filter tree's row-set algebra for one
// file: leaves admit their candidate ranges (or the whole file when
// the leaf's index cannot speak for it, or has not been asked yet),
// AND intersects, OR unions. The result is a superset of the rows that
// can match.
func filterRanges(e *Expr, env *execEnv, cands []*leafCandSet, f lake.DataFile, leafIdx *int) []postings.RowRange {
	if e.Op == OpLeaf {
		i := *leafIdx
		*leafIdx++
		if cands[i] == nil || !env.leaves[i].covered[f.Path] {
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

// survivors runs the filter tree for every searched file. A file maps
// to the row ranges that can still match; a file the algebra emptied
// is absent, and a file with no rows stays, harmlessly empty.
func (e *execEnv) survivors(cands []*leafCandSet) map[string][]postings.RowRange {
	out := make(map[string][]postings.RowRange, len(e.searched))
	for _, f := range e.searched {
		leafIdx := 0
		rows := filterRanges(e.shape.filter, e, cands, f, &leafIdx)
		if len(rows) > 0 || f.Rows == 0 {
			out[f.Path] = rows
		}
	}
	return out
}

// anyRowAlive reports whether any searched file keeps a row under the
// leaves probed so far. An empty file's whole-file range is not a
// survivor.
func (e *execEnv) anyRowAlive(cands []*leafCandSet) bool {
	for _, rows := range e.survivors(cands) {
		if postings.RangesLen(rows) > 0 {
			return true
		}
	}
	return false
}

// exactTargets is the set stage of a pure-filter plan: the surviving
// ranges of each file mapped back to every needed column's pages.
// Files split into page-driven targets (every column served by exact
// page fetches) and scan targets (at least one column must be read in
// full), each in path order.
func (e *execEnv) exactTargets(p *probed, span *obs.Span) (pageDriven, scanMode []*fileTarget) {
	candidatePages := 0
	for _, s := range p.cands {
		for _, pages := range s.pages {
			candidatePages += len(pages)
		}
	}
	surviving := e.survivors(p.cands)
	var rowsSurviving int64
	planned := 0
	for _, f := range e.searched {
		rows, ok := surviving[f.Path]
		if !ok {
			continue // the set algebra pruned the whole file
		}
		rowsSurviving += postings.RangesLen(rows)
		t := e.planReads(f, rows, p.tables[f.Path], nil)
		planned += t.planned
		if t.scan {
			scanMode = append(scanMode, t)
		} else {
			pageDriven = append(pageDriven, t)
		}
	}
	sortTargets(pageDriven)
	sortTargets(scanMode)

	pruned := candidatePages - planned
	if pruned < 0 {
		pruned = 0
	}
	e.stats.PagesCandidate += candidatePages
	e.stats.PagesPruned += pruned
	span.SetAttr("pages_candidate", candidatePages)
	span.SetAttr("pages_planned", planned)
	span.SetAttr("pages_pruned", pruned)
	span.SetAttr("rows_surviving", rowsSurviving)
	span.SetAttr("files_page_driven", len(pageDriven))
	span.SetAttr("files_scan", len(scanMode))
	return pageDriven, scanMode
}

// rankedTargets is the set stage of a ranked plan. The filter's
// surviving rows discard IVF-PQ candidates before any exact-distance
// read; the best `refine` of the rest, by approximate distance, become
// per-file refinement targets whose surviving set is exactly the
// candidate rows. Files the vector cover misses become scan targets —
// a scoring query must rank all data — restricted to the filter's
// surviving rows. kept is the number of candidates going to
// refinement.
func (e *execEnv) rankedTargets(p *probed, span *obs.Span) (refine, scan []*fileTarget, kept int) {
	var surviving map[string][]postings.RowRange
	cands := p.vec
	if e.shape.filter != nil {
		surviving = e.survivors(p.cands)
		cands = cands[:0:0]
		for _, cand := range p.vec {
			if postings.RangesContain(surviving[cand.file.Path], cand.row) {
				cands = append(cands, cand)
			}
		}
		pruned := len(p.vec) - len(cands)
		span.SetAttr("candidates", len(p.vec))
		span.SetAttr("candidates_pruned", pruned)
		e.stats.PagesCandidate += len(p.vec)
		e.stats.PagesPruned += pruned
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].approx != cands[j].approx {
			return cands[i].approx < cands[j].approx
		}
		if cands[i].file.Path != cands[j].file.Path {
			return cands[i].file.Path < cands[j].file.Path
		}
		return cands[i].row < cands[j].row
	})
	if len(cands) > e.shape.refine {
		cands = cands[:e.shape.refine]
	}

	pages := newLeafCandSet()
	rows := make(map[string][]postings.RowRange)
	for _, cand := range cands {
		pages.add(cand.file.Path, cand.page)
		rows[cand.file.Path] = append(rows[cand.file.Path], postings.RowRange{Lo: cand.row, Hi: cand.row + 1})
	}
	for path, vecPages := range pages.pages {
		refine = append(refine, e.planReads(e.fileByPath[path], postings.NormalizeRanges(rows[path]), p.tables[path], vecPages))
	}
	sortTargets(refine)
	for _, f := range e.searched {
		if e.vecCovered[f.Path] {
			continue
		}
		rows, ok := []postings.RowRange{{Lo: 0, Hi: f.Rows}}, true
		if e.shape.filter != nil {
			rows, ok = surviving[f.Path]
		}
		if ok {
			scan = append(scan, e.planReads(f, rows, p.tables[f.Path], nil))
		}
	}
	return refine, scan, len(cands)
}

func sortTargets(ts []*fileTarget) {
	sort.Slice(ts, func(i, j int) bool { return ts[i].file.Path < ts[j].file.Path })
}
