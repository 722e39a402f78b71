package insitu

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"sort"

	"rottnest/internal/lake"
	"rottnest/internal/objectstore"
	"rottnest/internal/obs"
	"rottnest/internal/parquet"
	"rottnest/internal/postings"
	"rottnest/internal/simtime"
)

// ColumnRead describes how one column's values are obtained for a
// multi-predicate evaluation of one file: either an exact page set
// (the compound planner's surviving pages, fetched with ranged GETs)
// or a full column scan (the fallback when no index manifest supplies
// a page table for the column).
type ColumnRead struct {
	// Name is the column name, for error messages.
	Name string
	// Col is the schema column (used to decode fetched pages).
	Col parquet.Column
	// ColIdx is the column's schema ordinal (used by full scans).
	ColIdx int
	// Pages are the pages to fetch when Scan is false. Duplicate
	// ordinals are allowed; each page is fetched once.
	Pages []parquet.PageInfo
	// Scan selects the full-column scan path.
	Scan bool
}

// RowEval decides one row of a compound query given the row's value
// in each requested column, in ColumnRead order. A value is nil when
// the row fell outside that column's fetched pages (only possible for
// page-driven columns whose page set does not cover the row).
type RowEval func(row int64, vals [][]byte) (keep bool, score float64)

// PageReader turns page locations of one file's column into decoded
// pages, in the order asked; parquet.ReadPages is the direct one. The
// values it returns are read-only (they may be shared with a cache).
type PageReader func(ctx context.Context, store objectstore.Store, key string, col parquet.Column, infos []parquet.PageInfo) ([]parquet.Page, error)

// Run is a stretch of one file's rows, [Lo, Hi), over which every
// requested column's values are one contiguous slice of one decoded
// page or scanned column: Cols[i][k] is column i's value at row Lo+k,
// and Cols[i] is nil when column i has no value anywhere on the run.
type Run struct {
	Lo, Hi int64
	Cols   [][][]byte
}

// Sel is the selection a Kernel narrows over one run. All selects
// every row of the run; otherwise Rows lists the selected rows as
// offsets from the run's first row, ascending. A ranking kernel puts
// one score per selected row in Scores, aligned with Rows. Rows is
// empty whenever All is set, and its capacity is the kernels' to
// write into.
type Sel struct {
	All    bool
	Rows   []int32
	Scores []float64
}

// size returns the number of rows s selects on run.
func (s *Sel) size(run *Run) int {
	if s.All {
		return int(run.Hi - run.Lo)
	}
	return len(s.Rows)
}

// row returns the offset of the j-th row s selects.
func (s *Sel) row(j int) int32 {
	if s.All {
		return int32(j)
	}
	return s.Rows[j]
}

// Kernel narrows sel to the rows of run that pass one node of a
// compound predicate: it writes the rows that pass over sel.Rows, in
// place and in order, and leaves All false. A kernel holds no state
// between calls, so one compiled predicate serves files evaluated
// concurrently.
type Kernel func(run *Run, sel *Sel)

// The leaf kernels below each loop twice, over the whole run or over
// the selected rows: one loop with a per-row branch between the two
// takes twice as long on a 2,048-row page.

// UUIDKernel keeps the rows whose value in column col is key, compared
// as two 64-bit words.
func UUIDKernel(col int, key [16]byte) Kernel {
	lo, hi := binary.LittleEndian.Uint64(key[:8]), binary.LittleEndian.Uint64(key[8:])
	return func(run *Run, sel *Sel) {
		vals, kept := run.Cols[col], sel.Rows[:0]
		switch {
		case vals == nil:
		case sel.All:
			for k, v := range vals {
				if equal16(v, lo, hi) {
					kept = append(kept, int32(k))
				}
			}
		default:
			for _, k := range sel.Rows {
				if equal16(vals[k], lo, hi) {
					kept = append(kept, k)
				}
			}
		}
		sel.All, sel.Rows = false, kept
	}
}

// equal16 reports whether v is the 16 bytes whose little-endian words
// are lo and hi.
func equal16(v []byte, lo, hi uint64) bool {
	return len(v) == 16 && binary.LittleEndian.Uint64(v) == lo && binary.LittleEndian.Uint64(v[8:]) == hi
}

// SubstringKernel keeps the rows whose value in column col contains
// pattern.
func SubstringKernel(col int, pattern []byte) Kernel {
	return func(run *Run, sel *Sel) {
		vals, kept := run.Cols[col], sel.Rows[:0]
		switch {
		case vals == nil:
		case sel.All:
			for k, v := range vals {
				if v != nil && bytes.Contains(v, pattern) {
					kept = append(kept, int32(k))
				}
			}
		default:
			for _, k := range sel.Rows {
				if v := vals[k]; v != nil && bytes.Contains(v, pattern) {
					kept = append(kept, k)
				}
			}
		}
		sel.All, sel.Rows = false, kept
	}
}

// MatchKernel keeps the rows whose value in column col passes match,
// a regular expression's Match say.
func MatchKernel(col int, match func(v []byte) bool) Kernel {
	return func(run *Run, sel *Sel) {
		vals, kept := run.Cols[col], sel.Rows[:0]
		switch {
		case vals == nil:
		case sel.All:
			for k, v := range vals {
				if v != nil && match(v) {
					kept = append(kept, int32(k))
				}
			}
		default:
			for _, k := range sel.Rows {
				if v := vals[k]; v != nil && match(v) {
					kept = append(kept, k)
				}
			}
		}
		sel.All, sel.Rows = false, kept
	}
}

// AndKernel narrows sel by each kid in turn, stopping once nothing is
// left. It needs at least one kid.
func AndKernel(kids ...Kernel) Kernel {
	return func(run *Run, sel *Sel) {
		for _, kid := range kids {
			if kid(run, sel); len(sel.Rows) == 0 {
				return
			}
		}
	}
}

// OrKernel keeps the rows that pass any kid: each kid narrows its own
// copy of sel, and the kids' rows merge in row order. It needs at
// least one kid.
func OrKernel(kids ...Kernel) Kernel {
	return func(run *Run, sel *Sel) {
		var union []int32
		sub := &Sel{}
		for _, kid := range kids {
			sub.All, sub.Rows = sel.All, append(sub.Rows[:0], sel.Rows...)
			kid(run, sub)
			union = unionRows(union, sub.Rows)
		}
		sel.All, sel.Rows = false, append(sel.Rows[:0], union...)
	}
}

// unionRows merges two ascending offset lists, each offset once, into
// a new list; it returns a itself when b is empty.
func unionRows(a, b []int32) []int32 {
	if len(b) == 0 {
		return a
	}
	out := make([]int32, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		switch {
		case a[0] < b[0]:
			out, a = append(out, a[0]), a[1:]
		case b[0] < a[0]:
			out, b = append(out, b[0]), b[1:]
		default:
			out, a, b = append(out, a[0]), a[1:], b[1:]
		}
	}
	return append(append(out, a...), b...)
}

// RankKernel narrows sel by filter (nil for none), drops the rows with
// no value in column col, and scores the rest with score.
func RankKernel(filter Kernel, col int, score func(v []byte) float64) Kernel {
	return func(run *Run, sel *Sel) {
		if filter != nil {
			filter(run, sel)
		}
		vals, kept, scores := run.Cols[col], sel.Rows[:0], sel.Scores[:0]
		if vals != nil {
			for j, n := 0, sel.size(run); j < n; j++ {
				k := sel.row(j)
				if v := vals[k]; v != nil {
					kept, scores = append(kept, k), append(scores, score(v))
				}
			}
		}
		sel.All, sel.Rows, sel.Scores = false, kept, scores
	}
}

// kernel adapts a row-at-a-time verdict to the run loop: it asks eval
// about each selected row, with the row's value in each of ncols
// columns.
func (eval RowEval) kernel(ncols int) Kernel {
	vals := make([][]byte, ncols)
	return func(run *Run, sel *Sel) {
		kept, scores := sel.Rows[:0], sel.Scores[:0]
		for j, n := 0, sel.size(run); j < n; j++ {
			k := sel.row(j)
			for i, c := range run.Cols {
				vals[i] = nil
				if c != nil {
					vals[i] = c[k]
				}
			}
			if keep, score := eval(run.Lo+int64(k), vals); keep {
				kept, scores = append(kept, k), append(scores, score)
			}
		}
		sel.All, sel.Rows, sel.Scores = false, kept, scores
	}
}

// colValues is one column's values as the run loop walks them: the
// whole column when scanned (pages nil), else its decoded pages sorted
// by FirstRow.
type colValues struct {
	scan  [][]byte
	pages []parquet.Page
	// cur is the first page that ends after the last row asked for.
	cur int
}

// span returns the column's values from row pos on as one slice of one
// page or of the scanned column, and the row end at which that slice
// stops; end is at most hi. vals is nil when the column has no value
// at pos, and end is then the first row at which it might. Rows are
// asked for in ascending order, so the page is the cursor's or a later
// one; a row inside an earlier page (out of order) restarts the walk.
func (c *colValues) span(pos, hi int64) (vals [][]byte, end int64) {
	if c.pages == nil {
		n := int64(len(c.scan))
		if pos < 0 {
			return nil, min(0, hi)
		}
		if pos >= n {
			return nil, hi
		}
		end = min(n, hi)
		return c.scan[pos:end], end
	}
	i := c.cur
	if i > 0 && pos < pageEnd(&c.pages[i-1]) {
		i = 0
	}
	for i < len(c.pages) && pos >= pageEnd(&c.pages[i]) {
		i++
	}
	c.cur = i
	if i == len(c.pages) {
		return nil, hi
	}
	p := &c.pages[i]
	first := p.Info.FirstRow
	if pos < first {
		return nil, min(first, hi)
	}
	// A page decoded to fewer values than it declares has none for
	// the rest of its rows.
	n := min(int64(len(p.Values.Bytes)), int64(p.Info.NumValues))
	if pos-first >= n {
		return nil, min(pageEnd(p), hi)
	}
	end = min(first+n, hi)
	return p.Values.Bytes[pos-first : end-first], end
}

func pageEnd(p *parquet.Page) int64 { return p.Info.FirstRow + int64(p.Info.NumValues) }

// maxRun bounds a run's length, so a selection's offsets fit int32 and
// a scanned file with deletions never lists all its rows at once.
const maxRun = 1 << 16

// evalRuns is the run loop: it cuts each row range, in order, into
// runs at every column's slice bounds, removes the deleted rows, lets
// eval narrow what is left, and appends a match per surviving row, in
// row order, with Value from cols[output] and the kernel's Score.
func evalRuns(path string, cols []colValues, rows []postings.RowRange, dv *lake.DeletionVector, eval Kernel, output int) []Match {
	run := &Run{Cols: make([][][]byte, len(cols))}
	sel := &Sel{}
	deletes := dv.Len() > 0
	var out []Match
	for _, r := range rows {
		for pos := r.Lo; pos < r.Hi; pos = run.Hi {
			end := min(r.Hi, pos+maxRun)
			for i := range cols {
				run.Cols[i], end = cols[i].span(pos, end)
			}
			for i, v := range run.Cols {
				if v != nil {
					run.Cols[i] = v[:end-pos]
				}
			}
			run.Lo, run.Hi = pos, end
			sel.All, sel.Rows, sel.Scores = !deletes, sel.Rows[:0], sel.Scores[:0]
			if deletes {
				for row := pos; row < end; row++ {
					if !dv.Contains(uint32(row)) {
						sel.Rows = append(sel.Rows, int32(row-pos))
					}
				}
				if len(sel.Rows) == 0 {
					continue
				}
			}
			eval(run, sel)
			vals := run.Cols[output]
			for j, k := range sel.Rows {
				m := Match{Path: path, Row: pos + int64(k)}
				if vals != nil {
					m.Value = vals[k]
				}
				if j < len(sel.Scores) {
					m.Score = sel.Scores[j]
				}
				out = append(out, m)
			}
		}
	}
	return out
}

// uniquePages returns pages in ascending ordinal order, each ordinal
// once. A list already strictly ascending (the read planner's page
// tables are) comes back as it is; any other is sorted on a copy, as
// the caller's slice is often a shared page table.
func uniquePages(pages []parquet.PageInfo) []parquet.PageInfo {
	ascending := true
	for i := 1; i < len(pages) && ascending; i++ {
		ascending = pages[i-1].Ordinal < pages[i].Ordinal
	}
	if ascending {
		return pages
	}
	pages = append([]parquet.PageInfo(nil), pages...)
	sort.Slice(pages, func(a, b int) bool { return pages[a].Ordinal < pages[b].Ordinal })
	uniq := pages[:1]
	for _, p := range pages[1:] {
		if p.Ordinal != uniq[len(uniq)-1].Ordinal {
			uniq = append(uniq, p)
		}
	}
	return uniq
}

// EvalPages is EvalPagesWith reading pages straight from the store,
// with eval asked about each row in turn.
func EvalPages(ctx context.Context, store objectstore.Store, key, path string, cols []ColumnRead, rows []postings.RowRange, dv *lake.DeletionVector, eval RowEval, output int) (matches []Match, pagesFetched int, err error) {
	return EvalPagesWith(ctx, parquet.ReadPages, store, key, path, cols, rows, dv, eval.kernel(len(cols)), output)
}

// EvalPagesWith is the compound in-situ evaluator: it reads each listed
// column of one file — page-driven columns with one parallel fan of
// ranged GETs, scan columns in full — then walks the surviving row
// ranges run by run, removing deleted rows and letting eval narrow
// the rest. It returns the matching rows (with Value taken from
// cols[output], a read-only view of the decoded page, and Score from
// a ranking kernel) and the number of pages selected on page-driven
// columns, whether read fetched them or already held them.
//
// Each page appears in at most one fetch regardless of how many
// predicates selected it: the caller is expected to pass the plan's
// already-intersected page sets, and duplicate ordinals within one
// ColumnRead are deduplicated here.
func EvalPagesWith(ctx context.Context, read PageReader, store objectstore.Store, key, path string, cols []ColumnRead, rows []postings.RowRange, dv *lake.DeletionVector, eval Kernel, output int) (matches []Match, pagesFetched int, err error) {
	if len(cols) == 0 || output < 0 || output >= len(cols) {
		return nil, 0, fmt.Errorf("insitu: eval %s: bad column set", path)
	}
	if len(rows) == 0 {
		// The plan admitted no rows; nothing to read. Zero-row files
		// still take this path (an empty file cannot match).
		hasScan := false
		for _, c := range cols {
			if c.Scan {
				hasScan = true
			}
		}
		if !hasScan {
			return nil, 0, nil
		}
	}

	// Read every column, each under its own span so traces show the
	// page-driven fetches (insitu.probe) apart from full scans
	// (insitu.scan). Columns fan in parallel on the session: they are
	// independent ranged GETs of the same file.
	vals := make([]colValues, len(cols))
	fetched := make([]int, len(cols))
	err = simtime.Fan(ctx, len(cols), 0, func(ctx context.Context, i int) error {
		cr := cols[i]
		if cr.Scan {
			sctx, span := obs.Start(ctx, "insitu.scan")
			defer span.End()
			span.SetAttr("path", path)
			span.SetAttr("column", cr.Name)
			v, _, _, err := parquet.ScanColumn(sctx, store, key, cr.ColIdx)
			if err != nil {
				return fmt.Errorf("insitu: scan %s: %w", path, err)
			}
			if v.Bytes == nil && v.Len() > 0 {
				return fmt.Errorf("insitu: column %s of %s is not byte-typed", cr.Name, path)
			}
			vals[i].scan = v.Bytes
			return nil
		}
		pctx, span := obs.Start(ctx, "insitu.probe")
		defer span.End()
		span.SetAttr("path", path)
		span.SetAttr("column", cr.Name)
		uniq := uniquePages(cr.Pages)
		span.SetAttr("pages", len(uniq))
		fetched[i] = len(uniq)
		if len(uniq) == 0 {
			return nil
		}
		decoded, err := read(pctx, store, key, cr.Col, uniq)
		if err != nil {
			return fmt.Errorf("insitu: probe %s: %w", path, err)
		}
		for _, p := range decoded {
			if p.Values.Bytes == nil && p.Values.Len() > 0 {
				return fmt.Errorf("insitu: column %s of %s is not byte-typed", cr.Name, path)
			}
		}
		vals[i].pages = decoded
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	for _, n := range fetched {
		pagesFetched += n
	}
	return evalRuns(path, vals, rows, dv, eval, output), pagesFetched, nil
}
