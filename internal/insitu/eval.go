package insitu

import (
	"context"
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

// colValues resolves row numbers to one column's values.
type colValues struct {
	// scan holds the whole column when scanned.
	scan parquet.ColumnValues
	// pages holds decoded pages sorted by FirstRow when page-driven.
	pages []parquet.Page
	// cur is the first page that ends after the last row asked for.
	cur int
}

func (c *colValues) at(row int64) []byte {
	if c.scan.Bytes != nil || c.pages == nil {
		if row < 0 || row >= int64(len(c.scan.Bytes)) {
			return nil
		}
		return c.scan.Bytes[row]
	}
	// The row loop asks in ascending order, so the page is the
	// cursor's or a later one; a row inside an earlier page (out of
	// order) restarts the walk.
	i := c.cur
	if i > 0 && row < pageEnd(&c.pages[i-1]) {
		i = 0
	}
	for i < len(c.pages) && row >= pageEnd(&c.pages[i]) {
		i++
	}
	c.cur = i
	if i == len(c.pages) {
		return nil
	}
	p := &c.pages[i]
	off := row - p.Info.FirstRow
	if off < 0 || off >= int64(len(p.Values.Bytes)) {
		return nil
	}
	return p.Values.Bytes[off]
}

func pageEnd(p *parquet.Page) int64 { return p.Info.FirstRow + int64(p.Info.NumValues) }

// EvalPages is EvalPagesWith reading pages straight from the store.
func EvalPages(ctx context.Context, store objectstore.Store, key, path string, cols []ColumnRead, rows []postings.RowRange, dv *lake.DeletionVector, eval RowEval, output int) (matches []Match, pagesFetched int, err error) {
	return EvalPagesWith(ctx, parquet.ReadPages, store, key, path, cols, rows, dv, eval, output)
}

// EvalPagesWith is the compound in-situ evaluator: it reads each listed
// column of one file — page-driven columns with one parallel fan of
// ranged GETs, scan columns in full — then makes a single pass over
// the surviving row ranges, applying the deletion vector and the
// compound predicate once per row. It returns the matching rows (with
// Value taken from cols[output], a read-only view of the decoded
// page) and the number of pages selected on page-driven columns,
// whether read fetched them or already held them.
//
// Each page appears in at most one fetch regardless of how many
// predicates selected it: the caller is expected to pass the plan's
// already-intersected page sets, and duplicate ordinals within one
// ColumnRead are deduplicated here.
func EvalPagesWith(ctx context.Context, read PageReader, store objectstore.Store, key, path string, cols []ColumnRead, rows []postings.RowRange, dv *lake.DeletionVector, eval RowEval, output int) (matches []Match, pagesFetched int, err error) {
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
	vals := make([]*colValues, len(cols))
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
			vals[i] = &colValues{scan: v}
			return nil
		}
		pctx, span := obs.Start(ctx, "insitu.probe")
		defer span.End()
		span.SetAttr("path", path)
		span.SetAttr("column", cr.Name)
		// Dedup by ordinal on a copy: the caller's slice is often a
		// shared page table and must not be reordered.
		pages := append([]parquet.PageInfo(nil), cr.Pages...)
		sort.Slice(pages, func(a, b int) bool { return pages[a].Ordinal < pages[b].Ordinal })
		uniq := pages[:0]
		for _, p := range pages {
			if len(uniq) == 0 || p.Ordinal != uniq[len(uniq)-1].Ordinal {
				uniq = append(uniq, p)
			}
		}
		span.SetAttr("pages", len(uniq))
		fetched[i] = len(uniq)
		if len(uniq) == 0 {
			vals[i] = &colValues{pages: []parquet.Page{}}
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
		vals[i] = &colValues{pages: decoded}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	for _, n := range fetched {
		pagesFetched += n
	}

	// Single pass over the surviving rows: deletion vector, then the
	// compound predicate with every column's value at hand.
	rowVals := make([][]byte, len(cols))
	var out []Match
	for _, r := range rows {
		for row := r.Lo; row < r.Hi; row++ {
			if dv.Contains(uint32(row)) {
				continue
			}
			for i := range cols {
				rowVals[i] = vals[i].at(row)
			}
			if keep, score := eval(row, rowVals); keep {
				out = append(out, Match{Path: path, Row: row, Value: rowVals[output], Score: score})
			}
		}
	}
	return out, pagesFetched, nil
}
