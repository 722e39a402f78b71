// Package insitu implements Rottnest's in-situ probing (Sections III
// and V-A of the paper): resolving index hits by reading individual
// data pages of the original Parquet files with ranged GETs, re-
// checking the predicate against the raw values, and applying the
// lake's deletion vectors. Because the index stores no copy of the
// data, this is the only data access a search performs.
package insitu

import (
	"context"
	"fmt"
	"sort"

	"rottnest/internal/lake"
	"rottnest/internal/objectstore"
	"rottnest/internal/obs"
	"rottnest/internal/parquet"
)

// Match is one row that satisfied the predicate.
type Match struct {
	// Path is the lake-relative path of the file containing the row.
	Path string
	// Row is the file-global row index.
	Row int64
	// Value is the raw column value of the row.
	Value []byte
	// Score is the predicate's score (exact distance for vector
	// queries; 0 for exact-match queries).
	Score float64
}

// Predicate re-checks a candidate value. Return keep=false to discard
// (an index false positive); score is recorded on the match.
type Predicate func(value []byte) (keep bool, score float64)

// ProbePages fetches exactly the given pages of one file's column (a
// single parallel fan of ranged GETs), decodes them, and returns the
// rows passing the predicate, excluding rows masked by the deletion
// vector. Pages are deduplicated by ordinal.
func ProbePages(ctx context.Context, store objectstore.Store, key string, col parquet.Column, path string, pages []parquet.PageInfo, dv *lake.DeletionVector, pred Predicate) (matches []Match, err error) {
	if len(pages) == 0 {
		return nil, nil
	}
	ctx, span := obs.Start(ctx, "insitu.probe")
	defer span.End()
	span.SetAttr("path", path)
	defer func() { span.SetAttr("matches", len(matches)) }()
	uniq := uniquePages(pages)
	span.SetAttr("pages", len(uniq))
	decoded, err := parquet.ReadPages(ctx, store, key, col, uniq)
	if err != nil {
		return nil, fmt.Errorf("insitu: probe %s: %w", path, err)
	}
	var out []Match
	for _, page := range decoded {
		vals := page.Values.Bytes
		if vals == nil {
			return nil, fmt.Errorf("insitu: column %s of %s is not byte-typed", col.Name, path)
		}
		for i, v := range vals {
			row := page.Info.FirstRow + int64(i)
			if dv.Contains(uint32(row)) {
				continue
			}
			if keep, score := pred(v); keep {
				out = append(out, Match{Path: path, Row: row, Value: v, Score: score})
			}
		}
	}
	return out, nil
}

// ScanFile reads one file's entire column (the fallback for files no
// index covers yet, and the building block of the brute-force
// baseline) and returns the rows passing the predicate.
func ScanFile(ctx context.Context, store objectstore.Store, key string, column int, path string, dv *lake.DeletionVector, pred Predicate) (matches []Match, err error) {
	ctx, span := obs.Start(ctx, "insitu.scan")
	defer span.End()
	span.SetAttr("path", path)
	defer func() { span.SetAttr("matches", len(matches)) }()
	vals, _, _, err := parquet.ScanColumn(ctx, store, key, column)
	if err != nil {
		return nil, fmt.Errorf("insitu: scan %s: %w", path, err)
	}
	if vals.Bytes == nil && vals.Len() > 0 {
		return nil, fmt.Errorf("insitu: column %d of %s is not byte-typed", column, path)
	}
	var out []Match
	for i, v := range vals.Bytes {
		if dv.Contains(uint32(i)) {
			continue
		}
		if keep, score := pred(v); keep {
			out = append(out, Match{Path: path, Row: int64(i), Value: v, Score: score})
		}
	}
	return out, nil
}

// SortMatches orders matches deterministically by (path, row).
func SortMatches(matches []Match) {
	sort.Slice(matches, func(i, j int) bool {
		if matches[i].Path != matches[j].Path {
			return matches[i].Path < matches[j].Path
		}
		return matches[i].Row < matches[j].Row
	})
}

// SortByScore orders matches by ascending score, breaking ties by
// (path, row).
func SortByScore(matches []Match) {
	sort.Slice(matches, func(i, j int) bool {
		if matches[i].Score != matches[j].Score {
			return matches[i].Score < matches[j].Score
		}
		if matches[i].Path != matches[j].Path {
			return matches[i].Path < matches[j].Path
		}
		return matches[i].Row < matches[j].Row
	})
}
