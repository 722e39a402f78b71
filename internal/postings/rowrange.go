package postings

import "sort"

// RowRange is a half-open interval [Lo, Hi) of file-global row
// numbers. Compound search plans work in row coordinates: pages of
// different columns do not align (pages are byte-sized), so candidate
// page sets from different indices are converted to row ranges,
// intersected or unioned, and mapped back to each column's pages.
type RowRange struct {
	Lo, Hi int64
}

// NormalizeRanges sorts rs by Lo, drops empty ranges, and merges
// overlapping or adjacent ones, returning a canonical disjoint
// ascending set. The input slice may be reordered.
func NormalizeRanges(rs []RowRange) []RowRange {
	kept := rs[:0]
	for _, r := range rs {
		if r.Hi > r.Lo {
			kept = append(kept, r)
		}
	}
	if len(kept) < 2 {
		return kept
	}
	sort.Slice(kept, func(i, j int) bool { return kept[i].Lo < kept[j].Lo })
	out := kept[:1]
	for _, r := range kept[1:] {
		last := &out[len(out)-1]
		if r.Lo <= last.Hi {
			if r.Hi > last.Hi {
				last.Hi = r.Hi
			}
		} else {
			out = append(out, r)
		}
	}
	return out
}

// IntersectRanges returns the intersection of two normalized range
// sets, itself normalized.
func IntersectRanges(a, b []RowRange) []RowRange {
	var out []RowRange
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		lo := a[i].Lo
		if b[j].Lo > lo {
			lo = b[j].Lo
		}
		hi := a[i].Hi
		if b[j].Hi < hi {
			hi = b[j].Hi
		}
		if lo < hi {
			out = append(out, RowRange{Lo: lo, Hi: hi})
		}
		if a[i].Hi < b[j].Hi {
			i++
		} else {
			j++
		}
	}
	return out
}

// UnionRanges returns the union of two normalized range sets, itself
// normalized.
func UnionRanges(a, b []RowRange) []RowRange {
	// Both inputs ascend, so the union is one two-pointer merge that
	// coalesces as it goes; no sort.
	out := make([]RowRange, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		var r RowRange
		if j == len(b) || (i < len(a) && a[i].Lo <= b[j].Lo) {
			r, i = a[i], i+1
		} else {
			r, j = b[j], j+1
		}
		if r.Hi <= r.Lo {
			continue // the whole-file range of an empty file
		}
		if n := len(out); n > 0 && r.Lo <= out[n-1].Hi {
			if r.Hi > out[n-1].Hi {
				out[n-1].Hi = r.Hi
			}
		} else {
			out = append(out, r)
		}
	}
	return out
}

// RangesLen returns the total number of rows covered by a normalized
// range set.
func RangesLen(rs []RowRange) int64 {
	var n int64
	for _, r := range rs {
		n += r.Hi - r.Lo
	}
	return n
}

// RangesContain reports whether row lies in the normalized range set.
func RangesContain(rs []RowRange, row int64) bool {
	i := sort.Search(len(rs), func(i int) bool { return rs[i].Hi > row })
	return i < len(rs) && rs[i].Lo <= row
}

// RangesOverlap reports whether [lo, hi) intersects the normalized
// range set.
func RangesOverlap(rs []RowRange, lo, hi int64) bool {
	if hi <= lo {
		return false
	}
	i := sort.Search(len(rs), func(i int) bool { return rs[i].Hi > lo })
	return i < len(rs) && rs[i].Lo < hi
}
