package fmindex

import "fmt"

// buildSuffixArray computes the suffix array of text with SA-IS
// (sais.go). The text handed in already carries its unique smallest
// sentinel as the final byte (BuildInto appends it), so the order is
// the one the FM index needs: the sentinel suffix first, and no
// comparison ever reaches the end of the text.
//
// The previous prefix-doubling builder is retained in sais_test.go as
// the differential-test and benchmark oracle.
func buildSuffixArray(text []byte) []int32 {
	sa := make([]int32, len(text))
	sortSuffixes(text, sa)
	return sa
}

// sortSuffixes fills sa, which must be zeroed and as long as text,
// with the suffix array of text. Beyond sa it allocates a 512-entry
// table, and a larger one only for pathological texts (sais.go).
func sortSuffixes(text []byte, sa []int32) {
	sais(text, 256, sa, make([]int32, 2*256))
}

// invertWalks is how many segment walks invertBWT interleaves: each
// step of a walk is a load at a random row, and independent walks let
// the processor keep that many cache misses in flight instead of one.
// Chosen with BenchmarkBWTInvert.
const invertWalks = 16

// headEvery spaces the rows that head segments. Every headEvery-th
// row heads one, row 0 (the sentinel's) included, so segments average
// headEvery text bytes whatever the text holds, and the two per-head
// tables cost 8/headEvery bytes per text byte. A power of two.
const headEvery = 64

// invertBWT reconstructs the original text, sentinel last, from its
// BWT into dst; lf is scratch for the LF mapping and both are as long
// as bwt. Used by index merging, which the paper notes may be
// computationally intensive.
//
// The serial inversion is one pointer chase from row 0 through LF,
// writing the text backwards, one cache miss at a time. Here the
// chase is cut at head rows into segments, and invertWalks segments
// are walked side by side: pass 1 records each segment's length and
// the head it ends at; the chain of heads from row 0 places every
// segment in the text; pass 2 walks them again, writing each straight
// into dst. The chain is also the check that bwt is a transform at
// all: it must visit every head once and return to row 0 with its
// lengths summing to the text's, or LF is not one cycle and bwt
// inverts to no text — an error, before dst is written.
func invertBWT(dst, bwt []byte, lf []int32) error {
	n := len(bwt)
	if n == 0 {
		return nil
	}
	// c0[c] = number of symbols smaller than c.
	var counts [256]int
	for _, c := range bwt {
		counts[c]++
	}
	var c0 [256]int
	sum := 0
	for c := 0; c < 256; c++ {
		c0[c] = sum
		sum += counts[c]
	}
	// LF mapping: lf[i] = C[bwt[i]] + occ(bwt[i], i).
	for i, c := range bwt {
		lf[i] = int32(c0[c])
		c0[c]++
	}

	heads := (n + headEvery - 1) / headEvery
	next := make([]int32, heads) // the head each segment ends at
	span := make([]int32, heads) // its length, then where it starts writing
	walkSegments(lf, nil, nil, next, span)

	// The serial chase writes step t of the walk from row 0 to
	// dst[(n-2-t) mod n]: the sentinel's predecessor first, the
	// sentinel itself last.
	off := 0 // steps before the current segment
	for h, visited := int32(0), 1; ; visited++ {
		length := int(span[h])
		if span[h] = int32(n - 2 - off); span[h] < 0 {
			span[h] += int32(n)
		}
		off += length
		if h = next[h]; h == 0 {
			if visited != heads || off != n {
				return fmt.Errorf("BWT is not one LF cycle: row 0's walk covers %d of %d rows and %d of %d segment heads", off, n, visited, heads)
			}
			break
		}
	}
	walkSegments(lf, bwt, dst, nil, span)
	return nil
}

// walkSegments walks every segment of LF, invertWalks at a time and
// interleaved. A segment starts at a head row and ends at the next
// head the walk reaches; since LF is a permutation, every walk ends,
// at worst back at its own head, and the walks take at most len(lf)
// steps in all. Without dst, it records each segment's length in span
// and the head it ends at in next. With dst, it writes each segment's
// bytes backwards from span[head], wrapping from 0 to the text's end.
func walkSegments(lf []int32, bwt, dst []byte, next, span []int32) {
	n := int32(len(lf))
	heads := int32(len(span))
	var row, head, at [invertWalks]int32 // at: steps taken, or the next write
	started := min(heads, invertWalks)
	for w := int32(0); w < started; w++ {
		row[w], head[w] = w*headEvery, w
		if dst != nil {
			at[w] = span[w]
		}
	}
	for active := started; active > 0; {
		for w := int32(0); w < active; w++ {
			r := row[w]
			if dst != nil {
				p := at[w]
				dst[p] = bwt[r]
				if p--; p < 0 {
					p = n - 1
				}
				at[w] = p
			} else {
				at[w]++
			}
			if r = lf[r]; r&(headEvery-1) != 0 {
				row[w] = r
				continue
			}
			if dst == nil {
				next[head[w]], span[head[w]] = r/headEvery, at[w]
			}
			if started < heads {
				row[w], head[w], at[w] = started*headEvery, started, 0
				if dst != nil {
					at[w] = span[started]
				}
				started++
			} else {
				active--
				row[w], head[w], at[w] = row[active], head[active], at[active]
			}
		}
	}
}
