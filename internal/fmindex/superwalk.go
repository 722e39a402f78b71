package fmindex

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"sort"

	"rottnest/internal/postings"
)

// This file implements the multi-pattern "superwalk": backward search
// for N distinct patterns run as one coordinated walk over the BWT.
// All patterns advance in lock-step, one character per step, and the
// occ checkpoint blocks every still-active pattern needs at a step are
// deduplicated and fetched in a single parallel fan, then kept in a
// per-walk memo so later steps touching the same block pay nothing.
// Backward searches converge toward the same C-table regions (patterns
// sharing trailing characters need the same blocks), so a batch of N
// patterns fetches each hot block once instead of once per pattern —
// the probe-side analogue of page-set intersection. A pattern's last
// two characters are answered from the root's bigram table, so each
// state starts where that leaves it and the first fetched step is the
// third character from the end.
//
// Whenever the walk must wait on the store it also predicts the blocks
// each pattern's next steps will need. The root's checkpoints bound
// occ(c, i) within a block without reading it, so a pattern's exact
// interval can be carried forward as bounds on sp and ep, step by
// step, collecting every BWT block those bounds span and, once all of
// a pattern's steps are predicted, the page-map blocks of its final
// rows. The fan the step waits on fetches them all, so those steps
// cost no level of their own. The checkpoints cannot tell a match from
// a miss, so a pattern adds at most maxFan blocks the memo lacks to one
// fan: it waits on no more levels than a step-at-a-time walk and reads
// at most maxFan blocks more per level it waits on, and what a miss
// costs is set by the step where it dies, not by its length. A pattern
// whose prediction fits one fan costs one level after the root.
//
// Results are exactly those of N independent Count/Lookup calls: the
// walk only changes which request fetches a block, never what any
// pattern's [sp, ep) interval is.

// WalkStats reports the block-fetch accounting of one superwalk, for
// benchmarks and the client's probe counters.
type WalkStats struct {
	// OccFetched counts BWT checkpoint blocks fetched from the store,
	// predicted or not. It counts blocks, not requests: a fan over a
	// cached stack merges adjacent blocks into one ranged GET.
	OccFetched int
	// OccReused counts occ evaluations served from the walk's memo —
	// block reads that an independent walk would have re-fetched.
	OccReused int
	// PageMapFetched counts page-map blocks fetched for lookup
	// resolution, predicted or not, after deduplication across
	// patterns.
	PageMapFetched int
}

// Add accumulates other into s.
func (s *WalkStats) Add(other WalkStats) {
	s.OccFetched += other.OccFetched
	s.OccReused += other.OccReused
	s.PageMapFetched += other.PageMapFetched
}

// walkState is one pattern's progress through the coordinated walk.
type walkState struct {
	pattern []byte
	rem     int // characters of pattern not yet walked, from the front
	sp, ep  int64
	dead    bool // interval emptied: the pattern has no matches
}

func (s *walkState) kill() {
	s.dead = true
	s.sp, s.ep = 0, 0
}

// occComponent returns the component ID of the checkpoint block
// occ(c, i) needs, or -1 when the root answers it: nothing precedes
// row 0, and the whole BWT holds totalSymbols[c].
func (ix *Index) occComponent(i int64) int {
	if i <= 0 || i >= int64(ix.n) {
		return -1
	}
	return ix.base + int((i-1)/int64(ix.blockSize))
}

// occFrom evaluates occ(c, i) from an already-fetched block, which
// must be the decompressed payload of occComponent(i) (unused when
// that is -1).
func (ix *Index) occFrom(block []byte, c byte, i int64) int64 {
	if i <= 0 {
		return 0
	}
	if i >= int64(ix.n) {
		return ix.totalSymbols[c]
	}
	blk := int((i - 1) / int64(ix.blockSize))
	base := ix.checkpoints[blk][c]
	within := i - int64(blk)*int64(ix.blockSize)
	if within > int64(len(block)) {
		// A corrupt file can ship a block shorter than the root's
		// geometry claims; counting what exists keeps this total.
		within = int64(len(block))
	}
	var count int64
	for _, b := range block[:within] {
		if b == c {
			count++
		}
	}
	return base + count
}

// occBounds bounds occ(c, i) from the root's checkpoints alone: the
// block [s, e) holding row i-1 adds between 0 and i-s occurrences of c
// to its start count, and leaves at most e-i of its own to come.
func (ix *Index) occBounds(c byte, i int64) (lo, hi int64) {
	if i <= 0 {
		return 0, 0
	}
	if i >= int64(ix.n) {
		return ix.totalSymbols[c], ix.totalSymbols[c]
	}
	blk := int((i - 1) / int64(ix.blockSize))
	s := int64(blk) * int64(ix.blockSize)
	e := min(s+int64(ix.blockSize), int64(ix.n))
	first, next := ix.checkpoints[blk][c], ix.totalSymbols[c]
	if blk+1 < ix.numBlocks {
		next = ix.checkpoints[blk+1][c]
	}
	return max(first, next-(e-i)), min(next, first+(i-s))
}

// maxSpan is the most blocks one bound's interval, or one pattern's
// page-map rows, may span and still be predicted. It is a property of
// the walk, not a tunable. An interval no wider than a block spans at
// most two, and a step keeps every bound's interval that narrow:
// within one block its bounds differ by at most the block's count of
// c, and across two adjacent ones by at most the interval's own width.
// So on a sound root only the page map meets the cap, for a pattern
// whose rows outgrow two blocks; for the walk it guards against a root
// whose checkpoints claim more symbols than a block holds.
const maxSpan = 2

// maxFan is the most BWT blocks one pattern's prediction may add to a
// fan beyond the blocks the step itself needs and the memo holds: one
// predicted step's worth, two bounds of maxSpan blocks each.
const maxFan = 2 * maxSpan

// occSpan returns the component IDs of the blocks occ evaluations
// over rows [lo, hi] read, first > last when the root answers them
// all, and ok false when they are more than maxSpan blocks.
func (ix *Index) occSpan(lo, hi int64) (first, last int, ok bool) {
	lo, hi = max(lo, 1), min(hi, int64(ix.n)-1)
	if lo > hi {
		return 0, -1, true
	}
	first, last = ix.occComponent(lo), ix.occComponent(hi)
	return first, last, last-first < maxSpan
}

// predict adds to need the component ID of every block s's next steps
// can read, and with lookup the page-map blocks of its first maxRows
// rows (0 means all) once every step is predicted, as far as the
// checkpoints bound them. It stops, leaving the rest to a later fan,
// where the bounds prove the interval empty, a symbol is absent from
// the text, a bound spans more than maxSpan blocks, or the next step
// would take the blocks it adds that neither memo nor need holds past
// maxFan.
func (ix *Index) predict(s *walkState, lookup bool, maxRows int, memo map[int][]byte, need map[int]bool) {
	if s.dead {
		return
	}
	added := 0
	spLo, spHi, epLo, epHi := s.sp, s.sp, s.ep, s.ep
	for rem := s.rem; rem > 0; rem-- {
		c := s.pattern[rem-1]
		if epHi <= spLo || ix.totalSymbols[c] == 0 {
			return
		}
		spFirst, spLast, spOK := ix.occSpan(spLo, spHi)
		epFirst, epLast, epOK := ix.occSpan(epLo, epHi)
		if !spOK || !epOK {
			return
		}
		var buf [maxFan]int
		ids := buf[:0]
		for _, span := range [2][2]int{{spFirst, spLast}, {epFirst, epLast}} {
			for id := span[0]; id <= span[1]; id++ {
				if _, ok := memo[id]; !ok && !need[id] && !slices.Contains(ids, id) {
					ids = append(ids, id)
				}
			}
		}
		if added += len(ids); added > maxFan {
			return
		}
		for _, id := range ids {
			need[id] = true
		}
		lo, _ := ix.occBounds(c, spLo)
		_, hi := ix.occBounds(c, spHi)
		spLo, spHi = ix.c[c]+lo, ix.c[c]+hi
		lo, _ = ix.occBounds(c, epLo)
		_, hi = ix.occBounds(c, epHi)
		epLo, epHi = ix.c[c]+lo, ix.c[c]+hi
	}
	end := epHi
	if maxRows > 0 {
		end = min(end, spHi+int64(maxRows))
	}
	if !lookup || end <= spLo {
		return
	}
	first, last := int(spLo)/ix.pmBlock, int(end-1)/ix.pmBlock
	if last-first >= maxSpan {
		return
	}
	for blk := first; blk <= last; blk++ {
		need[ix.base+ix.numBlocks+blk] = true
	}
}

// fetchInto fetches the components in need that memo lacks in one
// parallel fan and records them by component ID, returning how many of
// them were BWT blocks and how many page-map blocks.
func (ix *Index) fetchInto(ctx context.Context, memo map[int][]byte, need map[int]bool) (occ, pm int, err error) {
	missing := make([]int, 0, len(need))
	for id := range need {
		if _, ok := memo[id]; !ok {
			missing = append(missing, id)
		}
	}
	if len(missing) == 0 {
		return 0, 0, nil
	}
	sort.Ints(missing)
	blocks, err := ix.r.Components(ctx, missing)
	if err != nil {
		return 0, 0, err
	}
	for i, id := range missing {
		memo[id] = blocks[i]
		if id < ix.base+ix.numBlocks {
			occ++
		} else {
			pm++
		}
	}
	return occ, pm, nil
}

// backwardMany runs backward search for every pattern in one
// coordinated walk, returning each pattern's [sp, ep) interval. memo
// holds every block the walk fetched, by component ID: a block fetched
// at any step serves every later evaluation. A step that must fetch
// also fetches every block predict names, and for lookups the
// page-map blocks of each pattern's rows, bounded by maxRows (nil or 0
// entries mean unbounded).
func (ix *Index) backwardMany(ctx context.Context, patterns [][]byte, lookup bool, maxRows []int, memo map[int][]byte) ([]walkState, WalkStats, error) {
	var stats WalkStats
	states := make([]walkState, len(patterns))
	steps := 0
	for i, p := range patterns {
		if bytes.IndexByte(p, Sentinel) >= 0 {
			return nil, stats, fmt.Errorf("fmindex: pattern contains the sentinel byte")
		}
		s := &states[i]
		*s = walkState{pattern: p, rem: len(p), sp: 0, ep: int64(ix.n)}
		if ix.pairRows != nil && len(p) >= 2 {
			s.rem -= 2
			if s.sp, s.ep = ix.pairRange(p[s.rem], p[s.rem+1]); s.sp >= s.ep {
				s.kill()
			}
		}
		if !s.dead && s.rem > steps {
			steps = s.rem
		}
	}
	// seen holds every block an occ evaluation has read so far, so a
	// repeat read counts as reused whether or not it was predicted.
	seen := make(map[int]bool)
	need := make(map[int]bool)
	for ; steps > 0; steps-- {
		// Gather the blocks every still-active pattern needs this step.
		clear(need)
		wait := false
		for i := range states {
			s := &states[i]
			if s.dead || s.rem == 0 {
				continue
			}
			c := s.pattern[s.rem-1]
			if ix.totalSymbols[c] == 0 {
				s.kill()
				continue
			}
			for _, i64 := range [2]int64{s.sp, s.ep} {
				if id := ix.occComponent(i64); id >= 0 {
					if seen[id] {
						stats.OccReused++
					}
					seen[id], need[id] = true, true
					if _, ok := memo[id]; !ok {
						wait = true
					}
				}
			}
		}
		// A step that waits on the store carries every pattern's
		// prediction in the same fan.
		if wait {
			for i := range states {
				bound := 0
				if maxRows != nil {
					bound = maxRows[i]
				}
				ix.predict(&states[i], lookup, bound, memo, need)
			}
		}
		occ, pm, err := ix.fetchInto(ctx, memo, need)
		stats.OccFetched += occ
		stats.PageMapFetched += pm
		if err != nil {
			return nil, stats, err
		}
		// Advance every active pattern from the memo.
		for i := range states {
			s := &states[i]
			if s.dead || s.rem == 0 {
				continue
			}
			s.rem--
			c := s.pattern[s.rem]
			oSp := ix.occFrom(memo[ix.occComponent(s.sp)], c, s.sp)
			oEp := ix.occFrom(memo[ix.occComponent(s.ep)], c, s.ep)
			s.sp = ix.c[c] + oSp
			s.ep = ix.c[c] + oEp
			if s.sp >= s.ep {
				s.kill()
			}
		}
	}
	return states, stats, nil
}

// CountMany returns the number of occurrences of each pattern, walking
// all patterns in one coordinated pass. Results are identical to N
// independent Count calls; checkpoint blocks shared between patterns
// (or between a pattern's own sp/ep bounds) are fetched once.
func (ix *Index) CountMany(ctx context.Context, patterns [][]byte) ([]int64, WalkStats, error) {
	states, stats, err := ix.backwardMany(ctx, patterns, false, nil, make(map[int][]byte))
	if err != nil {
		return nil, stats, err
	}
	counts := make([]int64, len(states))
	for i, s := range states {
		counts[i] = s.ep - s.sp
	}
	return counts, stats, nil
}

// LookupManyBounded resolves every pattern to its distinct candidate
// pages in one coordinated walk. maxRows bounds the page-map entries
// read per pattern (nil or 0 entries mean unbounded, exactly as
// LookupBounded); truncated[i] reports whether pattern i's bound cut
// its match set. Page-map blocks are deduplicated across patterns and
// fetched in one fan, or with the walk's predicted blocks when the
// checkpoints bound a pattern's rows closely enough.
func (ix *Index) LookupManyBounded(ctx context.Context, patterns [][]byte, maxRows []int) ([][]postings.PageRef, []bool, WalkStats, error) {
	if maxRows != nil && len(maxRows) != len(patterns) {
		return nil, nil, WalkStats{}, fmt.Errorf("fmindex: %d patterns but %d bounds", len(patterns), len(maxRows))
	}
	memo := make(map[int][]byte)
	states, stats, err := ix.backwardMany(ctx, patterns, true, maxRows, memo)
	if err != nil {
		return nil, nil, stats, err
	}
	refs := make([][]postings.PageRef, len(states))
	truncated := make([]bool, len(states))

	// Clamp intervals and gather the page-map blocks all patterns need.
	type span struct{ sp, ep int64 }
	spans := make([]span, len(states))
	pmBase := ix.base + ix.numBlocks // component ID of page-map block 0
	pmNeed := make(map[int]bool)
	for i := range states {
		s := states[i]
		if s.dead || s.sp >= s.ep {
			continue
		}
		bound := 0
		if maxRows != nil {
			bound = maxRows[i]
		}
		if bound > 0 && s.ep-s.sp > int64(bound) {
			s.ep = s.sp + int64(bound)
			truncated[i] = true
		}
		spans[i] = span{sp: s.sp, ep: s.ep}
		for blk := int(s.sp) / ix.pmBlock; blk <= int(s.ep-1)/ix.pmBlock; blk++ {
			pmNeed[pmBase+blk] = true
		}
	}
	_, pm, err := ix.fetchInto(ctx, memo, pmNeed)
	stats.PageMapFetched += pm
	if err != nil {
		return nil, nil, stats, err
	}

	bits := bitsFor(uint32(len(ix.refs)))
	for i := range states {
		sp, ep := spans[i].sp, spans[i].ep
		if sp >= ep {
			continue
		}
		seen := make(map[uint32]bool)
		var out []postings.PageRef
		for row := sp; row < ep; row++ {
			blk := int(row) / ix.pmBlock
			page, err := unpackBit(memo[pmBase+blk], int(row)-blk*ix.pmBlock, bits)
			if err != nil {
				return nil, nil, stats, fmt.Errorf("fmindex: page map block %d: %w", blk, err)
			}
			if !seen[page] {
				seen[page] = true
				if int(page) < len(ix.refs) && ix.refs[page].File != noRef {
					out = append(out, ix.refs[page])
				}
			}
		}
		postings.Sort(out)
		refs[i] = out
	}
	return refs, truncated, stats, nil
}
