package fmindex

import (
	"bytes"
	"context"
	"fmt"
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
// Results are exactly those of N independent Count/Lookup calls: the
// walk only changes which request fetches a block, never what any
// pattern's [sp, ep) interval is.

// WalkStats reports the block-fetch accounting of one superwalk, for
// benchmarks and the client's probe counters.
type WalkStats struct {
	// OccFetched counts BWT checkpoint blocks fetched from the store
	// (one ranged GET each, before any byte-level caching below).
	OccFetched int
	// OccReused counts occ evaluations served from the walk's memo —
	// block reads that an independent walk would have re-fetched.
	OccReused int
	// PageMapFetched counts page-map blocks fetched during lookup
	// resolution, after deduplication across patterns.
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

// occBlockOf returns the checkpoint block occ(c, i) needs, or -1 when
// the root answers it: nothing precedes row 0, and the whole BWT holds
// totalSymbols[c].
func (ix *Index) occBlockOf(i int64) int {
	if i <= 0 || i >= int64(ix.n) {
		return -1
	}
	return int((i - 1) / int64(ix.blockSize))
}

// occFrom evaluates occ(c, i) from an already-fetched block, which
// must be the decompressed payload of occBlockOf(i) (unused when that
// is -1).
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

// fetchInto fetches the component ids missing from memo in one
// parallel fan and records them. ids are BWT-block ordinals (the
// caller adds ix.base / page-map offsets itself via toComponent).
func (ix *Index) fetchInto(ctx context.Context, memo map[int][]byte, need map[int]bool, toComponent func(int) int) (int, error) {
	missing := make([]int, 0, len(need))
	for blk := range need {
		if _, ok := memo[blk]; !ok {
			missing = append(missing, blk)
		}
	}
	if len(missing) == 0 {
		return 0, nil
	}
	sort.Ints(missing)
	ids := make([]int, len(missing))
	for i, blk := range missing {
		ids[i] = toComponent(blk)
	}
	blocks, err := ix.r.Components(ctx, ids)
	if err != nil {
		return 0, err
	}
	for i, blk := range missing {
		memo[blk] = blocks[i]
	}
	return len(missing), nil
}

// backwardMany runs backward search for every pattern in one
// coordinated walk, returning each pattern's [sp, ep) interval. The
// memo is shared across the whole walk: a block fetched at any step
// serves every later evaluation.
func (ix *Index) backwardMany(ctx context.Context, patterns [][]byte) ([]walkState, WalkStats, error) {
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
	memo := make(map[int][]byte)
	need := make(map[int]bool)
	for ; steps > 0; steps-- {
		// Gather the blocks every still-active pattern needs this step.
		clear(need)
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
				if blk := ix.occBlockOf(i64); blk >= 0 {
					if _, ok := memo[blk]; ok || need[blk] {
						stats.OccReused++
					}
					need[blk] = true
				}
			}
		}
		fetched, err := ix.fetchInto(ctx, memo, need, func(blk int) int { return ix.base + blk })
		if err != nil {
			return nil, stats, err
		}
		stats.OccFetched += fetched
		// Advance every active pattern from the memo.
		for i := range states {
			s := &states[i]
			if s.dead || s.rem == 0 {
				continue
			}
			s.rem--
			c := s.pattern[s.rem]
			oSp := ix.occFrom(memo[ix.occBlockOf(s.sp)], c, s.sp)
			oEp := ix.occFrom(memo[ix.occBlockOf(s.ep)], c, s.ep)
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
	states, stats, err := ix.backwardMany(ctx, patterns)
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
// fetched in one fan.
func (ix *Index) LookupManyBounded(ctx context.Context, patterns [][]byte, maxRows []int) ([][]postings.PageRef, []bool, WalkStats, error) {
	if maxRows != nil && len(maxRows) != len(patterns) {
		return nil, nil, WalkStats{}, fmt.Errorf("fmindex: %d patterns but %d bounds", len(patterns), len(maxRows))
	}
	states, stats, err := ix.backwardMany(ctx, patterns)
	if err != nil {
		return nil, nil, stats, err
	}
	refs := make([][]postings.PageRef, len(states))
	truncated := make([]bool, len(states))

	// Clamp intervals and gather the page-map blocks all patterns need.
	type span struct{ sp, ep int64 }
	spans := make([]span, len(states))
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
			pmNeed[blk] = true
		}
	}
	pmMemo := make(map[int][]byte)
	fetched, err := ix.fetchInto(ctx, pmMemo, pmNeed, func(blk int) int { return ix.base + ix.numBlocks + blk })
	if err != nil {
		return nil, nil, stats, err
	}
	stats.PageMapFetched += fetched

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
			page, err := unpackBit(pmMemo[blk], int(row)-blk*ix.pmBlock, bits)
			if err != nil {
				return nil, nil, stats, fmt.Errorf("fmindex: page map block %d: %w", blk, err)
			}
			if !seen[page] {
				seen[page] = true
				if int(page) < len(ix.refs) && ix.refs[page].File != ^uint32(0) {
					out = append(out, ix.refs[page])
				}
			}
		}
		postings.Sort(out)
		refs[i] = out
	}
	return refs, truncated, stats, nil
}
