package fmindex

import (
	"sort"

	"rottnest/internal/component"
	"rottnest/internal/postings"
)

// ReferenceBuild constructs an FM-index file with the original serial
// build path: prefix-doubling suffix array, serial BWT derivation,
// per-block serial encoding, and a per-SA-entry binary search for the
// position→page map. It is retained verbatim as the baseline for the
// build benchmark and as the oracle for the byte-identity differential
// test — Build must emit exactly these bytes for any input.
func ReferenceBuild(text []byte, pageStarts []int64, refs []postings.PageRef, opts BuildOptions) ([]byte, error) {
	b := component.NewBuilder(component.KindFM)
	if err := referenceBuildInto(b, text, pageStarts, refs, opts); err != nil {
		return nil, err
	}
	return b.Finish()
}

func referenceBuildInto(b *component.Builder, text []byte, pageStarts []int64, refs []postings.PageRef, opts BuildOptions) error {
	opts = opts.withDefaults()
	if err := validateBuildInput(text, pageStarts, refs); err != nil {
		return err
	}

	full := make([]byte, 0, len(text)+1)
	full = append(full, text...)
	full = append(full, Sentinel)
	sa := ReferenceSuffixArray(full)
	n := len(full)
	bwt := make([]byte, n)
	for i, s := range sa {
		if s == 0 {
			bwt[i] = full[n-1]
		} else {
			bwt[i] = full[s-1]
		}
	}

	base := b.NumComponents()

	// BWT blocks + checkpoint deltas, one serial pass.
	numBlocks := (n + opts.BlockSize - 1) / opts.BlockSize
	checkDeltas := make([][256]uint32, numBlocks)
	for blk := 0; blk < numBlocks; blk++ {
		lo := blk * opts.BlockSize
		hi := lo + opts.BlockSize
		if hi > n {
			hi = n
		}
		for _, c := range bwt[lo:hi] {
			checkDeltas[blk][c]++
		}
		b.Add(bwt[lo:hi])
	}

	// Page-map blocks: page ordinal of SA[i], binary search per entry.
	pageOf := func(pos int32) uint32 {
		idx := sort.Search(len(pageStarts), func(j int) bool { return pageStarts[j] > int64(pos) }) - 1
		if idx < 0 {
			idx = 0
		}
		return uint32(idx)
	}
	numPMBlocks := (n + opts.PageMapBlock - 1) / opts.PageMapBlock
	bits := bitsFor(uint32(len(pageStarts)))
	for blk := 0; blk < numPMBlocks; blk++ {
		lo := blk * opts.PageMapBlock
		hi := lo + opts.PageMapBlock
		if hi > n {
			hi = n
		}
		entries := make([]uint32, hi-lo)
		for i := lo; i < hi; i++ {
			pos := sa[i]
			if int(pos) == n-1 {
				pos = 0 // sentinel row; never queried
			}
			entries[i-lo] = pageOf(pos)
		}
		b.Add(packBits(nil, len(entries), bits, func(i int) uint32 { return entries[i] }))
	}

	b.Add(encodeRoot(n, base, opts, numBlocks, numPMBlocks, checkDeltas, pageStarts, refs, countPairs(full)))
	return nil
}

// ReferenceSuffixArray computes the suffix array of text using prefix
// doubling with radix (counting) sort, O(n log n). This is the
// original builder, retained verbatim as the oracle for the SA-IS
// differential tests (TestSAISMatchesReference, FuzzSuffixArray) and
// the build benchmark's speedup baseline. The text handed in already
// carries its unique smallest sentinel as the final byte, so all
// suffixes are distinct.
func ReferenceSuffixArray(text []byte) []int32 {
	n := len(text)
	sa := make([]int32, n)
	if n == 0 {
		return sa
	}
	rank := make([]int32, n)
	tmp := make([]int32, n)
	newRank := make([]int32, n)

	// Initial pass: sort suffixes by first byte.
	var cnt [257]int
	for _, c := range text {
		cnt[int(c)+1]++
	}
	for i := 1; i < 257; i++ {
		cnt[i] += cnt[i-1]
	}
	pos := cnt
	for i := 0; i < n; i++ {
		c := text[i]
		sa[pos[c]] = int32(i)
		pos[c]++
	}
	rank[sa[0]] = 0
	for i := 1; i < n; i++ {
		rank[sa[i]] = rank[sa[i-1]]
		if text[sa[i]] != text[sa[i-1]] {
			rank[sa[i]]++
		}
	}

	count := make([]int, n+1)
	for k := 1; ; k <<= 1 {
		if int(rank[sa[n-1]]) == n-1 {
			break // all ranks distinct
		}
		// Order by second key (rank[i+k], absent = smallest): the
		// suffixes with i+k >= n come first, then the rest in the
		// order of the current sa scanned left to right.
		idx := 0
		for i := n - k; i < n; i++ {
			tmp[idx] = int32(i)
			idx++
		}
		for _, s := range sa {
			if int(s) >= k {
				tmp[idx] = s - int32(k)
				idx++
			}
		}
		// Stable counting sort by first key rank[i].
		maxRank := int(rank[sa[n-1]]) + 1
		for i := 0; i <= maxRank; i++ {
			count[i] = 0
		}
		for i := 0; i < n; i++ {
			count[rank[i]+1]++
		}
		for i := 1; i <= maxRank; i++ {
			count[i] += count[i-1]
		}
		for _, s := range tmp {
			sa[count[rank[s]]] = s
			count[rank[s]]++
		}
		// Recompute ranks for the doubled prefix length.
		newRank[sa[0]] = 0
		for i := 1; i < n; i++ {
			newRank[sa[i]] = newRank[sa[i-1]]
			prev, cur := sa[i-1], sa[i]
			same := rank[prev] == rank[cur]
			if same {
				pk, ck := int(prev)+k, int(cur)+k
				switch {
				case pk >= n && ck >= n:
					// both empty second halves: equal
				case pk >= n || ck >= n:
					same = false
				default:
					same = rank[pk] == rank[ck]
				}
			}
			if !same {
				newRank[sa[i]]++
			}
		}
		rank, newRank = newRank, rank
	}
	return sa
}
