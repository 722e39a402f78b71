package fmindex

// buildSuffixArray computes the suffix array of text with SA-IS
// (suffix array by induced sorting over LMS substrings), O(n) on the
// byte alphabet. The text handed in already carries its unique
// smallest sentinel as the final byte (BuildInto appends it), which
// the induction relies on: the sentinel anchors the type
// classification and makes all suffixes distinct.
//
// The previous prefix-doubling builder is retained in sais_test.go as
// the differential-test and benchmark oracle.
func buildSuffixArray(text []byte) []int32 {
	sa := make([]int32, len(text))
	sais(text, sa, 256, nil)
	return sa
}

// SuffixArray exposes the production SA-IS builder for benchmarks and
// diagnostics. text must end with a unique smallest sentinel byte.
func SuffixArray(text []byte) []int32 {
	return buildSuffixArray(text)
}

// saEmpty marks an unfilled suffix-array slot during induction.
const saEmpty = int32(-1)

// symbol constrains the string element types SA-IS runs over: bytes
// at the top level, int32 names in recursion. Keeping the top level on
// raw bytes halves its memory traffic versus widening to int32 first.
type symbol interface{ ~byte | ~int32 }

// bitset is a packed bool array. The suffix-type table is the one
// randomly-probed structure in the induce passes; packing it to bits
// keeps it cache-resident (128 KiB per MiB of text instead of 1 MiB),
// which is worth ~20% on the whole build.
type bitset []uint64

func newBitset(n int) bitset      { return make(bitset, (n+63)/64) }
func (b bitset) get(i int32) bool { return b[uint32(i)>>6]&(1<<(uint32(i)&63)) != 0 }
func (b bitset) set(i int32)      { b[uint32(i)>>6] |= 1 << (uint32(i) & 63) }

// sais fills sa with the suffix array of s. Values of s lie in
// [0, sigma) and the final element is the unique minimum. The
// invariant holds at every recursion level by construction: the
// sentinel's LMS substring is unique and sorts first, so it is named
// 0, and it is the last LMS in appearance order — the reduced string
// therefore also ends with a unique minimum.
//
// Beyond sa the only allocation that grows with n is the type bits
// (n/8): the reduced string and the LMS positions of every recursion
// level live in the unused tail of that level's sa, and its two bucket
// tables in free, slots of sa the levels above have no use for —
// allocated only when sigma is too large a share of n for them to fit.
func sais[T symbol](s []T, sa []int32, sigma int, free []int32) {
	n := len(s)
	if n == 0 {
		return
	}
	if n == 1 {
		sa[0] = 0
		return
	}

	// Classify suffixes: isS.get(i) reports that suffix i is S-type
	// (smaller than suffix i+1). The sentinel is S by convention.
	isS := newBitset(n)
	isS.set(int32(n - 1))
	for i := n - 2; i >= 0; i-- {
		if s[i] < s[i+1] || (s[i] == s[i+1] && isS.get(int32(i+1))) {
			isS.set(int32(i))
		}
	}

	// Bucket geometry per symbol: sizes, and one table for heads and
	// tails, which are never live together.
	if len(free) < 2*sigma {
		free = make([]int32, 2*sigma)
	}
	bkt, ptr := free[:sigma], free[sigma:2*sigma]
	clear(bkt)
	for _, c := range s {
		bkt[c]++
	}
	setHeads := func() {
		var sum int32
		for c, cnt := range bkt {
			ptr[c] = sum
			sum += cnt
		}
	}
	setTails := func() {
		var sum int32
		for c, cnt := range bkt {
			sum += cnt
			ptr[c] = sum
		}
	}

	// induce derives the order of all suffixes from the (partially)
	// placed S-type suffixes currently in sa: a left-to-right pass
	// places L-type predecessors at bucket heads, then a right-to-left
	// pass re-places S-type predecessors at bucket tails.
	induce := func() {
		setHeads()
		for i := 0; i < n; i++ {
			if j := sa[i]; j > 0 && !isS.get(j-1) {
				c := s[j-1]
				sa[ptr[c]] = j - 1
				ptr[c]++
			}
		}
		setTails()
		for i := n - 1; i >= 0; i-- {
			if j := sa[i]; j > 0 && isS.get(j-1) {
				c := s[j-1]
				ptr[c]--
				sa[ptr[c]] = j - 1
			}
		}
	}

	// Pass 1: drop the LMS positions at their bucket tails in any
	// order and induce; afterwards the LMS suffixes appear in sa in
	// the order of their LMS substrings.
	for i := range sa {
		sa[i] = saEmpty
	}
	setTails()
	m := 0
	for i := 1; i < n; i++ {
		if isS.get(int32(i)) && !isS.get(int32(i-1)) {
			c := s[i]
			ptr[c]--
			sa[ptr[c]] = int32(i)
			m++
		}
	}
	induce()

	// Compact the sorted LMS suffixes to the front of sa.
	k := 0
	for i := 0; i < n; i++ {
		if j := sa[i]; j > 0 && isS.get(j) && !isS.get(j-1) {
			sa[k] = j
			k++
		}
	}

	// Name LMS substrings in sorted order. LMS positions are never
	// adjacent, so pos/2 indexes a scratch table that fits in the
	// unused tail of sa.
	names := sa[m:]
	for i := range names {
		names[i] = saEmpty
	}
	var name int32
	prev := int32(-1)
	for i := 0; i < m; i++ {
		cur := sa[i]
		if prev >= 0 && !lmsEqual(s, isS, prev, cur) {
			name++
		}
		names[cur>>1] = name
		prev = cur
	}
	numNames := int(name) + 1

	if numNames < m {
		// Duplicate substrings: recurse on the reduced string of LMS
		// names in appearance order to rank the LMS suffixes. names holds
		// them in that order already, with gaps; closing the gaps
		// rightwards leaves the reduced string in sa[n-m:], clear of
		// sa[:m] because LMS positions are never adjacent (2m <= n).
		k = n
		for i := n - 1; i >= m; i-- {
			if sa[i] != saEmpty {
				k--
				sa[k] = sa[i]
			}
		}
		s1, sa1 := sa[n-m:], sa[:m]
		// The level below gets the larger of the two unused runs: what
		// this level's tables left of free, or the gap sa[m:n-m].
		if free = free[2*sigma:]; len(free) < n-2*m {
			free = sa[m : n-m]
		}
		sais(s1, sa1, numNames, free)
		// The reduced string has served; its slots now map rank to LMS
		// position.
		k = 0
		for i := 1; i < n; i++ {
			if isS.get(int32(i)) && !isS.get(int32(i-1)) {
				s1[k] = int32(i)
				k++
			}
		}
		for i := 0; i < m; i++ {
			sa1[i] = s1[sa1[i]]
		}
	}
	// else: all names unique, so LMS-substring order (already in
	// sa[:m]) is LMS-suffix order.

	// Pass 2: re-place the now fully sorted LMS suffixes at their
	// bucket tails (descending scan never overwrites an unread entry)
	// and induce the final order.
	for i := m; i < n; i++ {
		sa[i] = saEmpty
	}
	setTails()
	for i := m - 1; i >= 0; i-- {
		j := sa[i]
		sa[i] = saEmpty
		c := s[j]
		ptr[c]--
		sa[ptr[c]] = j
	}
	induce()
}

// lmsEqual reports whether the LMS substrings starting at a and b are
// identical. Equal characters up to a shared next-LMS boundary imply
// equal types, so comparing characters and boundaries suffices. The
// sentinel's substring never equals another (the sentinel is unique),
// and the scan cannot run off the string: the final position is LMS
// and its symbol differs from everything else.
func lmsEqual[T symbol](s []T, isS bitset, a, b int32) bool {
	n := int32(len(s))
	if a == n-1 || b == n-1 {
		return false
	}
	for d := int32(1); ; d++ {
		if s[a+d-1] != s[b+d-1] {
			return false
		}
		aLMS := isS.get(a+d) && !isS.get(a+d-1)
		bLMS := isS.get(b+d) && !isS.get(b+d-1)
		if aLMS || bLMS {
			return aLMS && bLMS && s[a+d] == s[b+d]
		}
	}
}

// invertBWT reconstructs the original text, sentinel last, from its
// BWT into dst; lf is scratch for the LF mapping and both are as long
// as bwt. Used by index merging, which the paper notes may be
// computationally intensive. The LF walk is a sequential pointer chase
// and stays serial.
func invertBWT(dst, bwt []byte, lf []int32) {
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
	var running [256]int
	for i, c := range bwt {
		lf[i] = int32(c0[c] + running[c])
		running[c]++
	}
	// The sentinel (smallest, unique) sorts to row 0, whose BWT symbol
	// is the text's last: walk backwards from it, ending on the
	// sentinel itself.
	row := int32(0)
	for i := len(bwt) - 2; i >= 0; i-- {
		dst[i] = bwt[row]
		row = lf[row]
	}
	dst[len(bwt)-1] = bwt[row]
}
