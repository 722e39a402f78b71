// Copyright 2019 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE-GO file.

// Suffix array construction by induced sorting (SAIS), ported from the
// Go standard library's index/suffixarray (Go 1.24, sais.go and the
// sais2.go it generates). See Ge Nong, Sen Zhang, and Wai Hong Chen,
// "Two Efficient Algorithms for Linear Time Suffix Array Construction",
// especially section 3 (https://ieeexplore.ieee.org/document/5582081),
// with optimizations inspired by Yuta Mori's sais-lite.
//
// The port keeps the byte-text/int32 instantiation and the int32
// recursion, as one set of functions generic over symbol, where the
// standard library generates a copy per type: the FM index requires a
// text shorter than 2³¹. Of the original's byte-only lines, the
// bounds-check hints are dropped, and its one byte-only optimization,
// storing a short LMS-substring as its text instead of its length,
// applies whenever a level's symbols fit a byte.
//
// Each level runs a sequence of linear scans through sa to reduce the
// problem to a subproblem at most half as big, recurses, and turns the
// answer for the subproblem into the answer for the level:
//
//	sais
//		placeLMS       <scan -text, random bucket>
//		induceSubL     <scan +sa, random text, random bucket>
//		induceSubS     <scan -sa, random text, random bucket>
//		length         <scan -text>
//		assignID       <scan +sa, random text substrings>
//		mapIDs         <scan -sa>
//		recurse        (sais on a subproblem of at most half the size)
//		unmap          <scan -text>, <scan +sa>
//		expand         <scan -sa, random text, random bucket>
//		induceL        <scan +sa, random text, random bucket>
//		induceS        <scan -sa, random text, random bucket>
//
// Symbol frequencies are counted once per level and cached whenever
// there is room (always at the top level). The random text accesses of
// the induce scans cost far more than the linear scans. Beyond sa, the
// only allocation is the 512-entry table of the top level: every
// deeper level keeps its tables in the unused middle of sa, but for
// pathological inputs, where no free run holds a level's names.

package fmindex

// symbol constrains the text element types SA-IS runs over: bytes at
// the top level, int32 names in recursion.
type symbol interface{ ~byte | ~int32 }

// sais computes the suffix array of text into sa, which the caller
// must zero. The text must contain only values in [0, textMax), and
// len(tmp) ≥ textMax; if len(tmp) ≥ 2*textMax the algorithm caches
// the frequencies and runs a little faster. If sais modifies tmp, it
// sets tmp[0] = -1 on return.
func sais[T symbol](text []T, textMax int, sa, tmp []int32) {
	if len(sa) != len(text) || len(tmp) < textMax {
		panic("fmindex: misuse of sais")
	}

	// Trivial base cases. Sorting 0 or 1 things is easy.
	if len(text) == 0 {
		return
	}
	if len(text) == 1 {
		sa[0] = 0
		return
	}

	// Establish slices indexed by text character holding character
	// frequency and bucket-sort offsets. If there's only enough tmp
	// for one slice, make it the bucket offsets and recompute the
	// character frequency each time it is needed.
	var freq, bucket []int32
	if len(tmp) >= 2*textMax {
		freq, bucket = tmp[:textMax], tmp[textMax:2*textMax]
		freq[0] = -1 // mark as uninitialized
	} else {
		freq, bucket = nil, tmp[:textMax]
	}

	numLMS := placeLMS(text, sa, freq, bucket)
	if numLMS > 1 {
		induceSubL(text, sa, freq, bucket)
		induceSubS(text, sa, freq, bucket)
		length(text, sa, numLMS, textMax <= 256)
		maxID := assignID(text, sa, numLMS)
		if maxID < numLMS {
			mapIDs(sa, numLMS)
			recurse(sa, tmp, numLMS, maxID)
			unmap(text, sa, numLMS)
		} else {
			// Each LMS-substring is unique, so the LMS-suffix sort
			// order matches the LMS-substring sort order: copy it
			// into the suffix array destination.
			copy(sa, sa[len(sa)-numLMS:])
		}
		expand(text, freq, bucket, sa, numLMS)
	}
	// else: 0 or 1 items are already sorted.
	induceL(text, sa, freq, bucket)
	induceS(text, sa, freq, bucket)

	// Mark for caller that we overwrote tmp.
	tmp[0] = -1
}

// symbolFreq returns the character frequencies for text, as a slice
// indexed by character value. If freq is nil, it uses and returns
// bucket. If freq is non-nil, freq[0] >= 0 means the frequencies are
// already computed; the caller sets freq[0] = -1 to force a recount.
func symbolFreq[T symbol](text []T, freq, bucket []int32) []int32 {
	if freq != nil && freq[0] >= 0 {
		return freq // already computed
	}
	if freq == nil {
		freq = bucket
	}
	clear(freq)
	for _, c := range text {
		freq[c]++
	}
	return freq
}

// bucketMin stores into bucket[c] the minimum index in the bucket for
// character c in a bucket-sort of text.
func bucketMin[T symbol](text []T, freq, bucket []int32) {
	freq = symbolFreq(text, freq, bucket)
	bucket = bucket[:len(freq)]
	total := int32(0)
	for i, n := range freq {
		bucket[i] = total
		total += n
	}
}

// bucketMax stores into bucket[c] the maximum index in the bucket for
// character c in a bucket-sort of text. The bucket indexes for c are
// [min, max): max is one past the final index in that bucket.
func bucketMax[T symbol](text []T, freq, bucket []int32) {
	freq = symbolFreq(text, freq, bucket)
	bucket = bucket[:len(freq)]
	total := int32(0)
	for i, n := range freq {
		total += n
		bucket[i] = total
	}
}

// placeLMS places into sa the indexes of the final characters of the
// LMS substrings of text, sorted into the rightmost ends of their
// correct buckets in the suffix array.
//
// The imaginary sentinel character at the end of the text is the
// final character of the final LMS substring, but there is no bucket
// for it, so the caller must pretend that sa[-1] == len(text).
//
// The text indexes of LMS-substring characters are always ≥ 1 (the
// first LMS-substring must be preceded by one or more L-type
// characters that are not part of any LMS-substring), so 0 serves as
// a “not present” suffix array entry here and in most later functions
// (until induceL below).
func placeLMS[T symbol](text []T, sa, freq, bucket []int32) int {
	bucketMax(text, freq, bucket)

	numLMS := 0
	lastB := int32(-1)

	// The next stanza (until the blank line) loops backward over text,
	// executing a code body at each position i such that text[i] is an
	// L-character and text[i+1] is an S-character: i+1 is the start of
	// an LMS-substring. Hoisting it into a function with a callback
	// costs significant speed, so it is written out a few times in this
	// file; the copies refer back to it as the "LMS-substring iterator".
	//
	// c0, c1 are successive characters of text: c0 == text[i] and
	// c1 == text[i+1]. Scanning backward keeps track of whether the
	// current position is type S or type L:
	//
	//	- position len(text) is type S with text[len(text)] == -1 (the sentinel)
	//	- position i is type S if text[i] < text[i+1], or if text[i] == text[i+1] && i+1 is type S.
	//	- position i is type L if text[i] > text[i+1], or if text[i] == text[i+1] && i+1 is type L.
	//
	// Position len(text) is an S position with a preceding L by
	// definition, but there is nowhere to write it down, so the loop
	// starts by untruthfully setting isTypeS = false.
	c0, c1, isTypeS := T(0), T(0), false
	for i := len(text) - 1; i >= 0; i-- {
		c0, c1 = text[i], c0
		if c0 < c1 {
			isTypeS = true
		} else if c0 > c1 && isTypeS {
			isTypeS = false

			// Bucket the index i+1 for the start of an LMS-substring.
			b := bucket[c1] - 1
			bucket[c1] = b
			sa[b] = int32(i + 1)
			lastB = b
			numLMS++
		}
	}

	// These are the LMS-substring starts, but the ends are wanted.
	// With two differences they are the same: the rightmost
	// LMS-substring's end is len(text) (the caller pretends that
	// sa[-1] == len(text)), and the leftmost LMS-substring start does
	// not end an earlier LMS-substring, so it is removed — unless
	// numLMS <= 1, where the caller skips the recursion and treats the
	// result as LMS-substring starts.
	if numLMS > 1 {
		sa[lastB] = 0
	}
	return numLMS
}

// induceSubL inserts the L-type text indexes of LMS-substrings into
// sa, assuming that the final characters of the LMS-substrings are
// already inserted into sa, sorted by final character, and at the
// right (not left) end of the corresponding character bucket. Each
// LMS-substring has the form (as a regexp) /S+L+S/. induceSubL leaves
// behind only the leftmost L-type text index for each LMS-substring:
// it removes the final S-type indexes present on entry, and inserts
// but then removes the interior L-type indexes too.
func induceSubL[T symbol](text []T, sa, freq, bucket []int32) {
	// Initialize positions for left side of character buckets.
	bucketMin(text, freq, bucket)

	// As the array is scanned left-to-right, each sa[i] = j > 0 is a
	// correctly sorted suffix array entry (for text[j:]) for which j-1
	// is type L, so inserting j-1 into sa now sorts it correctly. A j-1
	// preceded by type S is left for the caller, negated. Either way
	// the insertion (into the text[j-1] bucket) happens at some i´ > i,
	// in the portion of sa yet to scan: sa serves simultaneously as
	// input, output and a work queue. Worked entries (sa[i] > 0) are
	// cleared to zero and sa[i] < 0 flipped to -sa[i], so the loop
	// finishes with sa holding only the leftmost L-type indexes.

	// placeLMS left out the implicit entry sa[-1] == len(text),
	// corresponding to the identified type-L index len(text)-1.
	// Process it before the left-to-right scan of sa proper.
	k := len(text) - 1
	c0, c1 := text[k-1], text[k]
	if c0 < c1 {
		k = -k
	}

	// Cache recently used bucket index: suffixes are processed in
	// sorted order and access buckets indexed by the symbol before
	// them, which still has very good locality.
	// Invariant: b is cached, possibly dirty copy of bucket[cB].
	cB := c1
	b := bucket[cB]
	sa[b] = int32(k)
	b++

	for i := 0; i < len(sa); i++ {
		j := int(sa[i])
		if j == 0 {
			// Skip empty entry.
			continue
		}
		if j < 0 {
			// Leave discovered type-S index for caller.
			sa[i] = int32(-j)
			continue
		}
		sa[i] = 0

		// Index j was on work queue, meaning k := j-1 is L-type, so k
		// can now be placed correctly into sa. If k-1 is L-type, queue
		// k for processing later in this loop. If k-1 is S-type
		// (text[k-1] < text[k]), queue -k to save for the caller.
		k := j - 1
		c0, c1 := text[k-1], text[k]
		if c0 < c1 {
			k = -k
		}

		if cB != c1 {
			bucket[cB] = b
			cB = c1
			b = bucket[cB]
		}
		sa[b] = int32(k)
		b++
	}
}

// induceSubS inserts the S-type text indexes of LMS-substrings into
// sa, assuming that the leftmost L-type text indexes are already
// inserted into sa, sorted by LMS-substring suffix, and at the left
// end of the corresponding character bucket. It leaves behind only
// the leftmost S-type text index for each LMS-substring, in sorted
// order, packed into sa[len(sa)-numLMS:].
func induceSubS[T symbol](text []T, sa, freq, bucket []int32) {
	// Initialize positions for right side of character buckets.
	bucketMax(text, freq, bucket)

	// Analogous to induceSubL, scanning right-to-left: each
	// sa[i] = j > 0 is a correctly sorted entry for which j-1 is type
	// S, so it is inserted now; a j-1 preceded by type L is an
	// LMS-substring start, negated for the caller. Worked entries are
	// cleared and negated ones compacted into the top of sa.

	// Cache recently used bucket index.
	cB := T(0)
	b := bucket[cB]

	top := len(sa)
	for i := len(sa) - 1; i >= 0; i-- {
		j := int(sa[i])
		if j == 0 {
			// Skip empty entry.
			continue
		}
		sa[i] = 0
		if j < 0 {
			// Leave discovered LMS-substring start index for caller.
			top--
			sa[top] = int32(-j)
			continue
		}

		// Index j was on work queue, meaning k := j-1 is S-type, so k
		// can now be placed correctly into sa. If k-1 is S-type, queue
		// k for processing later in this loop. If k-1 is L-type
		// (text[k-1] > text[k]), queue -k to save for the caller.
		k := j - 1
		c1 := text[k]
		c0 := text[k-1]
		if c0 > c1 {
			k = -k
		}

		if cB != c1 {
			bucket[cB] = b
			cB = c1
			b = bucket[cB]
		}
		b--
		sa[b] = int32(k)
	}
}

// length computes and records the length of each LMS-substring in
// text. The length of the LMS-substring at index j is stored at
// sa[j/2], avoiding the LMS-substring indexes already stored in the
// top half of sa. (If index j is an LMS-substring start, then index
// j-1 is type L and cannot be.) There are two exceptions, made for
// optimizations in assignID below.
//
// First, the final LMS-substring is recorded as having length 0,
// which is otherwise impossible. It is the only one that ends in the
// implicit sentinel, so it differs from all others without a text
// comparison (which would be problematic, since the implicit sentinel
// is not actually present at text[len(text)]).
//
// Second, when pack is set (every symbol fits a byte) and an
// LMS-substring is very short, sa[j/2] records its actual text instead
// of its length, so that if two such substrings have matching
// “length,” the text need not be read at all. “Very short” means the
// text packs into a uint32 whose encoding e is ≥ len(text), so that it
// can be distinguished from a valid length.
func length[T symbol](text []T, sa []int32, numLMS int, pack bool) {
	end := 0 // index of current LMS-substring end (0 indicates final LMS-substring)

	// The encoding of N text bytes into a “length” word adds 1 to each
	// byte, packs them into the bottom N*8 bits of a word, and then
	// bitwise inverts the result: A B C (hex 41 42 43) encodes as
	// ^uint32(0x42_43_44). An LMS-substring never starts or ends with
	// the largest symbol 0xFF (it is always type L), so adding 1 keeps
	// the encoded sequence from starting or ending with 0x00 and
	// present bytes can be told from zero-padding without encoding the
	// length. Inverting raises the chance that a 4-byte encoding is
	// still ≥ len(text): an ASCII first byte sets the high bit.
	//
	// cx holds the pre-inverted encoding (the packed incremented bytes).
	cx := uint32(0)

	// "LMS-substring iterator" (see placeLMS above), with one line
	// added to maintain cx.
	c0, c1, isTypeS := T(0), T(0), false
	for i := len(text) - 1; i >= 0; i-- {
		c0, c1 = text[i], c0
		cx = cx<<8 | uint32(byte(c1+1))
		if c0 < c1 {
			isTypeS = true
		} else if c0 > c1 && isTypeS {
			isTypeS = false

			// Index j = i+1 is the start of an LMS-substring.
			// Compute length or encoded text to store in sa[j/2].
			j := i + 1
			var code int32
			if end == 0 {
				code = 0
			} else {
				code = int32(end - j)
				if pack && code <= 32/8 && ^cx >= uint32(len(text)) {
					code = int32(^cx)
				}
			}
			sa[j>>1] = code
			end = j + 1
			cx = uint32(byte(c1 + 1))
		}
	}
}

// assignID assigns a dense ID numbering to the set of LMS-substrings
// respecting string ordering and equality, returning the maximum
// assigned ID. For example given the input "ababab", the
// LMS-substrings are "aba", "aba", and "ab", renumbered as 2 2 1.
// sa[len(sa)-numLMS:] holds the LMS-substring indexes sorted in
// string order, so numbering considers each in turn, removing
// adjacent duplicates. The new ID for the LMS-substring at index j is
// written to sa[j/2], overwriting the length stored there by length.
func assignID[T symbol](text []T, sa []int32, numLMS int) int {
	id := 0
	lastLen := int32(-1) // impossible
	lastPos := int32(0)
	for _, j := range sa[len(sa)-numLMS:] {
		// Is the LMS-substring at index j new, or is it the same as the last one we saw?
		n := sa[j/2]
		if n != lastLen {
			goto New
		}
		if uint32(n) >= uint32(len(text)) {
			// “Length” is really encoded full text, and they match.
			goto Same
		}
		{
			// Compare actual texts.
			n := int(n)
			this := text[j:][:n]
			last := text[lastPos:][:n]
			for i := 0; i < n; i++ {
				if this[i] != last[i] {
					goto New
				}
			}
			goto Same
		}
	New:
		id++
		lastPos = j
		lastLen = n
	Same:
		sa[j/2] = int32(id)
	}
	return id
}

// mapIDs maps the LMS-substrings in text to their new IDs, producing
// the subproblem for the recursion. assignID applied most of the
// mapping: sa[i] is either 0, the ID for the LMS-substring at index
// 2*i, or the ID for the LMS-substring at index 2*i+1. What is left
// is to remove the zeros and change ID into ID-1 (IDs start at 1, but
// text chars start at 0). The result is packed into the top of sa, so
// that the recursion's result can be stored in the bottom of sa,
// which sets up for expand.
func mapIDs(sa []int32, numLMS int) {
	w := len(sa)
	for i := len(sa) / 2; i >= 0; i-- {
		j := sa[i]
		if j > 0 {
			w--
			sa[w] = j - 1
		}
	}
}

// recurse calls sais recursively to solve the subproblem built by
// mapIDs. The subproblem is at the right end of sa, the suffix array
// result is written at the left end of sa, and the middle of sa is
// available for use as temporary frequency and bucket storage.
func recurse(sa, oldTmp []int32, numLMS, maxID int) {
	dst, saTmp, text := sa[:numLMS], sa[numLMS:len(sa)-numLMS], sa[len(sa)-numLMS:]

	// The recursive call needs a tmp of at least maxID entries, and
	// twice that to cache its frequencies. The subproblem has length
	// at most len(sa)/2, and usually about len(sa)/3 (Nong, Zhang and
	// Chen, section 3.6: real text rarely alternates S and L types),
	// leaving a middle of sa that is free. From the top level, oldTmp
	// is the 512-entry table and saTmp is typically much larger;
	// deeper levels keep reusing the top-most large saTmp instead of
	// their smaller ones.
	//
	// The standard library allocates max(maxID, numLMS/2) entries
	// whenever tmp is shorter than numLMS, enough for every deeper
	// level at once. Here that happens only when tmp cannot hold this
	// level's maxID, since every deeper level checks for itself: the
	// workload corpus has just over a third of its positions LMS, so
	// the standard library's test allocates 0.6 bytes per text byte
	// on a merge, where maxID is a few percent of numLMS.
	tmp := oldTmp
	if len(tmp) < len(saTmp) {
		tmp = saTmp
	}
	if len(tmp) < maxID {
		tmp = make([]int32, max(maxID, numLMS/2))
	}

	// sais requires a zeroed dst, which this one is not.
	clear(dst)
	sais(text, maxID, dst, tmp)
}

// unmap unmaps the subproblem back to the original. sa[:numLMS] is
// the sorted list of LMS-substring numbers: K means the K'th
// LMS-substring. Replacing the numbers in sa[len(sa)-numLMS:] by the
// LMS-substring indexes maps the list back to text indexes.
func unmap[T symbol](text []T, sa []int32, numLMS int) {
	unmap := sa[len(sa)-numLMS:]
	j := len(unmap)

	// "LMS-substring iterator" (see placeLMS above).
	c0, c1, isTypeS := T(0), T(0), false
	for i := len(text) - 1; i >= 0; i-- {
		c0, c1 = text[i], c0
		if c0 < c1 {
			isTypeS = true
		} else if c0 > c1 && isTypeS {
			isTypeS = false

			// Populate inverse map.
			j--
			unmap[j] = int32(i + 1)
		}
	}

	// Apply inverse map to subproblem suffix array.
	sa = sa[:numLMS]
	for i := 0; i < len(sa); i++ {
		sa[i] = unmap[sa[i]]
	}
}

// expand distributes the compacted, sorted LMS-suffix indexes from
// sa[:numLMS] into the tops of the appropriate buckets in sa,
// preserving the sorted order and making room for the L-type indexes
// to be slotted into the sorted sequence by induceL.
func expand[T symbol](text []T, freq, bucket, sa []int32, numLMS int) {
	bucketMax(text, freq, bucket)

	// Loop backward through sa, always tracking the next index to
	// populate from sa[:numLMS], populating it when reached. Zero the
	// rest of the slots; they have dead values in them.
	x := numLMS - 1
	saX := sa[x]
	c := text[saX]
	b := bucket[c] - 1
	bucket[c] = b

	for i := len(sa) - 1; i >= 0; i-- {
		if i != int(b) {
			sa[i] = 0
			continue
		}
		sa[i] = saX

		// Load next entry to put down (if any).
		if x > 0 {
			x--
			saX = sa[x]
			c = text[saX]
			b = bucket[c] - 1
			bucket[c] = b
		}
	}
}

// induceL inserts L-type text indexes into sa, assuming that the
// leftmost S-type indexes are inserted into sa, in sorted order, in
// the right bucket halves. It leaves all the L-type indexes in sa,
// but the leftmost L-type indexes are negated, to mark them for
// processing by induceS.
func induceL[T symbol](text []T, sa, freq, bucket []int32) {
	// Initialize positions for left side of character buckets.
	bucketMin(text, freq, bucket)

	// This scan is similar to the one in induceSubL above, but leaves
	// all the L-type indexes and the original S-type indexes, negating
	// the positive leftmost L-type indexes (the ones induceS needs).

	// expand left out the implicit entry sa[-1] == len(text),
	// corresponding to the identified type-L index len(text)-1.
	// Process it before the left-to-right scan of sa proper.
	k := len(text) - 1
	c0, c1 := text[k-1], text[k]
	if c0 < c1 {
		k = -k
	}

	// Cache recently used bucket index.
	cB := c1
	b := bucket[cB]
	sa[b] = int32(k)
	b++

	for i := 0; i < len(sa); i++ {
		j := int(sa[i])
		if j <= 0 {
			// Skip empty or negated entry (including negated zero).
			continue
		}

		// Index j was on work queue, meaning k := j-1 is L-type, so k
		// can now be placed correctly into sa. If k-1 is L-type, queue
		// k for processing later in this loop. If k-1 is S-type
		// (text[k-1] < text[k]), queue -k to save for the caller. If k
		// is zero, k-1 doesn't exist, so it is only left for the
		// caller, which cannot tell an empty slot from a non-empty
		// zero and need not: the final suffix array has one real zero.
		k := j - 1
		c1 := text[k]
		if k > 0 {
			if c0 := text[k-1]; c0 < c1 {
				k = -k
			}
		}

		if cB != c1 {
			bucket[cB] = b
			cB = c1
			b = bucket[cB]
		}
		sa[b] = int32(k)
		b++
	}
}

// induceS inserts the S-type text indexes into sa, from the negated
// leftmost L-type indexes induceL left, completing the suffix array.
func induceS[T symbol](text []T, sa, freq, bucket []int32) {
	// Initialize positions for right side of character buckets.
	bucketMax(text, freq, bucket)

	cB := T(0)
	b := bucket[cB]

	for i := len(sa) - 1; i >= 0; i-- {
		j := int(sa[i])
		if j >= 0 {
			// Skip non-flagged entry. (This loop can't see an empty
			// entry; 0 means the real zero index.)
			continue
		}

		// Negative j is a work queue entry; rewrite to positive j for
		// the final suffix array.
		j = -j
		sa[i] = int32(j)

		// Index j was on work queue (encoded as -j but now decoded),
		// meaning k := j-1 is L-type, so k can now be placed correctly
		// into sa. If k-1 is S-type, queue -k for processing later in
		// this loop. If k-1 is L-type (text[k-1] > text[k]), queue k
		// to save for the caller. If k is zero, k-1 doesn't exist, so
		// it is only left for the caller.
		k := j - 1
		c1 := text[k]
		if k > 0 {
			if c0 := text[k-1]; c0 <= c1 {
				k = -k
			}
		}

		if cB != c1 {
			bucket[cB] = b
			cB = c1
			b = bucket[cB]
		}
		b--
		sa[b] = int32(k)
	}
}
