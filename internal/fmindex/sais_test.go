package fmindex

import (
	"bytes"
	"math/rand"
	"testing"
)

// sentinelize strips sentinel bytes from b (rewriting them to 0x01)
// and appends the unique smallest sentinel, producing a valid
// suffix-array input from arbitrary bytes.
func sentinelize(b []byte) []byte {
	text := make([]byte, 0, len(b)+1)
	for _, c := range b {
		if c == 0 {
			c = 1
		}
		text = append(text, c)
	}
	return append(text, 0)
}

func checkSAISAgainstReference(t *testing.T, label string, text []byte) {
	t.Helper()
	got := buildSuffixArray(text)
	want := referenceSuffixArray(text)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s (n=%d): sa[%d] = %d, reference %d", label, len(text), i, got[i], want[i])
		}
	}
}

// TestSAISMatchesReference differentially tests the linear-time SA-IS
// builder against the retained prefix-doubling oracle on random and
// degenerate inputs.
func TestSAISMatchesReference(t *testing.T) {
	// Degenerate shapes that stress the LMS machinery.
	allEqual := bytes.Repeat([]byte{'a'}, 4096)
	twoSym := make([]byte, 4097)
	for i := range twoSym {
		twoSym[i] = byte('a' + i%2)
	}
	longRepeat := bytes.Repeat([]byte("abcabcab"), 700)
	cases := map[string][]byte{
		"all-equal":       allEqual,
		"two-symbol":      twoSym,
		"long-repeat":     longRepeat,
		"single":          {},
		"one-char":        {'x'},
		"descending":      {'e', 'd', 'c', 'b', 'a'},
		"ascending":       {'a', 'b', 'c', 'd', 'e'},
		"banana":          []byte("banana"),
		"mississippi":     []byte("mississippi"),
		"lms-at-ends":     []byte("cabcabca"),
		"repeat-plus-one": append(bytes.Repeat([]byte("ab"), 100), 'a'),
	}
	for label, body := range cases {
		checkSAISAgainstReference(t, label, sentinelize(body))
	}

	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 40; i++ {
		n := 1 + rng.Intn(3000)
		sigma := 2 + rng.Intn(254)
		body := make([]byte, n)
		for j := range body {
			body[j] = byte(1 + rng.Intn(sigma))
		}
		checkSAISAgainstReference(t, "random", sentinelize(body))
	}
}

// countLMS returns the number of LMS positions of a sentinel-
// terminated text: S-type suffixes whose left neighbour is L-type.
func countLMS(text []byte) int {
	m := 0
	nextS := true // the sentinel
	for i := len(text) - 2; i >= 0; i-- {
		isS := text[i] < text[i+1] || (text[i] == text[i+1] && nextS)
		if !isS && nextS {
			m++
		}
		nextS = isS
	}
	return m
}

// TestSAISInPlaceRecursion runs SA-IS, whose every recursion level
// keeps its reduced string, LMS positions and bucket tables inside the
// suffix array it is filling, against the prefix-doubling oracle on
// the inputs that stress that layout: periodic strings and a Fibonacci
// word (every level's LMS substrings repeat, so the recursion goes as
// deep as the length allows, and the names leave no room between the
// reduced string and the sorted LMS suffixes), strings with an LMS
// position at every other byte (m = n/2, where the two halves of sa
// meet), all-equal bytes (no LMS but the sentinel), and the benchmark
// corpus (four levels, bucket tables in the gap).
func TestSAISInPlaceRecursion(t *testing.T) {
	periodic := func(unit string, n int) []byte {
		return bytes.Repeat([]byte(unit), n/len(unit)+1)[:n]
	}
	fib := func(n int) []byte {
		a, b := []byte("a"), []byte("ab")
		for len(b) < n {
			a, b = b, append(append([]byte(nil), b...), a...)
		}
		return b[:n]
	}
	text, _, _ := benchInput(13, 400)
	cases := map[string][]byte{
		"period-2":   periodic("ab", 20001),
		"period-2b":  periodic("ba", 20000),
		"period-3":   periodic("abc", 20000),
		"period-3b":  periodic("bca", 19999),
		"period-3c":  periodic("cab", 20001),
		"fibonacci":  fib(30000),
		"all-equal":  bytes.Repeat([]byte{'x'}, 9000),
		"corpus":     text,
		"corpus-x2":  append(append([]byte(nil), text[:50000]...), text[:50000]...),
		"nested":     bytes.Repeat(append(periodic("ab", 64), periodic("abc", 63)...), 150),
		"descending": bytes.Repeat([]byte("dcba"), 3000),
	}
	sawHalf := false
	for label, body := range cases {
		full := sentinelize(body)
		checkSAISAgainstReference(t, label, full)
		sawHalf = sawHalf || countLMS(full) == len(full)/2
	}
	// Every length near a small n, both phases: the halves of sa meet
	// exactly (m = n/2) at some of them and miss by one at the others.
	for n := 2; n < 70; n++ {
		for _, unit := range []string{"ab", "ba"} {
			full := sentinelize(periodic(unit, n))
			checkSAISAgainstReference(t, unit, full)
			sawHalf = sawHalf || countLMS(full) == len(full)/2
		}
	}
	if !sawHalf {
		t.Fatal("no input had an LMS position at every other byte (m = n/2)")
	}
}

// BenchmarkSuffixArray reports SA-IS beside its prefix-doubling oracle
// on 1 MB of the benchmark corpus, time and allocations. The ratio is
// a property of the host and is read here, not asserted by a test.
func BenchmarkSuffixArray(b *testing.B) {
	text, _, _ := benchInput(13, 1672)
	full := append(text, Sentinel)
	for _, impl := range []struct {
		name string
		fn   func([]byte) []int32
	}{{"sais", buildSuffixArray}, {"oracle", referenceSuffixArray}} {
		b.Run(impl.name, func(b *testing.B) {
			b.SetBytes(int64(len(full)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				impl.fn(full)
			}
		})
	}
}

// FuzzSuffixArray fuzzes SA-IS against the prefix-doubling oracle on
// arbitrary byte strings.
func FuzzSuffixArray(f *testing.F) {
	f.Add([]byte("banana"))
	f.Add([]byte("mississippi"))
	f.Add(bytes.Repeat([]byte{'a'}, 64))
	f.Add([]byte("abababababababa"))
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			data = data[:1<<16]
		}
		text := sentinelize(data)
		got := buildSuffixArray(text)
		want := referenceSuffixArray(text)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("sa[%d] = %d, reference %d (n=%d)", i, got[i], want[i], len(text))
			}
		}
	})
}

// referenceSuffixArray computes the suffix array of text using prefix
// doubling with radix (counting) sort, O(n log n). This is the
// original builder, retained verbatim as the oracle for the SA-IS
// differential tests (TestSAISMatchesReference, FuzzSuffixArray) and
// BenchmarkSuffixArray's baseline; it lives in this file so that the
// file carries its own oracle. The text handed in already carries its
// unique smallest sentinel as the final byte, so all suffixes are
// distinct.
func referenceSuffixArray(text []byte) []int32 {
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
