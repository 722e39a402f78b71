package fmindex

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"rottnest/internal/component"
	"rottnest/internal/objectstore"
	"rottnest/internal/postings"
	"rottnest/internal/workload"
)

// naiveSA computes a suffix array by direct sorting, for comparison.
func naiveSA(text []byte) []int32 {
	sa := make([]int32, len(text))
	for i := range sa {
		sa[i] = int32(i)
	}
	sort.Slice(sa, func(a, b int) bool {
		return bytes.Compare(text[sa[a]:], text[sa[b]:]) < 0
	})
	return sa
}

func TestSuffixArrayMatchesNaive(t *testing.T) {
	cases := [][]byte{
		[]byte("banana\x00"),
		[]byte("mississippi\x00"),
		[]byte("aaaaaaaa\x00"),
		[]byte("abcabcabc\x00"),
		{0x01, 0x02, 0x01, 0x02, 0x00},
		{0x00},
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10; i++ {
		n := 50 + rng.Intn(500)
		text := make([]byte, n+1)
		for j := 0; j < n; j++ {
			text[j] = byte(2 + rng.Intn(8)) // small alphabet stresses ties
		}
		text[n] = 0
		cases = append(cases, text)
	}
	for ci, text := range cases {
		got := buildSuffixArray(text)
		want := naiveSA(text)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("case %d: sa[%d] = %d, want %d", ci, i, got[i], want[i])
			}
		}
	}
}

func TestBWTInvertRoundTrip(t *testing.T) {
	f := func(raw []byte) bool {
		text := make([]byte, 0, len(raw)+1)
		for _, b := range raw {
			if b == 0 {
				b = 1
			}
			text = append(text, b)
		}
		text = append(text, 0)
		bwt := make([]byte, len(text))
		for i, pos := range buildSuffixArray(text) {
			bwt[i] = text[(int(pos)+len(text)-1)%len(text)]
		}
		got := make([]byte, len(text))
		err := invertBWT(got, bwt, make([]int32, len(text)))
		return err == nil && bytes.Equal(got, text)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// buildTestIndex indexes docs (joined with separators) as a single
// "page" per docsPerPage documents and returns the opened index plus
// the concatenated text and page starts.
func buildTestIndex(t testing.TB, store objectstore.Store, key string, docs []string, docsPerPage int, opts BuildOptions) (*Index, []byte, []int64) {
	t.Helper()
	ctx := context.Background()
	var text []byte
	var pageStarts []int64
	var refs []postings.PageRef
	for i, d := range docs {
		if i%docsPerPage == 0 {
			pageStarts = append(pageStarts, int64(len(text)))
			refs = append(refs, postings.PageRef{File: 0, Page: uint32(len(refs))})
		}
		text = append(text, []byte(d)...)
		text = append(text, Separator)
	}
	data, err := Build(text, pageStarts, refs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Put(ctx, key, data); err != nil {
		t.Fatal(err)
	}
	r, err := component.Open(ctx, store, key, component.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Open(ctx, r)
	if err != nil {
		t.Fatal(err)
	}
	return ix, text, pageStarts
}

// naivePages returns the distinct page ordinals whose text contains
// pattern.
func naivePages(text []byte, pageStarts []int64, pattern []byte) []uint32 {
	var out []uint32
	seen := map[uint32]bool{}
	for pos := 0; ; {
		i := bytes.Index(text[pos:], pattern)
		if i < 0 {
			break
		}
		pos += i
		idx := sort.Search(len(pageStarts), func(j int) bool { return pageStarts[j] > int64(pos) }) - 1
		p := uint32(idx)
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
		pos++
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

func TestCountMatchesNaive(t *testing.T) {
	ctx := context.Background()
	store := objectstore.NewMemStore(nil)
	gen := workload.NewTextGen(workload.DefaultTextConfig(1))
	docs := gen.Docs(200)
	ix, text, _ := buildTestIndex(t, store, "fm.index", docs, 20, BuildOptions{BlockSize: 4096, PageMapBlock: 4096})

	patterns := []string{"the", "a", "zzzzzz", docs[5][:10], docs[150][3:15], "qx"}
	for _, p := range patterns {
		got, err := ix.Count(ctx, []byte(p))
		if err != nil {
			t.Fatalf("Count(%q): %v", p, err)
		}
		want := int64(bytes.Count(text, []byte(p)))
		// bytes.Count counts non-overlapping; FM counts all
		// occurrences. Use a position scan for truth.
		want = 0
		for i := 0; i+len(p) <= len(text); i++ {
			if bytes.HasPrefix(text[i:], []byte(p)) {
				want++
			}
		}
		if got != want {
			t.Fatalf("Count(%q) = %d, want %d", p, got, want)
		}
	}
}

func TestLookupMatchesNaive(t *testing.T) {
	ctx := context.Background()
	store := objectstore.NewMemStore(nil)
	gen := workload.NewTextGen(workload.DefaultTextConfig(2))
	docs := gen.Docs(300)
	// Plant a needle in known documents.
	needle := "XyZZyNeEdLe"
	docs = workload.PlantNeedle(docs, needle, []int{7, 133, 288})
	ix, text, pageStarts := buildTestIndex(t, store, "fm.index", docs, 25, BuildOptions{BlockSize: 4096, PageMapBlock: 2048})

	for _, p := range []string{needle, "the", "nosuchstringanywhere", docs[42][:12]} {
		got, err := ix.Lookup(ctx, []byte(p), 0)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", p, err)
		}
		want := naivePages(text, pageStarts, []byte(p))
		if len(got) != len(want) {
			t.Fatalf("Lookup(%q) = %v, want pages %v", p, got, want)
		}
		for i := range want {
			if got[i].Page != want[i] {
				t.Fatalf("Lookup(%q)[%d] = %v, want page %d", p, i, got[i], want[i])
			}
		}
	}
}

func TestLookupMaxRowsBounds(t *testing.T) {
	ctx := context.Background()
	store := objectstore.NewMemStore(nil)
	docs := make([]string, 100)
	for i := range docs {
		docs[i] = "common prefix shared by all documents " + fmt.Sprint(i)
	}
	ix, _, _ := buildTestIndex(t, store, "fm.index", docs, 5, BuildOptions{BlockSize: 1024, PageMapBlock: 512})
	all, err := ix.Lookup(ctx, []byte("common prefix"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 20 {
		t.Fatalf("unbounded lookup found %d pages, want 20", len(all))
	}
	few, err := ix.Lookup(ctx, []byte("common prefix"), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(few) == 0 || len(few) > 3 {
		t.Fatalf("bounded lookup returned %d pages", len(few))
	}
}

func TestEmptyAndEdgePatterns(t *testing.T) {
	ctx := context.Background()
	store := objectstore.NewMemStore(nil)
	ix, text, _ := buildTestIndex(t, store, "fm.index", []string{"hello world"}, 1, BuildOptions{})
	n, err := ix.Count(ctx, nil)
	if err != nil || n != int64(len(text))+1 {
		t.Fatalf("empty pattern count = %d, %v (text %d)", n, err, len(text))
	}
	if _, err := ix.Count(ctx, []byte{Sentinel}); err == nil {
		t.Fatal("sentinel pattern accepted")
	}
	// Pattern longer than text.
	long := strings.Repeat("x", 1000)
	if n, _ := ix.Count(ctx, []byte(long)); n != 0 {
		t.Fatalf("impossible pattern count = %d", n)
	}
	// Absent symbol short-circuits.
	if n, _ := ix.Count(ctx, []byte{0xFE}); n != 0 {
		t.Fatalf("absent symbol count = %d", n)
	}
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build([]byte("ab\x00cd"), []int64{0}, []postings.PageRef{{}}, BuildOptions{}); err == nil {
		t.Fatal("text with sentinel accepted")
	}
	if _, err := Build([]byte("abcd"), []int64{1}, []postings.PageRef{{}}, BuildOptions{}); err == nil {
		t.Fatal("pageStarts not at 0 accepted")
	}
	if _, err := Build([]byte("abcd"), []int64{0, 2, 2}, make([]postings.PageRef, 3), BuildOptions{}); err == nil {
		t.Fatal("non-increasing pageStarts accepted")
	}
	if _, err := Build([]byte("abcd"), []int64{0, 2}, make([]postings.PageRef, 1), BuildOptions{}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := Build([]byte("abcd"), nil, nil, BuildOptions{}); err == nil {
		t.Fatal("text without pages accepted")
	}
	// An empty text needs no page: a zero-row data file indexes to it.
	if _, err := Build(nil, nil, nil, BuildOptions{}); err != nil {
		t.Fatalf("empty text without pages: %v", err)
	}
}

func TestReconstructText(t *testing.T) {
	ctx := context.Background()
	store := objectstore.NewMemStore(nil)
	docs := workload.NewTextGen(workload.DefaultTextConfig(3)).Docs(50)
	ix, text, _ := buildTestIndex(t, store, "fm.index", docs, 10, BuildOptions{BlockSize: 2048})
	got, err := ix.ReconstructText(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, text) {
		t.Fatalf("reconstructed %d bytes != original %d bytes", len(got), len(text))
	}
}

func TestMergeEquivalentToLookupOnBoth(t *testing.T) {
	ctx := context.Background()
	store := objectstore.NewMemStore(nil)
	genA := workload.NewTextGen(workload.DefaultTextConfig(4))
	genB := workload.NewTextGen(workload.DefaultTextConfig(5))
	docsA := workload.PlantNeedle(genA.Docs(100), "AlphaNeedle", []int{10})
	docsB := workload.PlantNeedle(genB.Docs(100), "BravoNeedle", []int{55})
	ixA, _, _ := buildTestIndex(t, store, "a.index", docsA, 10, BuildOptions{BlockSize: 2048})
	ixB, _, _ := buildTestIndex(t, store, "b.index", docsB, 10, BuildOptions{BlockSize: 2048})

	merged, err := Merge(ctx, []*Index{ixA, ixB}, []map[uint32]uint32{{0: 0}, {0: 1}}, BuildOptions{BlockSize: 2048})
	if err != nil {
		t.Fatal(err)
	}
	store.Put(ctx, "m.index", merged)
	r, err := component.Open(ctx, store, "m.index", component.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ixM, err := Open(ctx, r)
	if err != nil {
		t.Fatal(err)
	}

	got, err := ixM.Lookup(ctx, []byte("AlphaNeedle"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].File != 0 || got[0].Page != 1 {
		t.Fatalf("AlphaNeedle in merged = %v", got)
	}
	got, err = ixM.Lookup(ctx, []byte("BravoNeedle"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].File != 1 || got[0].Page != 5 {
		t.Fatalf("BravoNeedle in merged = %v", got)
	}
	// Counts add up.
	cA, _ := ixA.Count(ctx, []byte("the"))
	cB, _ := ixB.Count(ctx, []byte("the"))
	cM, _ := ixM.Count(ctx, []byte("the"))
	if cM != cA+cB {
		t.Fatalf("merged count %d != %d + %d", cM, cA, cB)
	}
}

// TestMergeDroppedFileResolvesToNoRef: text of a file the merge does
// not map stays in the merged index but resolves to no ref, never to
// the kept page before it, which here belongs to another file.
func TestMergeDroppedFileResolvesToNoRef(t *testing.T) {
	ctx := context.Background()
	store := objectstore.NewMemStore(nil)
	textA := []byte("alpha page one\x01alpha page two\x01a NEEDLE in file one\x01")
	dataA, err := Build(textA, []int64{0, 15, 30}, []postings.PageRef{{File: 0, Page: 0}, {File: 0, Page: 1}, {File: 1, Page: 0}}, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	store.Put(ctx, "a.index", dataA)
	ixB, _, _ := buildTestIndex(t, store, "b.index", []string{"bravo text", "more bravo"}, 1, BuildOptions{})
	rA, err := component.Open(ctx, store, "a.index", component.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ixA, err := Open(ctx, rA)
	if err != nil {
		t.Fatal(err)
	}
	// Only A's file 0 and B's file 0 survive, as files 0 and 1.
	merged, err := Merge(ctx, []*Index{ixA, ixB}, []map[uint32]uint32{{0: 0}, {0: 1}}, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	store.Put(ctx, "m.index", merged)
	rM, err := component.Open(ctx, store, "m.index", component.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ixM, err := Open(ctx, rM)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		pattern string
		want    []postings.PageRef
	}{
		{"NEEDLE", nil},
		{"page two", []postings.PageRef{{File: 0, Page: 1}}},
		{"more bravo", []postings.PageRef{{File: 1, Page: 1}}},
	} {
		got, err := ixM.Lookup(ctx, []byte(tc.pattern), 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(tc.want) || (len(got) > 0 && got[0] != tc.want[0]) {
			t.Errorf("Lookup(%q) in the merged index = %v, want %v", tc.pattern, got, tc.want)
		}
	}
	if n, _ := ixM.Count(ctx, []byte("NEEDLE")); n != 1 {
		t.Errorf("Count(NEEDLE) = %d, want 1: the dropped file's text stays indexed", n)
	}
}

func TestBackwardSearchIsDepthBound(t *testing.T) {
	// Each pattern character costs at most two block reads; with
	// caching, a short pattern over a small index touches few
	// distinct blocks, but request count must scale with pattern
	// length, not text size (the depth-bound behavior of VII-A).
	ctx := context.Background()
	inner := objectstore.NewMemStore(nil)
	docs := workload.NewTextGen(workload.DefaultTextConfig(6)).Docs(500)
	buildTestIndex(t, inner, "fm.index", docs, 50, BuildOptions{BlockSize: 1024, PageMapBlock: 1024})

	store, metrics := objectstore.Instrument(inner, objectstore.DefaultS3Model())
	// A small tail read keeps the leaf components out of the open's
	// speculative fetch, so the depth of the backward search shows.
	r, err := component.Open(ctx, store, "fm.index", component.OpenOptions{TailBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Open(ctx, r)
	if err != nil {
		t.Fatal(err)
	}
	pattern := []byte(docs[100][:16])
	before := metrics.Snapshot()
	if _, err := ix.Lookup(ctx, pattern, 100); err != nil {
		t.Fatal(err)
	}
	gets := metrics.Snapshot().Sub(before).Gets
	// At most 2 block reads per char plus page-map reads.
	if gets > int64(2*len(pattern)+8) {
		t.Fatalf("lookup issued %d GETs for a %d-char pattern", gets, len(pattern))
	}
	if gets == 0 {
		t.Fatal("lookup should touch the store")
	}
}

func BenchmarkFMLookup(b *testing.B) {
	ctx := context.Background()
	store := objectstore.NewMemStore(nil)
	docs := workload.NewTextGen(workload.DefaultTextConfig(8)).Docs(1000)
	ix, _, _ := buildTestIndex(b, store, "fm.index", docs, 50, BuildOptions{})
	pattern := []byte(docs[500][:12])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ix.Lookup(ctx, pattern, 100); err != nil {
			b.Fatal(err)
		}
	}
}
