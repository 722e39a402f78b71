package fmindex

import (
	"bytes"
	"context"
	"encoding/binary"
	"reflect"
	"testing"

	"rottnest/internal/component"
	"rottnest/internal/objectstore"
	"rottnest/internal/postings"
	"rottnest/internal/workload"
)

// steppedBackward is the textbook single-pattern backward search — one
// occ evaluation per bound per character, each reading its block — kept
// here as the oracle for the production walk, which answers the first
// two steps from the root.
func steppedBackward(t testing.TB, ix *Index, pattern []byte) (sp, ep int64) {
	t.Helper()
	occ := func(c byte, i int64) int64 {
		if i <= 0 {
			return 0
		}
		blk := int((i - 1) / int64(ix.blockSize))
		block, err := ix.r.Component(context.Background(), ix.base+blk)
		if err != nil {
			t.Fatal(err)
		}
		count := ix.checkpoints[blk][c]
		for _, b := range block[:i-int64(blk)*int64(ix.blockSize)] {
			if b == c {
				count++
			}
		}
		return count
	}
	sp, ep = 0, int64(ix.n)
	for i := len(pattern) - 1; i >= 0 && sp < ep; i-- {
		c := pattern[i]
		sp, ep = ix.c[c]+occ(c, sp), ix.c[c]+occ(c, ep)
	}
	if sp >= ep {
		return 0, 0
	}
	return sp, ep
}

// withRoot rebuilds an index file with its root component replaced by
// edit(root); every other component is carried over unchanged.
func withRoot(t testing.TB, file []byte, edit func(root []byte) []byte) []byte {
	t.Helper()
	ctx := context.Background()
	store := objectstore.NewMemStore(nil)
	if err := store.Put(ctx, "src.index", file); err != nil {
		t.Fatal(err)
	}
	r, err := component.Open(ctx, store, "src.index", component.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b := component.NewBuilder(r.Kind())
	last := r.NumComponents() - 1
	for id := 0; id <= last; id++ {
		data, err := r.Component(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if id == last {
			data = edit(data)
		}
		b.Add(data)
	}
	out, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// pairSectionLen is the encoded length of text's bigram section, i.e.
// how far before its end a root written by this build ends in the
// layout of the builds before it.
func pairSectionLen(text []byte) int {
	return len(appendPairs(nil, textPairs(text)))
}

// textPairs is countPairs over text as the builder sees it: sentinel-
// terminated.
func textPairs(text []byte) []uint32 {
	return countPairs(append(append([]byte(nil), text...), Sentinel))
}

// countingIndex builds docs into an instrumented store and returns an
// index opened with a small tail (so no BWT block rides the open) plus
// the store's metrics.
func countingIndex(t *testing.T, docs []string, opts BuildOptions) (*Index, []byte, *objectstore.Metrics) {
	t.Helper()
	ctx := context.Background()
	inner := objectstore.NewMemStore(nil)
	_, text, _ := buildTestIndex(t, inner, "fm.index", docs, 25, opts)
	store, metrics := objectstore.Instrument(inner, objectstore.DefaultS3Model())
	r, err := component.Open(ctx, store, "fm.index", component.OpenOptions{TailBytes: 8 << 10, NoRetain: true})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Open(ctx, r)
	if err != nil {
		t.Fatal(err)
	}
	return ix, text, metrics
}

// TestBigramStartEqualsSteppedWalk pins part 4 of the cold-depth work:
// the interval the root's bigram table gives a pattern's last two
// characters is the one two occ steps would have fetched their way to,
// and the production walk from there ends where the stepped walk ends.
func TestBigramStartEqualsSteppedWalk(t *testing.T) {
	ctx := context.Background()
	docs := workload.NewTextGen(workload.DefaultTextConfig(21)).Docs(400)
	ix, text, metrics := countingIndex(t, docs, BuildOptions{BlockSize: 512, PageMapBlock: 512})
	if ix.pairRows == nil {
		t.Fatal("a fresh build carries no bigram table")
	}

	patterns := append(superwalkPatterns(docs),
		[]byte("the"), []byte("a"), []byte("zzzzzz"), []byte("qx"), []byte("zq"),
		[]byte(docs[5][:10]), []byte(docs[150][3:15]), []byte(docs[399][len(docs[399])-3:]))
	for _, p := range patterns {
		if len(p) >= 2 {
			sp, ep := ix.pairRange(p[len(p)-2], p[len(p)-1])
			wantSp, wantEp := steppedBackward(t, ix, p[len(p)-2:])
			if sp != wantSp || ep != wantEp {
				t.Errorf("pairRange(%q) = [%d,%d), two occ steps give [%d,%d)", p[len(p)-2:], sp, ep, wantSp, wantEp)
			}
		}
		got, err := ix.Count(ctx, p)
		if err != nil {
			t.Fatal(err)
		}
		sp, ep := steppedBackward(t, ix, p)
		if got != ep-sp {
			t.Errorf("Count(%q) = %d, stepped walk %d", p, got, ep-sp)
		}
	}

	// Every pair of the text is in the table with its true count.
	for _, p := range [][]byte{text[:2], text[len(text)/2 : len(text)/2+2], text[len(text)-2:]} {
		var want int64
		for i := 0; i+2 <= len(text); i++ {
			if bytes.Equal(text[i:i+2], p) {
				want++
			}
		}
		if sp, ep := ix.pairRange(p[0], p[1]); ep-sp != want {
			t.Errorf("pairRange(%q) holds %d rows, text has %d", p, ep-sp, want)
		}
	}

	gets := func(fn func()) int64 {
		before := metrics.Snapshot()
		fn()
		return metrics.Snapshot().Sub(before).Gets
	}
	// An absent pair is an empty answer the root gives alone, however
	// long the pattern in front of it — including a pair of symbols the
	// text does hold, just never side by side.
	var absent []byte
	for x := 1; x < 256 && absent == nil; x++ {
		for y := 1; y < 256 && absent == nil; y++ {
			p := []byte{byte(x), byte(y)}
			if bytes.IndexByte(text, p[0]) >= 0 && bytes.IndexByte(text, p[1]) >= 0 && !bytes.Contains(text, p) {
				absent = p
			}
		}
	}
	if absent == nil {
		t.Fatal("corpus holds every pair of its symbols; pick another seed")
	}
	for _, p := range [][]byte{absent, append([]byte("the quick brown "), absent...), {0xFE, 0xFD}} {
		if n := gets(func() {
			refs, err := ix.Lookup(ctx, p, 0)
			if err != nil || len(refs) != 0 {
				t.Errorf("Lookup(%q) = %v, %v; want no match", p, refs, err)
			}
		}); n != 0 {
			t.Errorf("absent pair %q cost %d GETs, want 0", p, n)
		}
	}
	// One and two characters are counted from the root.
	for _, p := range [][]byte{[]byte("e"), []byte("th")} {
		if n := gets(func() {
			if c, err := ix.Count(ctx, p); err != nil || c == 0 {
				t.Errorf("Count(%q) = %d, %v", p, c, err)
			}
		}); n != 0 {
			t.Errorf("Count(%q) cost %d GETs, want 0", p, n)
		}
	}

	// A wave mixing lengths 1, 2 and 6 is still one lock-step walk: it
	// equals the singleton walks and takes the longest pattern's
	// fetched steps (6 - 2), not the longest pattern's length.
	wave := [][]byte{[]byte("e"), []byte("th"), []byte(docs[10][:6]), []byte("t"), []byte(docs[200][4:10]), []byte("he")}
	var counts []int64
	var stats WalkStats
	n := gets(func() {
		var err error
		if counts, stats, err = ix.CountMany(ctx, wave); err != nil {
			t.Fatal(err)
		}
	})
	for i, p := range wave {
		if sp, ep := steppedBackward(t, ix, p); counts[i] != ep-sp {
			t.Errorf("wave pattern %q counted %d, stepped walk %d", p, counts[i], ep-sp)
		}
	}
	if int64(stats.OccFetched) != n || n == 0 || n > 2*2*4 {
		t.Errorf("mixed wave fetched %d blocks over %d GETs; want equal, in (0, 16]", stats.OccFetched, n)
	}
}

// TestRootWithoutBigramTableOpens pins the one piece of compatibility
// code: a root that ends where roots ended before the table existed
// opens, walks from step 0, and answers identically.
func TestRootWithoutBigramTableOpens(t *testing.T) {
	ctx := context.Background()
	store := objectstore.NewMemStore(nil)
	docs := workload.NewTextGen(workload.DefaultTextConfig(21)).Docs(400)
	ix, text, _ := buildTestIndex(t, store, "fm.index", docs, 25, BuildOptions{BlockSize: 512, PageMapBlock: 512})

	file, err := store.Get(ctx, "fm.index")
	if err != nil {
		t.Fatal(err)
	}
	old := withRoot(t, file, func(root []byte) []byte { return root[:len(root)-pairSectionLen(text)] })
	if err := store.Put(ctx, "old.index", old); err != nil {
		t.Fatal(err)
	}
	r, err := component.Open(ctx, store, "old.index", component.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ixOld, err := Open(ctx, r)
	if err != nil {
		t.Fatalf("open of a root without the bigram table: %v", err)
	}
	if ixOld.pairRows != nil {
		t.Fatal("truncated root still decoded a bigram table")
	}
	patterns := superwalkPatterns(docs)
	for _, maxRows := range []int{0, 7} {
		bounds := make([]int, len(patterns))
		for i := range bounds {
			bounds[i] = maxRows
		}
		want, wantTrunc, _, err := ix.LookupManyBounded(ctx, patterns, bounds)
		if err != nil {
			t.Fatal(err)
		}
		got, gotTrunc, _, err := ixOld.LookupManyBounded(ctx, patterns, bounds)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotTrunc, wantTrunc) {
			t.Fatalf("maxRows %d: table-less root answers %v/%v, want %v/%v", maxRows, got, gotTrunc, want, wantTrunc)
		}
	}
	for _, p := range patterns {
		sp, ep := steppedBackward(t, ixOld, p)
		if got, err := ixOld.Count(ctx, p); err != nil || got != ep-sp {
			t.Errorf("table-less Count(%q) = %d, %v; stepped walk %d", p, got, err, ep-sp)
		}
	}
}

// corruptBigramRoots returns text's index file with its bigram section
// replaced by three sections Open must reject: counts that do not sum
// to the symbol counts, keys that do not strictly increase, and a
// length that overruns the root.
func corruptBigramRoots(t testing.TB, text, file []byte) map[string][]byte {
	t.Helper()
	pairs := textPairs(text)
	reSection := func(section []byte) []byte {
		return withRoot(t, file, func(root []byte) []byte {
			end := len(root) - pairSectionLen(text)
			return append(root[:end:end], section...)
		})
	}
	inflated := append([]uint32(nil), pairs...)
	inflated[int('t')<<8|int('h')]++
	good := appendPairs(nil, pairs)
	// The first entry's key delta follows the one-or-more-byte count;
	// zeroing the second entry's delta repeats the first key.
	_, n := binary.Uvarint(good)
	_, d1 := binary.Uvarint(good[n:])
	_, c1 := binary.Uvarint(good[n+d1:])
	backwards := append([]byte(nil), good...)
	backwards[n+d1+c1] = 0
	return map[string][]byte{
		"counts do not sum":   reSection(appendPairs(nil, inflated)),
		"keys go backwards":   reSection(backwards),
		"length overruns":     reSection(append(binary.AppendUvarint(nil, 60000), good[n:]...)),
		"trailing bytes":      reSection(append(append([]byte(nil), good...), 0)),
		"section cut mid-way": reSection(good[:len(good)/2]),
	}
}

func TestCorruptBigramTableErrors(t *testing.T) {
	ctx := context.Background()
	text := []byte("the quick brown fox jumps over the lazy dog\x01the end\x01")
	file, err := Build(text, []int64{0}, []postings.PageRef{{}}, BuildOptions{BlockSize: 256, PageMapBlock: 256})
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range corruptBigramRoots(t, text, file) {
		store := objectstore.NewMemStore(nil)
		if err := store.Put(ctx, "fm.index", data); err != nil {
			t.Fatal(err)
		}
		r, err := component.Open(ctx, store, "fm.index", component.OpenOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Open(ctx, r); err == nil {
			t.Errorf("%s: Open accepted the root", name)
		}
	}
}

// TestMergeCarriesBigramTable: Merge goes through BuildInto, so its
// output starts walks from the root like any fresh build.
func TestMergeCarriesBigramTable(t *testing.T) {
	ctx := context.Background()
	store := objectstore.NewMemStore(nil)
	docsA := workload.NewTextGen(workload.DefaultTextConfig(4)).Docs(60)
	docsB := workload.NewTextGen(workload.DefaultTextConfig(5)).Docs(60)
	ixA, _, _ := buildTestIndex(t, store, "a.index", docsA, 10, BuildOptions{BlockSize: 1024})
	ixB, _, _ := buildTestIndex(t, store, "b.index", docsB, 10, BuildOptions{BlockSize: 1024})
	merged, err := Merge(ctx, []*Index{ixA, ixB}, []map[uint32]uint32{{0: 0}, {0: 1}}, BuildOptions{BlockSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Put(ctx, "m.index", merged); err != nil {
		t.Fatal(err)
	}
	r, err := component.Open(ctx, store, "m.index", component.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ixM, err := Open(ctx, r)
	if err != nil {
		t.Fatal(err)
	}
	if ixM.pairRows == nil {
		t.Fatal("merged index carries no bigram table")
	}
	for _, p := range []string{"th", "e ", "qx"} {
		spA, epA := ixA.pairRange(p[0], p[1])
		spB, epB := ixB.pairRange(p[0], p[1])
		spM, epM := ixM.pairRange(p[0], p[1])
		if epM-spM != (epA-spA)+(epB-spB) {
			t.Errorf("merged pair %q holds %d rows, sources %d + %d", p, epM-spM, epA-spA, epB-spB)
		}
	}
}
