package fmindex

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sort"
	"testing"

	"rottnest/internal/component"
	"rottnest/internal/objectstore"
	"rottnest/internal/postings"
	"rottnest/internal/workload"
)

// fmGoldenHash is the SHA-256 of the index file Build emits for
// goldenFMInput. Every build path must keep emitting byte-identical
// files: the chaos harness and the figure reproductions depend on
// deterministic index bytes. Re-pinned once, when the root gained its
// bigram section (the cold-path-depth PR); the components before the
// root are unchanged from the seed's serial prefix-doubling build,
// whose whole-file hash was
// 6ab3a1bbc95233f6eeff557133885dc4777dd981510859d197c93a99702a5ae5.
const fmGoldenHash = "968bccea7986c7f7fb7e5b52f812714294f6864d6c3c49f7e148971b878eddab"

func goldenFMInput() ([]byte, []int64, []postings.PageRef) {
	docs := workload.NewTextGen(workload.DefaultTextConfig(42)).Docs(300)
	var text []byte
	var starts []int64
	var refs []postings.PageRef
	for i, d := range docs {
		if i%10 == 0 {
			starts = append(starts, int64(len(text)))
			refs = append(refs, postings.PageRef{File: 0, Page: uint32(len(refs))})
		}
		text = append(text, []byte(d)...)
		text = append(text, Separator)
	}
	return text, starts, refs
}

func TestBuildGoldenBytes(t *testing.T) {
	text, starts, refs := goldenFMInput()
	opts := BuildOptions{BlockSize: 4096, PageMapBlock: 4096}
	data, err := Build(text, starts, refs, opts)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.Sum256(data)
	if got := hex.EncodeToString(h[:]); got != fmGoldenHash {
		t.Fatalf("FM index bytes diverged from the seed build:\n got %s\nwant %s", got, fmGoldenHash)
	}

	// The parallel encode must be independent of the worker count.
	prev := runtime.GOMAXPROCS(1)
	serial, err := Build(text, starts, refs, opts)
	runtime.GOMAXPROCS(prev)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serial, data) {
		t.Fatal("FM index bytes differ between GOMAXPROCS=1 and parallel build")
	}
}

// TestReferenceBuildMatchesProduction differentially checks the whole
// pipeline, not just the suffix array: the retained serial seed
// builder (prefix-doubling SA, serial encode, binary-search page map)
// and the SA-IS + parallel-encode path must emit identical files for
// identical input, at more than one block geometry.
func TestReferenceBuildMatchesProduction(t *testing.T) {
	text, starts, refs := goldenFMInput()
	for _, opts := range []BuildOptions{
		{},
		{BlockSize: 4096, PageMapBlock: 4096},
		{BlockSize: 1 << 10, PageMapBlock: 512},
	} {
		got, err := Build(text, starts, refs, opts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := referenceBuild(text, starts, refs, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("opts %+v: production build bytes differ from the reference build", opts)
		}
	}
}

// referenceBuild constructs an FM-index file with the original serial
// build path: prefix-doubling suffix array, serial BWT derivation,
// per-block serial encoding, and a per-SA-entry binary search for the
// position→page map. It is retained verbatim as the oracle for the
// byte-identity differential test — Build must emit exactly these
// bytes for any input.
func referenceBuild(text []byte, pageStarts []int64, refs []postings.PageRef, opts BuildOptions) ([]byte, error) {
	opts = opts.withDefaults()
	if err := validateBuildInput(text, pageStarts, refs); err != nil {
		return nil, err
	}
	b := component.NewBuilder(component.KindFM)

	full := make([]byte, 0, len(text)+1)
	full = append(full, text...)
	full = append(full, Sentinel)
	sa := referenceSuffixArray(full)
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
	return b.Finish()
}

// TestPosPageTableMatchesSearch holds pageOf to its definition — the
// largest j with starts[j] <= pos — at every position, whatever the
// table keeps: one page, 1-byte pages (a bucket full of starts),
// several starts inside one bucket and on bucket edges, starts at and
// past n, and n on, just past and well off a bucket multiple.
func TestPosPageTableMatchesSearch(t *testing.T) {
	const bucket = 1 << pageBucketShift
	every := func(n, step int) []int64 {
		var starts []int64
		for s := 0; s < n; s += step {
			starts = append(starts, int64(s))
		}
		return starts
	}
	cases := []struct {
		n      int
		starts []int64
	}{
		{1, []int64{0}},
		{40, []int64{0}},
		{40, []int64{0, 1, 2, 3}},
		{40, []int64{0, 5, 9, 100}},
		{40, []int64{0, 7, 7 + 13, 40, 41}},
		{3*bucket + 17, every(3*bucket+17, 1)},
		{2 * bucket, every(2*bucket, 1)},
		{2*bucket + 1, []int64{0, bucket - 1, bucket, bucket + 1, 2 * bucket, 2*bucket + 1, 5 * bucket}},
		{5 * bucket, []int64{0, 3, bucket + 5, bucket + 6, bucket + 900, 4*bucket - 1}},
		{4*bucket + 3, every(4*bucket+3, 300)},
		{10*bucket - 1, []int64{0, 7 * bucket}},
	}
	for ci, c := range cases {
		table := newPageTable(c.n, c.starts)
		want := 0
		for pos := 0; pos < c.n; pos++ {
			for want+1 < len(c.starts) && c.starts[want+1] <= int64(pos) {
				want++
			}
			if got := table.pageOf(int32(pos)); got != uint32(want) {
				t.Fatalf("case %d (n=%d): pageOf(%d) = %d, want %d", ci, c.n, pos, got, want)
			}
		}
	}
}

// TestBuildLeavesCallerBytesAlone: Build and BuildInto copy their text
// — the sentinel goes into the copy, not into the caller's array just
// past the slice.
func TestBuildLeavesCallerBytesAlone(t *testing.T) {
	text, starts, refs := goldenFMInput()
	const k = 5000
	backing := append([]byte(nil), text...)
	want, err := Build(append([]byte(nil), text[:k]...), starts[:1], refs[:1], BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Build(backing[:k], starts[:1], refs[:1], BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("building a prefix of a longer array changed the index bytes")
	}
	if !bytes.Equal(backing, text) {
		t.Fatal("Build wrote to its caller's array")
	}
}

// fmMergedGoldenHash is the SHA-256 of the file Merge emits for the
// golden input split into three sources. Pinned before the merge read
// its sources in one fan, and unchanged by it: how a merge fetches its
// sources must not show in the bytes it writes.
const fmMergedGoldenHash = "5e7f7408138900dabff379f4628821bbe500b1d2eed6d2823a8e6e88ffe89c26"

func TestMergeGoldenBytes(t *testing.T) {
	ctx := context.Background()
	store := objectstore.NewMemStore(nil)
	docs := workload.NewTextGen(workload.DefaultTextConfig(42)).Docs(300)
	opts := BuildOptions{BlockSize: 4096, PageMapBlock: 4096}
	var sources []*Index
	for i := 0; i < 3; i++ {
		ix, _, _ := buildTestIndex(t, store, fmt.Sprintf("%d.index", i), docs[i*100:(i+1)*100], 10, opts)
		sources = append(sources, ix)
	}
	data, err := Merge(ctx, sources, []map[uint32]uint32{{0: 0}, {0: 1}, {0: 2}}, opts)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.Sum256(data)
	if got := hex.EncodeToString(h[:]); got != fmMergedGoldenHash {
		t.Fatalf("merged FM index bytes diverged:\n got %s\nwant %s", got, fmMergedGoldenHash)
	}
}
