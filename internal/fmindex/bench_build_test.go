package fmindex

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"rottnest/internal/component"
	"rottnest/internal/objectstore"
	"rottnest/internal/postings"
	"rottnest/internal/workload"
)

// This file uses only exported API, so copying it into an older
// checkout gives the before side of a pair.

// benchDocs is the wall-clock benchmark's FM job size: 5,440
// workload.TextGen documents are 3.4 MB of text, about one build_compact
// round; three of them are what its Compact merges.
const benchDocs = 5440

// benchInput joins docs documents with separators, a page every 16.
func benchInput(seed int64, docs int) ([]byte, []int64, []postings.PageRef) {
	var text []byte
	var starts []int64
	var refs []postings.PageRef
	for i, d := range workload.NewTextGen(workload.DefaultTextConfig(seed)).Docs(docs) {
		if i%16 == 0 {
			starts = append(starts, int64(len(text)))
			refs = append(refs, postings.PageRef{File: 0, Page: uint32(len(refs))})
		}
		text = append(text, d...)
		text = append(text, Separator)
	}
	return text, starts, refs
}

// benchSources builds three indices of docs documents each and opens
// them the way core's compaction does (readers keep no fetched bytes),
// returning them with their file maps and total text bytes.
func benchSources(tb testing.TB, docs int) ([]*Index, []map[uint32]uint32, int) {
	tb.Helper()
	ctx := context.Background()
	store := objectstore.NewMemStore(nil)
	var sources []*Index
	var fileMaps []map[uint32]uint32
	total := 0
	for i := 0; i < 3; i++ {
		text, starts, refs := benchInput(int64(20+i), docs)
		total += len(text)
		data, err := Build(text, starts, refs, BuildOptions{})
		if err != nil {
			tb.Fatal(err)
		}
		key := fmt.Sprintf("src-%d.index", i)
		if err := store.Put(ctx, key, data); err != nil {
			tb.Fatal(err)
		}
		r, err := component.Open(ctx, store, key, component.OpenOptions{NoRetain: true})
		if err != nil {
			tb.Fatal(err)
		}
		ix, err := Open(ctx, r)
		if err != nil {
			tb.Fatal(err)
		}
		sources = append(sources, ix)
		fileMaps = append(fileMaps, map[uint32]uint32{0: uint32(i)})
	}
	return sources, fileMaps, total
}

var benchSink []byte

func BenchmarkFMBuild(b *testing.B) {
	text, starts, refs := benchInput(7, benchDocs)
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if benchSink, err = Build(text, starts, refs, BuildOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFMMerge(b *testing.B) {
	sources, fileMaps, total := benchSources(b, benchDocs)
	b.SetBytes(int64(total))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if benchSink, err = Merge(context.Background(), sources, fileMaps, BuildOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// allocPerByte runs fn once and returns the bytes it allocated per
// byte of text.
func allocPerByte(t *testing.T, textBytes int, fn func() error) float64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := fn(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(textBytes)
}

// TestFMAllocBudget holds the build path to its memory budget as a
// count: bytes allocated per text byte. A build keeps the text (Build
// copies it: 1), its suffix array (4), the type bits (1/8 and a third
// of that again down the recursion) and the output twice (compressed
// batches, then the file: 2 x 1.3); everything else is scratch sized by
// GOMAXPROCS. A merge adds each source's BWT (1) and stored bytes.
// Measured when the budget was set, parent -> head: 3.4 MB build
// 32.8 -> 9.5 B/B, three-source merge 43.4 -> 10.1, and the 150 KB
// build (ingest_live's job size, where the fixed costs of a build
// show: flate writers, the bigram table) 26.3 -> 12, whose ceiling is
// the parent's so that small jobs never pay for the large ones.
func TestFMAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops the pooled flate writers at random")
	}
	build := func(docs int) (float64, int) {
		text, starts, refs := benchInput(7, docs)
		return allocPerByte(t, len(text), func() (err error) {
			benchSink, err = Build(text, starts, refs, BuildOptions{})
			return err
		}), len(text)
	}
	for _, c := range []struct {
		docs    int
		ceiling float64
	}{{benchDocs, 12}, {240, 26}} {
		got, size := build(c.docs)
		t.Logf("build of %d text bytes: %.1f B/B (ceiling %.0f)", size, got, c.ceiling)
		if got > c.ceiling {
			t.Errorf("build of %d text bytes allocated %.1f B/B, budget %.0f", size, got, c.ceiling)
		}
	}
	sources, fileMaps, total := benchSources(t, benchDocs)
	got := allocPerByte(t, total, func() (err error) {
		benchSink, err = Merge(context.Background(), sources, fileMaps, BuildOptions{})
		return err
	})
	t.Logf("merge of %d text bytes: %.1f B/B (ceiling 20)", total, got)
	if got > 20 {
		t.Errorf("merge of %d text bytes allocated %.1f B/B, budget 20", total, got)
	}
}
