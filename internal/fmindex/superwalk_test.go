package fmindex

import (
	"bytes"
	"context"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"rottnest/internal/component"
	"rottnest/internal/objectstore"
	"rottnest/internal/simtime"
	"rottnest/internal/workload"
)

// superwalkPatterns is a mixed batch exercising every walk path:
// shared suffixes (block sharing), no-match, dead-symbol, empty, and
// single-char patterns.
func superwalkPatterns(docs []string) [][]byte {
	return [][]byte{
		[]byte(docs[10][:12]),
		[]byte(docs[10][4:16]), // overlaps the first
		[]byte(docs[200][:8]),
		[]byte(docs[200][:24]), // shares a prefix with the previous
		[]byte("no such needle anywhere"),
		{0xFE, 0xFD}, // symbols absent from the text generator
		{},           // empty pattern: matches every row
		[]byte(docs[300][2:3]),
	}
}

func TestSuperwalkMatchesSingleton(t *testing.T) {
	ctx := context.Background()
	store := objectstore.NewMemStore(nil)
	docs := workload.NewTextGen(workload.DefaultTextConfig(21)).Docs(400)
	ix, _, _ := buildTestIndex(t, store, "fm.index", docs, 25, BuildOptions{BlockSize: 512, PageMapBlock: 512})

	patterns := superwalkPatterns(docs)
	counts, _, err := ix.CountMany(ctx, patterns)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range patterns {
		sp, ep := steppedBackward(t, ix, p)
		if counts[i] != ep-sp {
			t.Errorf("CountMany(%q) = %d, stepped walk %d", p, counts[i], ep-sp)
		}
	}

	for _, maxRows := range []int{0, 1, 7, 1000} {
		bounds := make([]int, len(patterns))
		for i := range bounds {
			bounds[i] = maxRows
		}
		refs, trunc, _, err := ix.LookupManyBounded(ctx, patterns, bounds)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range patterns {
			wantRefs, wantTrunc, err := ix.LookupBounded(ctx, p, maxRows)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(refs[i], wantRefs) {
				t.Errorf("LookupManyBounded(%q, %d) = %v, want %v", p, maxRows, refs[i], wantRefs)
			}
			if trunc[i] != wantTrunc {
				t.Errorf("LookupManyBounded(%q, %d) truncated = %v, want %v", p, maxRows, trunc[i], wantTrunc)
			}
		}
	}

	// Per-pattern bounds differ: each pattern honors its own.
	bounds := make([]int, len(patterns))
	for i := range bounds {
		bounds[i] = 1 + i*3
	}
	refs, trunc, _, err := ix.LookupManyBounded(ctx, patterns, bounds)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range patterns {
		wantRefs, wantTrunc, err := ix.LookupBounded(ctx, p, bounds[i])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(refs[i], wantRefs) || trunc[i] != wantTrunc {
			t.Errorf("per-pattern bound %d for %q: got %v/%v want %v/%v",
				bounds[i], p, refs[i], trunc[i], wantRefs, wantTrunc)
		}
	}
}

func TestSuperwalkSentinelPatternErrors(t *testing.T) {
	ctx := context.Background()
	store := objectstore.NewMemStore(nil)
	docs := workload.NewTextGen(workload.DefaultTextConfig(3)).Docs(50)
	ix, _, _ := buildTestIndex(t, store, "fm.index", docs, 10, BuildOptions{BlockSize: 512, PageMapBlock: 512})
	if _, _, err := ix.CountMany(ctx, [][]byte{[]byte("ok"), {'a', Sentinel, 'b'}}); err == nil {
		t.Fatal("CountMany accepted a pattern containing the sentinel")
	}
	if _, _, _, err := ix.LookupManyBounded(ctx, [][]byte{{Sentinel}}, nil); err == nil {
		t.Fatal("LookupManyBounded accepted a sentinel pattern")
	}
	if _, _, _, err := ix.LookupManyBounded(ctx, [][]byte{{'a'}, {'b'}}, []int{1}); err == nil {
		t.Fatal("LookupManyBounded accepted mismatched bounds")
	}
}

// TestSuperwalkDedupesFetches pins the tentpole win: a batch of
// patterns walked together issues strictly fewer store GETs than the
// same patterns walked independently, and WalkStats accounts for the
// reuse.
func TestSuperwalkDedupesFetches(t *testing.T) {
	ctx := context.Background()
	inner := objectstore.NewMemStore(nil)
	docs := workload.NewTextGen(workload.DefaultTextConfig(9)).Docs(500)
	buildTestIndex(t, inner, "fm.index", docs, 50, BuildOptions{BlockSize: 1024, PageMapBlock: 1024})
	store, metrics := objectstore.Instrument(inner, objectstore.DefaultS3Model())

	// NoRetain keeps the reader's component cache out of the picture so
	// GET counts reflect the walks themselves; a small tail read keeps
	// the leaf components out of the open's speculative fetch.
	open := func() *Index {
		r, err := component.Open(ctx, store, "fm.index", component.OpenOptions{TailBytes: 4 << 10, NoRetain: true})
		if err != nil {
			t.Fatal(err)
		}
		ix, err := Open(ctx, r)
		if err != nil {
			t.Fatal(err)
		}
		return ix
	}
	patterns := make([][]byte, 8)
	for i := range patterns {
		patterns[i] = []byte(docs[i*37][:12])
	}

	single := open()
	before := metrics.Snapshot()
	for _, p := range patterns {
		if _, err := single.Count(ctx, p); err != nil {
			t.Fatal(err)
		}
	}
	singleGets := metrics.Snapshot().Sub(before).Gets

	batch := open()
	before = metrics.Snapshot()
	_, stats, err := batch.CountMany(ctx, patterns)
	if err != nil {
		t.Fatal(err)
	}
	batchGets := metrics.Snapshot().Sub(before).Gets

	if batchGets >= singleGets {
		t.Fatalf("superwalk issued %d GETs, singletons %d — no dedup", batchGets, singleGets)
	}
	if stats.OccFetched == 0 || stats.OccReused == 0 {
		t.Fatalf("WalkStats = %+v, want nonzero fetched and reused", stats)
	}
	if int64(stats.OccFetched) != batchGets {
		t.Fatalf("WalkStats.OccFetched = %d but store saw %d GETs", stats.OccFetched, batchGets)
	}
}

// steppedCost walks p from its bigram start one step at a time,
// fetching a step's blocks only when the step is reached, and returns
// the levels a cold lookup of p alone would wait on after the open, one
// per step that reads a block no earlier step read and one for the
// page map of a match, and the BWT blocks it reads.
func steppedCost(t *testing.T, ix *Index, p []byte) (levels, blocks int) {
	t.Helper()
	read := make(map[int][]byte)
	sp, ep := ix.pairRange(p[len(p)-2], p[len(p)-1])
	for rem := len(p) - 2; rem > 0 && sp < ep; rem-- {
		c := p[rem-1]
		if ix.totalSymbols[c] == 0 {
			return levels, blocks
		}
		fetched := false
		for _, id := range []int{ix.occComponent(sp), ix.occComponent(ep)} {
			if _, ok := read[id]; id >= 0 && !ok {
				block, err := ix.r.Component(context.Background(), id)
				if err != nil {
					t.Fatal(err)
				}
				read[id], fetched = block, true
				blocks++
			}
		}
		if fetched {
			levels++
		}
		sp = ix.c[c] + ix.occFrom(read[ix.occComponent(sp)], c, sp)
		ep = ix.c[c] + ix.occFrom(read[ix.occComponent(ep)], c, ep)
	}
	if sp < ep {
		levels++
	}
	return levels, blocks
}

// TestPredictedWalkPrice pins what the prediction buys and what it
// costs, on a store whose open-time tail holds the root and no block,
// so every block is one GET. A short match's prediction fits one fan,
// its BWT blocks and page-map block together; a long match waits on a
// fan per maxFan blocks of prediction, not on one per step; and a
// miss, which the checkpoints cannot tell from a match, waits on no
// more levels than the stepped walk and reads at most maxFan more
// blocks per level it waits on, however long it is. A predicted walk
// answers as the stepped one does.
func TestPredictedWalkPrice(t *testing.T) {
	ctx := context.Background()
	inner := objectstore.NewMemStore(nil)
	docs := workload.NewTextGen(workload.DefaultTextConfig(6)).Docs(500)
	plain, text, pageStarts := buildTestIndex(t, inner, "fm.index", docs, 50, BuildOptions{BlockSize: 1024, PageMapBlock: 1024})
	store, metrics := objectstore.Instrument(inner, objectstore.DefaultS3Model())
	open := func() *Index {
		r, err := component.Open(ctx, store, "fm.index", component.OpenOptions{TailBytes: 4 << 10, NoRetain: true})
		if err != nil {
			t.Fatal(err)
		}
		ix, err := Open(ctx, r)
		if err != nil {
			t.Fatal(err)
		}
		return ix
	}
	var batch [][]byte
	for _, tc := range []struct {
		name          string
		pattern       string
		levels        int
		occ, pm       int
		bytes         int64
		steppedLevels int
	}{
		{"5-byte match", docs[100][:5], 1, 6, 1, 2969, 4},
		{"8-byte match", docs[100][:8], 3, 12, 1, 4028, 7},
		{"24-byte match", docs[400][:24], 5, 22, 1, 8269, 21},
		{"32-byte match", docs[250][3:35], 7, 33, 1, 11389, 30},
		{"32-byte miss", docs[100][:29] + docs[300][:3], 1, 5, 0, 1439, 2},
		{"absent run", strings.Repeat("q", 32), 1, 2, 1, 1179, 1},
	} {
		p := []byte(tc.pattern)
		batch = append(batch, p)
		ix := open()
		session := simtime.NewSession()
		before := metrics.Snapshot()
		_, _, stats, err := ix.LookupManyBounded(simtime.With(ctx, session), [][]byte{p}, nil)
		if err != nil {
			t.Fatal(err)
		}
		reqs := metrics.Snapshot().Sub(before)
		levels := int(session.Elapsed() / (30 * time.Millisecond))
		steppedLevels, steppedBlocks := steppedCost(t, plain, p)
		if levels != tc.levels || stats.OccFetched != tc.occ || stats.PageMapFetched != tc.pm || reqs.BytesRead != tc.bytes || steppedLevels != tc.steppedLevels {
			t.Errorf("%s: %d levels, %d BWT and %d page-map blocks, %d B; want %d, %d, %d, %d B (stepped walk: %d levels, want %d)",
				tc.name, levels, stats.OccFetched, stats.PageMapFetched, reqs.BytesRead, tc.levels, tc.occ, tc.pm, tc.bytes, steppedLevels, tc.steppedLevels)
		}
		if reqs.Gets != int64(stats.OccFetched+stats.PageMapFetched) {
			t.Errorf("%s: %d GETs for %+v, want one per block", tc.name, reqs.Gets, stats)
		}
		if levels > steppedLevels || stats.OccFetched > steppedBlocks+maxFan*levels {
			t.Errorf("%s: %d levels and %d BWT blocks, the stepped walk %d and %d; want no more levels and at most %d more blocks per level",
				tc.name, levels, stats.OccFetched, steppedLevels, steppedBlocks, maxFan)
		}
	}

	ix := open()
	batch = append(batch, superwalkPatterns(docs)...)
	counts, _, err := ix.CountMany(ctx, batch)
	if err != nil {
		t.Fatal(err)
	}
	refs, _, _, err := ix.LookupManyBounded(ctx, batch, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range batch {
		if sp, ep := steppedBackward(t, ix, p); counts[i] != ep-sp {
			t.Errorf("CountMany(%q) = %d, stepped walk %d", p, counts[i], ep-sp)
		}
		if len(p) == 0 {
			continue // matches every row, sentinel included
		}
		var pages []uint32
		for _, ref := range refs[i] {
			pages = append(pages, ref.Page)
		}
		if want := naivePages(text, pageStarts, p); !reflect.DeepEqual(pages, want) {
			t.Errorf("LookupManyBounded(%q) = pages %v, want %v", p, pages, want)
		}
	}
}

// FuzzFMSuperwalk drives CountMany/LookupManyBounded with random
// pattern batches against the stepped walk (counts) and the
// single-pattern wave (lookups) as oracles: neither the root-answered
// first steps nor the coordination may change any pattern's result.
func FuzzFMSuperwalk(f *testing.F) {
	f.Add([]byte("the quick brown fox"), []byte("fox\x01quick\x01zzz\x01e"), 4)
	f.Add([]byte("aaaaaaaaaaaaaaaa"), []byte("aa\x01aaa\x01a"), 0)
	f.Add([]byte("abcabcabc"), []byte("\x01"), 1)
	// The prediction's branches: a one-symbol text, where a long
	// pattern's rows outgrow two page-map blocks and the lookup fetches
	// them after the walk; a text whose bounds straddle block
	// boundaries; a bound that cuts the rows of a predicted page-map
	// range; and words whose 40-byte match and 40-byte miss each
	// outrun maxFan, so the walk predicts again at a later fan.
	f.Add(bytes.Repeat([]byte("a"), 1500), bytes.Repeat([]byte("a"), 30), 0)
	f.Add(bytes.Repeat([]byte("the quick brown fox jumps over the lazy dog "), 12), []byte("the lazy\x01quick brown fox\x01over"), 0)
	f.Add(bytes.Repeat([]byte("abcab"), 60), []byte("abca\x01cab"), 3)
	words := []byte(strings.Join(workload.NewTextGen(workload.DefaultTextConfig(3)).Docs(2), " "))
	miss := append(append([]byte{}, words[300:320]...), words[20:40]...)
	f.Add(words, append(append(append([]byte{}, words[100:140]...), Separator), miss...), 0)
	f.Fuzz(func(t *testing.T, textRaw, patternsRaw []byte, maxRows int) {
		if len(textRaw) > 4<<10 || len(patternsRaw) > 256 {
			t.Skip()
		}
		text := make([]byte, 0, len(textRaw))
		for _, b := range textRaw {
			if b == Sentinel {
				b = Separator
			}
			text = append(text, b)
		}
		patterns := bytes.Split(patternsRaw, []byte{Separator})
		if len(patterns) > 16 {
			patterns = patterns[:16]
		}
		for i, p := range patterns {
			// Sentinel-containing patterns error on both paths; route
			// them away so the fuzz focuses on result equivalence.
			patterns[i] = bytes.ReplaceAll(p, []byte{Sentinel}, []byte{Separator})
		}
		if maxRows < 0 {
			maxRows = -maxRows
		}
		maxRows %= 64

		ctx := context.Background()
		store := objectstore.NewMemStore(nil)
		rng := rand.New(rand.NewSource(int64(len(textRaw))))
		// Random small geometry stresses block-boundary paths.
		var docs []string
		for len(text) > 0 {
			n := 1 + rng.Intn(64)
			if n > len(text) {
				n = len(text)
			}
			docs = append(docs, string(text[:n]))
			text = text[n:]
		}
		if len(docs) == 0 {
			docs = []string{"x"}
		}
		ix, _, _ := buildTestIndex(t, store, "fuzz.index", docs, 1+rng.Intn(4), BuildOptions{
			BlockSize: 32 + rng.Intn(256), PageMapBlock: 32 + rng.Intn(256),
		})

		counts, _, err := ix.CountMany(ctx, patterns)
		if err != nil {
			t.Fatalf("CountMany: %v", err)
		}
		bounds := make([]int, len(patterns))
		for i := range bounds {
			bounds[i] = maxRows
		}
		refs, trunc, _, err := ix.LookupManyBounded(ctx, patterns, bounds)
		if err != nil {
			t.Fatalf("LookupManyBounded: %v", err)
		}
		for i, p := range patterns {
			sp, ep := steppedBackward(t, ix, p)
			if counts[i] != ep-sp {
				t.Fatalf("pattern %q: CountMany=%d, stepped walk %d", p, counts[i], ep-sp)
			}
			wantRefs, wantTrunc, err := ix.LookupBounded(ctx, p, maxRows)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(refs[i], wantRefs) || trunc[i] != wantTrunc {
				t.Fatalf("pattern %q maxRows=%d: superwalk %v/%v, singleton %v/%v",
					p, maxRows, refs[i], trunc[i], wantRefs, wantTrunc)
			}
		}
	})
}
