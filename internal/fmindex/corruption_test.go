package fmindex

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"rottnest/internal/component"
	"rottnest/internal/objectstore"
	"rottnest/internal/postings"
	"rottnest/internal/workload"
)

// TestCorruptedFMIndexNeverPanics mutates index bytes and drives the
// full open/count/lookup path.
func TestCorruptedFMIndexNeverPanics(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(12))
	docs := workload.NewTextGen(workload.DefaultTextConfig(12)).Docs(200)
	var text []byte
	for _, d := range docs {
		text = append(text, d...)
		text = append(text, Separator)
	}
	valid, err := Build(text, []int64{0}, []postings.PageRef{{}}, BuildOptions{BlockSize: 2048, PageMapBlock: 2048})
	if err != nil {
		t.Fatal(err)
	}
	patterns := [][]byte{[]byte("the"), []byte(docs[5][:8]), []byte("zzz")}
	for trial := 0; trial < 150; trial++ {
		corrupted := append([]byte(nil), valid...)
		for f := 0; f <= rng.Intn(3); f++ {
			corrupted[rng.Intn(len(corrupted))] ^= byte(1 + rng.Intn(255))
		}
		store := objectstore.NewMemStore(nil)
		store.Put(ctx, "fm.index", corrupted)
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("trial %d panicked: %v", trial, p)
				}
			}()
			r, err := component.Open(ctx, store, "fm.index", component.OpenOptions{})
			if err != nil {
				return
			}
			ix, err := Open(ctx, r)
			if err != nil {
				return
			}
			for _, p := range patterns {
				ix.Count(ctx, p)
				ix.Lookup(ctx, p, 50)
			}
		}()
	}
}

// TestMergeRejectsCorruptBWT swaps two adjacent, differing bytes of a
// source's BWT block. The block's symbol counts, and so its root
// checkpoints, still agree, and the index opens; but LF now splits
// into two cycles, so the bytes are the transform of no text. The
// merge must fail on it, before it writes anything, rather than build
// an index over garbage.
func TestMergeRejectsCorruptBWT(t *testing.T) {
	ctx := context.Background()
	store := objectstore.NewMemStore(nil)
	open := func(key string, data []byte) *Index {
		t.Helper()
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
		return ix
	}
	opts := BuildOptions{BlockSize: 2048, PageMapBlock: 2048}
	var sources []*Index
	for i := 0; i < 2; i++ {
		text, starts, refs := benchInput(int64(40+i), 60)
		data, err := Build(text, starts, refs, opts)
		if err != nil {
			t.Fatal(err)
		}
		sources = append(sources, open(fmt.Sprintf("src-%d.index", i), data))
	}

	// Rewrite source 0 with one swap in its second BWT block.
	src := sources[0]
	b := component.NewBuilder(component.KindFM)
	for id := 0; id < src.r.NumComponents(); id++ {
		comp, err := src.r.Component(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if id == src.base+1 {
			comp = append([]byte(nil), comp...)
			i := 0
			for comp[i] == comp[i+1] {
				i++
			}
			comp[i], comp[i+1] = comp[i+1], comp[i]
		}
		b.Add(comp)
	}
	data, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	sources[0] = open("corrupt.index", data)

	if _, err := sources[0].ReconstructText(ctx); err == nil {
		t.Fatal("ReconstructText inverted a BWT whose LF is two cycles")
	}
	out := component.NewBuilder(component.KindFM)
	err = MergeInto(ctx, out, sources, []map[uint32]uint32{{0: 0}, {0: 1}}, opts)
	if err == nil {
		t.Fatal("MergeInto merged a source whose BWT is not one LF cycle")
	}
	if out.NumComponents() != 0 {
		t.Fatalf("failed merge added %d components", out.NumComponents())
	}
	t.Log(err)
}
