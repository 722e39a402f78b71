package fmindex

import (
	"context"
	"testing"

	"rottnest/internal/component"
	"rottnest/internal/objectstore"
	"rottnest/internal/postings"
)

// FuzzFMIndexOpen treats arbitrary bytes as a whole index object and
// drives the full deserialization path — component directory parse,
// root decode, then count/lookup queries. Corrupted files must error
// (or at worst return wrong refs, which in-situ probing filters);
// they must never panic.
func FuzzFMIndexOpen(f *testing.F) {
	// Seed with a small valid index so mutation explores the deep
	// decode paths, not just the magic check.
	text := []byte("the quick brown fox jumps over the lazy dog\x01" +
		"pack my box with five dozen liquor jugs\x01")
	valid, err := Build(text, []int64{0}, []postings.PageRef{{}}, BuildOptions{
		BlockSize: 256, PageMapBlock: 256,
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	// Bigram sections whose counts do not sum, whose keys go backwards
	// and whose length overruns the root: each must error at Open.
	for _, corrupt := range corruptBigramRoots(f, text, valid) {
		f.Add(corrupt)
	}
	f.Add([]byte{})
	f.Add([]byte("RCF1"))
	// A plausible trailer with an oversized directory length.
	trailer := make([]byte, 20)
	trailer[0] = 0xFF
	trailer[1] = 0xFF
	copy(trailer[16:], "RCF1")
	f.Add(trailer)

	f.Fuzz(func(t *testing.T, data []byte) {
		ctx := context.Background()
		store := objectstore.NewMemStore(nil)
		if err := store.Put(ctx, "fuzz.index", data); err != nil {
			t.Skip()
		}
		r, err := component.Open(ctx, store, "fuzz.index", component.OpenOptions{})
		if err != nil {
			return
		}
		ix, err := Open(ctx, r)
		if err != nil {
			return
		}
		for _, p := range [][]byte{[]byte("the"), []byte("quick"), []byte("zzz")} {
			ix.Count(ctx, p)
			ix.Lookup(ctx, p, 20)
		}
	})
}
