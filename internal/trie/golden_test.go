package trie

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"testing"

	"rottnest/internal/objectstore"
	"rottnest/internal/postings"
	"rottnest/internal/workload"
)

// trieGoldenHash is the SHA-256 of the index file built by the
// original serial builder (pre-parallel seed code) for
// goldenTrieInput. The parallel bucketed build must keep emitting
// byte-identical files.
const trieGoldenHash = "7dd49dec652799b3650454d48ef35cd3f867cdfcd60913b2f410b0405d90dbe9"

func goldenTrieInput() ([][16]byte, []postings.PageRef) {
	keys := workload.NewUUIDGen(42).Batch(5000)
	for i := 0; i < 500; i++ {
		keys = append(keys, keys[i%100]) // duplicates across pages
	}
	refs := make([]postings.PageRef, len(keys))
	for i := range refs {
		refs[i] = postings.PageRef{File: uint32(i / 256), Page: uint32(i % 256)}
	}
	return keys, refs
}

func TestBuildGoldenBytes(t *testing.T) {
	keys, refs := goldenTrieInput()
	opts := BuildOptions{TargetComponentBytes: 8 << 10}
	data, err := Build(keys, refs, opts)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.Sum256(data)
	if got := hex.EncodeToString(h[:]); got != trieGoldenHash {
		t.Fatalf("trie index bytes diverged from the seed build:\n got %s\nwant %s", got, trieGoldenHash)
	}

	// The parallel build must be independent of the worker count.
	prev := runtime.GOMAXPROCS(1)
	serial, err := Build(keys, refs, opts)
	runtime.GOMAXPROCS(prev)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serial, data) {
		t.Fatal("trie index bytes differ between GOMAXPROCS=1 and parallel build")
	}
}

// trieMergedGoldenHash is the SHA-256 of the file Merge emits for the
// golden input split into three sources. Pinned before a merge read
// each source's components in one fan, and unchanged by it.
const trieMergedGoldenHash = "9d4055f39e218f38104f22f540aea6f2a7ae660c96db023293a4d85e0d8bdd88"

func TestMergeGoldenBytes(t *testing.T) {
	ctx := context.Background()
	store := objectstore.NewMemStore(nil)
	keys, refs := goldenTrieInput()
	opts := BuildOptions{TargetComponentBytes: 8 << 10}
	var sources []*Index
	third := len(keys) / 3
	for i := 0; i < 3; i++ {
		lo, hi := i*third, (i+1)*third
		if i == 2 {
			hi = len(keys)
		}
		sources = append(sources, buildAndOpen(t, store, fmt.Sprintf("%d.index", i), keys[lo:hi], refs[lo:hi], opts))
	}
	fileMaps := make([]map[uint32]uint32, 3)
	for i := range fileMaps {
		fileMaps[i] = make(map[uint32]uint32)
		for f := uint32(0); f < 32; f++ {
			fileMaps[i][f] = f
		}
	}
	data, err := Merge(ctx, sources, fileMaps, opts)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.Sum256(data)
	if got := hex.EncodeToString(h[:]); got != trieMergedGoldenHash {
		t.Fatalf("merged trie index bytes diverged:\n got %s\nwant %s", got, trieMergedGoldenHash)
	}
}
