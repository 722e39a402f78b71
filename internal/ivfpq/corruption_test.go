package ivfpq

import (
	"context"
	"encoding/binary"
	"math/rand"
	"testing"

	"rottnest/internal/component"
	"rottnest/internal/objectstore"
	"rottnest/internal/workload"
)

// TestCorruptedIVFPQNeverPanics mutates index bytes and drives the
// full open/search/entries path.
func TestCorruptedIVFPQNeverPanics(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(13))
	vecs := workload.NewVectorGen(workload.VectorConfig{Seed: 13, Dim: 8, Clusters: 8}).Batch(800)
	valid, err := Build(vecs, seqRefs(len(vecs)), BuildOptions{M: 4, Seed: 13, TargetComponentBytes: 2 << 10})
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 150; trial++ {
		corrupted := append([]byte(nil), valid...)
		for f := 0; f <= rng.Intn(3); f++ {
			corrupted[rng.Intn(len(corrupted))] ^= byte(1 + rng.Intn(255))
		}
		store := objectstore.NewMemStore(nil)
		store.Put(ctx, "v.index", corrupted)
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("trial %d panicked: %v", trial, p)
				}
			}()
			r, err := component.Open(ctx, store, "v.index", component.OpenOptions{})
			if err != nil {
				return
			}
			ix, err := Open(ctx, r)
			if err != nil {
				return
			}
			ix.Search(ctx, vecs[0], 4, 20)
			ix.Entries(ctx)
		}()
	}
}

// corruptRoots returns index files whose list component is intact but
// whose root lies: about its geometry, the size of its float payload,
// its list directory, or where it ends. The first file is valid.
func corruptRoots(t testing.TB) [][]byte {
	t.Helper()
	// root assembles a root by hand: the five header varints, floats
	// float32 zeros, then the directory.
	root := func(dim, m, subdim, nlist, total uint64, floats int, descs []listDesc) []byte {
		var b []byte
		for _, v := range []uint64{dim, m, subdim, nlist, total} {
			b = binary.AppendUvarint(b, v)
		}
		b = append(b, make([]byte, 4*floats)...)
		for _, d := range descs {
			for _, v := range []int{d.ComponentID, d.ByteOffset, d.ByteLen, d.Count} {
				b = binary.AppendUvarint(b, uint64(v))
			}
		}
		return b
	}
	file := func(root []byte) []byte {
		b := component.NewBuilder(component.KindIVFPQ)
		b.Add([]byte{1, 0, 2, 7, 9, 1, 0, 4, 3, 200}) // two one-member lists, m = 2
		b.Add(root)
		data, err := b.Finish()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	good := func() []listDesc {
		return []listDesc{{ByteLen: 5, Count: 1}, {ByteOffset: 5, ByteLen: 5, Count: 1}}
	}
	const floats = 2*4 + 2*pqCodebookSize*2 // dim 4, m 2, subdim 2, two lists
	valid := root(4, 2, 2, 2, 2, floats, good())
	badExtent, badComponent, badCount := good(), good(), good()
	badExtent[1].ByteOffset = 1 << 40
	badComponent[0].ComponentID = 7
	badCount[1].Count = 1 << 30
	return [][]byte{
		file(valid),
		file(root(4, 3, 2, 2, 2, floats, good())),             // m·subdim != dim
		file(root(0, 2, 2, 2, 2, floats, good())),             // zero dim
		file(root(4, 2, 2, 1<<50, 2, floats, good())),         // lists the root cannot hold
		file(root(1<<20, 1<<10, 1<<10, 2, 2, floats, good())), // codebooks the root cannot hold
		file(root(4, 2, 2, 2, 2, floats, badExtent)),
		file(root(4, 2, 2, 2, 2, floats, badComponent)),
		file(root(4, 2, 2, 2, 2, floats, badCount)),
		file(valid[:len(valid)/2]), // ends inside the codebooks
		file(valid[:len(valid)-3]), // ends inside the directory
		file(valid[:3]),            // ends inside the header
		file(nil),
	}
}

// FuzzIVFPQOpen feeds arbitrary bytes to the open, search and list
// decode paths: a corrupt file must produce errors, never a panic or
// an allocation sized by a lying header.
func FuzzIVFPQOpen(f *testing.F) {
	vecs := workload.NewVectorGen(workload.VectorConfig{Seed: 13, Dim: 8, Clusters: 4}).Batch(64)
	valid, err := Build(vecs, seqRefs(len(vecs)), BuildOptions{M: 4, NList: 4, Seed: 13, TargetComponentBytes: 256})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	for _, data := range corruptRoots(f) {
		f.Add(data)
	}
	f.Add([]byte{})
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
		q := make([]float32, ix.Dim())
		ix.Search(ctx, q, 4, 20)
		ix.NearestLists(q, 4)
		ix.decodeAll(ctx)
	})
}

// TestCorruptRootsError checks each hand-corrupted root is rejected
// with an error, by Open or by the first read that trusts it, and that
// the valid one they were derived from is not.
func TestCorruptRootsError(t *testing.T) {
	ctx := context.Background()
	for i, data := range corruptRoots(t) {
		store := objectstore.NewMemStore(nil)
		store.Put(ctx, "v.index", data)
		r, err := component.Open(ctx, store, "v.index", component.OpenOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ix, err := Open(ctx, r)
		if err == nil {
			_, _, err = ix.decodeAll(ctx)
		}
		if (err == nil) != (i == 0) {
			t.Errorf("root %d: err = %v", i, err)
		}
	}
}
