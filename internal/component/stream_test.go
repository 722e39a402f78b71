package component

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"rottnest/internal/objectstore"
)

// streamBlocks returns n blocks of mixed compressibility and length,
// including empty ones.
func streamBlocks(n int) [][]byte {
	rng := rand.New(rand.NewSource(int64(n)))
	blocks := make([][]byte, n)
	for i := range blocks {
		block := make([]byte, rng.Intn(6000))
		if i%3 == 0 {
			rng.Read(block)
		} else {
			for j := range block {
				block[j] = byte('a' + (i+j/7)%5)
			}
		}
		blocks[i] = block
	}
	return blocks
}

// TestAddEachMatchesSerialAdd: a file built through AddEach — with a
// producer that appends into the slot's scratch, or through AddAll's
// caller-held slices — is byte for byte the file serial Add calls
// build, at every worker count and with the block count on both sides
// of a batch boundary (none, one, exactly a batch, one more, several).
func TestAddEachMatchesSerialAdd(t *testing.T) {
	for _, procs := range []int{1, 2, runtime.NumCPU() + 1} {
		batch := slotsPerWorker * procs
		for _, n := range []int{0, 1, batch - 1, batch, batch + 1, 3*batch + 2} {
			t.Run(fmt.Sprintf("procs=%d/blocks=%d", procs, n), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				blocks := streamBlocks(n)
				serial := NewBuilder(KindFM)
				serial.Add([]byte("manifest"))
				for _, block := range blocks {
					serial.Add(block)
				}
				serial.Add([]byte("root"))
				want, err := serial.Finish()
				if err != nil {
					t.Fatal(err)
				}

				for name, add := range map[string]func(*Builder) int{
					"AddAll": func(b *Builder) int { return b.AddAll(blocks) },
					"AddEach": func(b *Builder) int {
						return b.AddEach(n, func(i int, buf []byte) []byte {
							// Whatever an earlier block left in the scratch
							// must not show.
							return append(buf, blocks[i]...)
						})
					},
				} {
					b := NewBuilder(KindFM)
					b.Add([]byte("manifest"))
					if first := add(b); first != 1 || b.NumComponents() != 1+n {
						t.Fatalf("%s: first ID %d, %d components, want 1 and %d", name, first, b.NumComponents(), 1+n)
					}
					b.Add([]byte("root"))
					got, err := b.Finish()
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("%s: file differs from the one serial Add calls build", name)
					}
					if cap(got) != len(got) {
						t.Fatalf("%s: file of %d bytes in a buffer of %d", name, len(got), cap(got))
					}
				}
			})
		}
	}
}

// TestComponentsIntoMatchesComponents: inflating straight into one
// buffer gives Components' bytes joined — from the tail, from the
// store, and retained or not — and the buffer must fit exactly.
func TestComponentsIntoMatchesComponents(t *testing.T) {
	ctx := context.Background()
	blocks := streamBlocks(12)
	b := NewBuilder(KindFM)
	b.AddAll(blocks)
	data, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	store := objectstore.NewMemStore(nil)
	if err := store.Put(ctx, "k", data); err != nil {
		t.Fatal(err)
	}
	ids := []int{0, 3, 4, 11, 7}
	var want []byte
	for _, id := range ids {
		want = append(want, blocks[id]...)
	}
	for _, opts := range []OpenOptions{{}, {TailBytes: 4 << 10}, {TailBytes: 4 << 10, NoRetain: true}} {
		r, err := Open(ctx, store, "k", opts)
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 2; round++ { // the second finds retained bytes
			got := make([]byte, len(want))
			if err := r.ComponentsInto(ctx, ids, got); err != nil {
				t.Fatalf("%+v: %v", opts, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%+v: ComponentsInto differs from the components joined", opts)
			}
		}
		if err := r.ComponentsInto(ctx, ids, make([]byte, len(want)+1)); err == nil {
			t.Fatalf("%+v: a buffer one byte too long was accepted", opts)
		}
		if len(want) > 0 {
			if err := r.ComponentsInto(ctx, ids, make([]byte, len(want)-1)); err == nil {
				t.Fatalf("%+v: a buffer one byte too short was accepted", opts)
			}
		}
		if err := r.ComponentsInto(ctx, []int{12}, nil); err == nil {
			t.Fatalf("%+v: an out-of-range component was accepted", opts)
		}
	}
}
