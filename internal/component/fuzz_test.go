package component

import (
	"context"
	"encoding/binary"
	"testing"

	"rottnest/internal/objectstore"
)

// FuzzComponentOpen treats arbitrary bytes as a component file and
// drives every read path over it: a corrupted or truncated tail or
// directory must come back as an error from Open, Component,
// Components or ComponentsInto — never a panic, and never an
// allocation sized by what the file claims beyond what its bytes could
// inflate to.
func FuzzComponentOpen(f *testing.F) {
	// A small file: the fuzzer minimizes every input it keeps byte by
	// byte.
	b := NewBuilder(KindFM)
	b.Add([]byte("component zero, the manifest"))
	b.AddAll([][]byte{[]byte("a block, a block, a block, a block and its end")})
	b.Add([]byte("root"))
	valid, err := b.Finish()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid, uint16(0))
	f.Add(valid, uint16(8)) // a tail that misses the directory
	f.Add(valid[:len(valid)-1], uint16(0))
	f.Add(valid[len(valid)/2:], uint16(0))
	f.Add([]byte{}, uint16(0))
	f.Add([]byte("RCF1"), uint16(0))

	// The directory and trailer rewritten around the same components.
	dirLen := int(binary.LittleEndian.Uint32(valid[len(valid)-16:]))
	dirStart := len(valid) - 16 - dirLen
	var entries []uint64 // offset, size, rawSize of each component
	for rest := valid[dirStart : len(valid)-17]; len(rest) > 0; {
		v, n := binary.Uvarint(rest)
		entries, rest = append(entries, v), rest[n:]
	}
	withDir := func(entries []uint64, dirLenOff int, size uint64, magic string) []byte {
		out := append([]byte(nil), valid[:dirStart]...)
		for _, v := range entries {
			out = binary.AppendUvarint(out, v)
		}
		out = append(out, byte(KindFM))
		out = binary.LittleEndian.AppendUint32(out, uint32(len(out)-dirStart+dirLenOff))
		out = binary.LittleEndian.AppendUint64(out, size)
		return append(out, magic...)
	}
	edit := func(i int, v uint64) []uint64 {
		out := append([]uint64(nil), entries...)
		out[i] = v
		return out
	}
	size := uint64(len(valid))
	for _, corrupt := range [][]byte{
		withDir(entries, 0, size, "RCF2"),                  // bad magic
		withDir(entries, len(valid), size, "RCF1"),         // dirLen past the file
		withDir(entries, -dirLen, size, "RCF1"),            // no directory at all
		withDir(entries, -1, size, "RCF1"),                 // directory starts mid-entry
		withDir(entries, 0, 1<<63+5, "RCF1"),               // negative file size
		withDir(entries, 0, 1<<40, "RCF1"),                 // file size past the object
		withDir(edit(3, 0), 0, size, "RCF1"),               // component 1 over component 0
		withDir(edit(3, 1<<63), 0, size, "RCF1"),           // negative offset
		withDir(edit(4, 1<<63+1), 0, size, "RCF1"),         // negative size
		withDir(edit(4, 1<<62), 0, size, "RCF1"),           // offset+size overflows
		withDir(edit(5, 1<<50), 0, size, "RCF1"),           // rawSize a petabyte
		withDir(edit(5, entries[5]+1), 0, size, "RCF1"),    // rawSize one too many
		withDir(edit(5, entries[5]-1), 0, size, "RCF1"),    // rawSize one too few
		withDir(entries[:len(entries)-1], 0, size, "RCF1"), // an entry cut short
	} {
		f.Add(corrupt, uint16(0))
		f.Add(corrupt, uint16(20))
	}

	f.Fuzz(func(t *testing.T, data []byte, tailBytes uint16) {
		ctx := context.Background()
		store := objectstore.NewMemStore(nil)
		if err := store.Put(ctx, "fuzz.index", data); err != nil {
			t.Skip()
		}
		ReadKind(ctx, store, "fuzz.index")
		for _, noRetain := range []bool{false, true} {
			r, err := Open(ctx, store, "fuzz.index", OpenOptions{TailBytes: int64(tailBytes), NoRetain: noRetain})
			if err != nil {
				return
			}
			// A stream may declare up to 1032 times its length, so each
			// read can cost that: a few components, each path once.
			n := min(r.NumComponents(), 4)
			ids := make([]int, n)
			for id := range ids {
				ids[id] = id
			}
			if n > 0 {
				r.Component(ctx, n-1)
			}
			r.Components(ctx, ids)
			r.Components(ctx, append(ids, -1))
			r.Components(ctx, append(ids, r.NumComponents()))
			r.ComponentsInto(ctx, ids, make([]byte, len(data)))
		}
	})
}

// TestDirectoryIsNotTrusted: a directory entry moved past the file or
// onto another component is an error from Component and Components,
// whether the extent is read from the tail or from the store.
func TestDirectoryIsNotTrusted(t *testing.T) {
	ctx := context.Background()
	b := NewBuilder(KindFM)
	first := b.AddAll(streamBlocks(3))
	valid, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	dirLen := int(binary.LittleEndian.Uint32(valid[len(valid)-16:]))
	dirStart := len(valid) - 16 - dirLen
	// Component 1's entry starts after component 0's three varints.
	pos := dirStart
	for i := 0; i < 3; i++ {
		_, n := binary.Uvarint(valid[pos:])
		pos += n
	}
	offset, n := binary.Uvarint(valid[pos:])
	if n != 2 || offset < 128 {
		t.Fatalf("component 1 at offset %d in %d bytes: the test needs a two-byte varint to overwrite", offset, n)
	}
	for name, v := range map[string]uint64{"past the file": 16000, "overlapping component 0": 128} {
		corrupt := append([]byte(nil), valid...)
		binary.PutUvarint(corrupt[pos:], v) // 128..16383 stay two bytes
		store := objectstore.NewMemStore(nil)
		if err := store.Put(ctx, "k", corrupt); err != nil {
			t.Fatal(err)
		}
		for _, tail := range []int64{0, 20} {
			r, err := Open(ctx, store, "k", OpenOptions{TailBytes: tail})
			if err != nil {
				continue
			}
			if _, err := r.Component(ctx, first+1); err == nil {
				t.Errorf("%s, tail %d: Component read a moved extent without error", name, tail)
			}
			if _, err := r.Components(ctx, []int{first, first + 1}); err == nil {
				t.Errorf("%s, tail %d: Components read a moved extent without error", name, tail)
			}
		}
	}
}
