package lake

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"
)

// FuzzDeletionVector feeds arbitrary bytes to the deletion-vector
// decoder, the format of every dv object a search and a scan read from
// the store. Corrupt input must error, never panic, and whatever
// decodes must survive a round trip: the vector it serializes to
// decodes to the same rows, and serializes to the same bytes again.
func FuzzDeletionVector(f *testing.F) {
	dv := NewDeletionVector()
	for _, r := range []uint32{0, 3, 4, 200, 1 << 20} {
		dv.Add(r)
	}
	valid := dv.Serialize()
	f.Add(valid)
	f.Add(valid[:len(valid)-1])            // the last row cut short
	f.Add(NewDeletionVector().Serialize()) // no rows
	f.Add([]byte("RDV1"))                  // no count
	f.Add([]byte("RDV0\x00"))              // bad magic
	f.Add(binary.AppendUvarint([]byte("RDV1"), 1<<62))
	// Deltas that carry a row past the 32-bit row space.
	over := binary.AppendUvarint([]byte("RDV1"), 2)
	over = binary.AppendUvarint(over, 1<<32-1)
	f.Add(binary.AppendUvarint(over, 5))

	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := ParseDeletionVector(data)
		if err != nil {
			return
		}
		enc := d.Serialize()
		back, err := ParseDeletionVector(enc)
		if err != nil {
			t.Fatalf("serialized vector does not decode: %v", err)
		}
		if !slices.Equal(back.Rows(), d.Rows()) {
			t.Fatalf("round trip changed the rows: %v -> %v", d.Rows(), back.Rows())
		}
		if !bytes.Equal(back.Serialize(), enc) {
			t.Fatal("serialization is not stable across a round trip")
		}
	})
}
