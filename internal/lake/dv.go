package lake

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// DeletionVector records individual deleted rows of one data file, the
// mechanism Delta Lake and Iceberg use to delete rows without
// rewriting Parquet files (Section IV, file dv.bin in Figure 3).
// Row indices are file-local.
type DeletionVector struct {
	rows map[uint32]struct{}
}

// NewDeletionVector returns an empty vector.
func NewDeletionVector() *DeletionVector {
	return &DeletionVector{rows: make(map[uint32]struct{})}
}

// Add marks a file-local row as deleted.
func (d *DeletionVector) Add(row uint32) {
	d.rows[row] = struct{}{}
}

// Contains reports whether the row is deleted.
func (d *DeletionVector) Contains(row uint32) bool {
	if d == nil {
		return false
	}
	_, ok := d.rows[row]
	return ok
}

// Len returns the number of deleted rows.
// Footprint estimates the vector's resident bytes for cache cost
// accounting.
func (d *DeletionVector) Footprint() int64 {
	return 16*int64(d.Len()) + 64
}

func (d *DeletionVector) Len() int {
	if d == nil {
		return 0
	}
	return len(d.rows)
}

// Rows returns the deleted rows in ascending order.
func (d *DeletionVector) Rows() []uint32 {
	if d == nil {
		return nil
	}
	out := make([]uint32, 0, len(d.rows))
	for r := range d.rows {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// dvMagic identifies serialized deletion vectors.
var dvMagic = []byte("RDV1")

// Serialize encodes the vector as sorted varint deltas.
func (d *DeletionVector) Serialize() []byte {
	rows := d.Rows()
	out := append([]byte(nil), dvMagic...)
	out = binary.AppendUvarint(out, uint64(len(rows)))
	prev := uint32(0)
	for i, r := range rows {
		if i == 0 {
			out = binary.AppendUvarint(out, uint64(r))
		} else {
			out = binary.AppendUvarint(out, uint64(r-prev))
		}
		prev = r
	}
	return out
}

// ParseDeletionVector decodes a serialized vector.
func ParseDeletionVector(data []byte) (*DeletionVector, error) {
	if len(data) < len(dvMagic) || string(data[:len(dvMagic)]) != string(dvMagic) {
		return nil, fmt.Errorf("lake: bad deletion vector magic")
	}
	pos := len(dvMagic)
	count, n := binary.Uvarint(data[pos:])
	if n <= 0 {
		return nil, fmt.Errorf("lake: deletion vector truncated")
	}
	pos += n
	d := NewDeletionVector()
	prev := uint64(0)
	for i := uint64(0); i < count; i++ {
		delta, n := binary.Uvarint(data[pos:])
		if n <= 0 {
			return nil, fmt.Errorf("lake: deletion vector truncated at row %d", i)
		}
		pos += n
		if i == 0 {
			prev = delta
		} else {
			prev += delta
		}
		d.rows[uint32(prev)] = struct{}{}
	}
	return d, nil
}
