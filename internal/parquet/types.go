// Package parquet implements the columnar file format substrate of the
// reproduction: a from-scratch, Parquet-equivalent format with row
// groups, column chunks, and data pages with inline headers, plus a
// footer holding file metadata and chunk-level min/max statistics.
//
// Two read paths are provided, mirroring Figure 5 of the paper:
//
//   - the traditional reader (ReadFileMeta + ReadColumnChunk) fetches
//     the footer and then entire column chunks, the way mainstream
//     Parquet readers access object storage; and
//   - the Rottnest optimized reader (ReadPages) fetches individual
//     data pages by byte range using an externally stored PageTable,
//     bypassing the footer entirely (Section V-A).
//
// Pages target ~1 MB of raw data, so page reads sit in the flat,
// latency-bound regime of the object-store latency curve while chunk
// reads sit in the throughput-bound regime — the asymmetry the paper's
// in-situ querying argument rests on.
package parquet

import "fmt"

// Type enumerates the physical column types supported by the format.
type Type uint8

// Physical types.
const (
	// TypeBool stores single bits, bit-packed.
	TypeBool Type = iota + 1
	// TypeInt64 stores 64-bit signed integers.
	TypeInt64
	// TypeDouble stores 64-bit IEEE floats.
	TypeDouble
	// TypeByteArray stores variable-length byte strings (text, blobs).
	TypeByteArray
	// TypeFixedLenByteArray stores fixed-width byte strings (UUIDs,
	// packed embedding vectors); the width is Column.TypeLen.
	TypeFixedLenByteArray
)

// String implements fmt.Stringer.
func (t Type) String() string {
	switch t {
	case TypeBool:
		return "BOOL"
	case TypeInt64:
		return "INT64"
	case TypeDouble:
		return "DOUBLE"
	case TypeByteArray:
		return "BYTE_ARRAY"
	case TypeFixedLenByteArray:
		return "FIXED_LEN_BYTE_ARRAY"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// Encoding enumerates value encodings within a data page.
type Encoding uint8

// Page encodings.
const (
	// EncodingPlain stores values back to back (length-prefixed for
	// variable-width types).
	EncodingPlain Encoding = iota + 1
	// EncodingDict stores a per-page dictionary followed by varint
	// indices; the writer selects it for repetitive byte-array data.
	EncodingDict
	// EncodingDelta stores zig-zag varint deltas; the writer selects
	// it for int64 columns (timestamps compress very well).
	EncodingDelta
)

// Codec enumerates page compression codecs.
type Codec uint8

// Compression codecs.
const (
	// CodecNone leaves page bytes as encoded.
	CodecNone Codec = iota + 1
	// CodecFlate compresses pages with DEFLATE (the stdlib stand-in
	// for Parquet's snappy/zstd).
	CodecFlate
)

// Column describes one field of a schema.
type Column struct {
	// Name is the field name, unique within the schema.
	Name string `json:"name"`
	// Type is the physical type.
	Type Type `json:"type"`
	// TypeLen is the value width for TypeFixedLenByteArray.
	TypeLen int `json:"type_len,omitempty"`
}

// Schema is an ordered set of columns.
type Schema struct {
	Columns []Column `json:"columns"`
}

// NewSchema returns a schema over the given columns, validating names
// and fixed-length widths.
func NewSchema(cols ...Column) (*Schema, error) {
	seen := make(map[string]bool, len(cols))
	for _, c := range cols {
		if c.Name == "" {
			return nil, fmt.Errorf("parquet: column with empty name")
		}
		if seen[c.Name] {
			return nil, fmt.Errorf("parquet: duplicate column %q", c.Name)
		}
		seen[c.Name] = true
		if c.Type == TypeFixedLenByteArray && c.TypeLen <= 0 {
			return nil, fmt.Errorf("parquet: column %q: fixed-len type needs TypeLen > 0", c.Name)
		}
		switch c.Type {
		case TypeBool, TypeInt64, TypeDouble, TypeByteArray, TypeFixedLenByteArray:
		default:
			return nil, fmt.Errorf("parquet: column %q: unknown type %v", c.Name, c.Type)
		}
	}
	return &Schema{Columns: cols}, nil
}

// MustSchema is NewSchema that panics on error, for tests and
// compile-time-constant schemas.
func MustSchema(cols ...Column) *Schema {
	s, err := NewSchema(cols...)
	if err != nil {
		panic(err)
	}
	return s
}

// Equal reports whether the two schemas have the same columns — same
// names, types, and fixed-length widths, in the same order.
func (s *Schema) Equal(o *Schema) bool {
	if s == o {
		return true
	}
	if s == nil || o == nil || len(s.Columns) != len(o.Columns) {
		return false
	}
	for i, c := range s.Columns {
		if c != o.Columns[i] {
			return false
		}
	}
	return true
}

// ColumnIndex returns the index of the named column, or -1.
func (s *Schema) ColumnIndex(name string) int {
	for i, c := range s.Columns {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// ColumnValues holds the values of one column for a batch of rows.
// Exactly one of the slices is populated, chosen by the column type.
type ColumnValues struct {
	Bools   []bool
	Ints    []int64
	Doubles []float64
	// Bytes serves both TypeByteArray and TypeFixedLenByteArray.
	Bytes [][]byte
}

// Len returns the number of values present.
func (v ColumnValues) Len() int {
	switch {
	case v.Bools != nil:
		return len(v.Bools)
	case v.Ints != nil:
		return len(v.Ints)
	case v.Doubles != nil:
		return len(v.Doubles)
	case v.Bytes != nil:
		return len(v.Bytes)
	}
	return 0
}

// Footprint estimates the values' resident bytes for cache cost
// accounting: the value bytes plus a slice header per byte-array value.
func (v ColumnValues) Footprint() int64 {
	n := int64(len(v.Bools)) + 8*int64(len(v.Ints)+len(v.Doubles)) + 24*int64(len(v.Bytes))
	for _, b := range v.Bytes {
		n += int64(len(b))
	}
	return n
}

// Slice returns the sub-range [from, to) of the values.
func (v ColumnValues) Slice(from, to int) ColumnValues {
	switch {
	case v.Bools != nil:
		return ColumnValues{Bools: v.Bools[from:to]}
	case v.Ints != nil:
		return ColumnValues{Ints: v.Ints[from:to]}
	case v.Doubles != nil:
		return ColumnValues{Doubles: v.Doubles[from:to]}
	case v.Bytes != nil:
		return ColumnValues{Bytes: v.Bytes[from:to]}
	}
	return ColumnValues{}
}

// Append returns v with other's values appended.
func (v ColumnValues) Append(other ColumnValues) ColumnValues {
	switch {
	case other.Bools != nil:
		v.Bools = append(v.Bools, other.Bools...)
	case other.Ints != nil:
		v.Ints = append(v.Ints, other.Ints...)
	case other.Doubles != nil:
		v.Doubles = append(v.Doubles, other.Doubles...)
	case other.Bytes != nil:
		v.Bytes = append(v.Bytes, other.Bytes...)
	}
	return v
}

// Batch is a set of rows across all schema columns, the unit of data
// appended to a FileWriter.
type Batch struct {
	Schema *Schema
	Cols   []ColumnValues
}

// NewBatch returns an empty batch for the schema.
func NewBatch(schema *Schema) *Batch {
	return &Batch{Schema: schema, Cols: make([]ColumnValues, len(schema.Columns))}
}

// NumRows returns the row count of the batch.
func (b *Batch) NumRows() int {
	if len(b.Cols) == 0 {
		return 0
	}
	return b.Cols[0].Len()
}

// Validate checks that every column holds the right value kind and the
// same row count.
func (b *Batch) Validate() error {
	if len(b.Cols) != len(b.Schema.Columns) {
		return fmt.Errorf("parquet: batch has %d columns, schema has %d", len(b.Cols), len(b.Schema.Columns))
	}
	n := -1
	for i, c := range b.Schema.Columns {
		v := b.Cols[i]
		switch c.Type {
		case TypeBool:
			if v.Bools == nil && v.Len() > 0 {
				return fmt.Errorf("parquet: column %q: want bools", c.Name)
			}
		case TypeInt64:
			if v.Ints == nil && v.Len() > 0 {
				return fmt.Errorf("parquet: column %q: want ints", c.Name)
			}
		case TypeDouble:
			if v.Doubles == nil && v.Len() > 0 {
				return fmt.Errorf("parquet: column %q: want doubles", c.Name)
			}
		case TypeByteArray, TypeFixedLenByteArray:
			if v.Bytes == nil && v.Len() > 0 {
				return fmt.Errorf("parquet: column %q: want bytes", c.Name)
			}
			if c.Type == TypeFixedLenByteArray {
				for _, b := range v.Bytes {
					if len(b) != c.TypeLen {
						return fmt.Errorf("parquet: column %q: fixed-len value of %d bytes, want %d", c.Name, len(b), c.TypeLen)
					}
				}
			}
		}
		if n == -1 {
			n = v.Len()
		} else if v.Len() != n {
			return fmt.Errorf("parquet: column %q has %d rows, want %d", c.Name, v.Len(), n)
		}
	}
	return nil
}
