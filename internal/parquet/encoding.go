package parquet

import (
	"encoding/binary"
	"fmt"
	"math"

	"rottnest/internal/deflate"
)

func doubleBits(f float64) uint64     { return math.Float64bits(f) }
func doubleFromBits(u uint64) float64 { return math.Float64frombits(u) }

// encodeValues serializes values of the given column using the chosen
// encoding, appending to dst.
func encodeValues(dst []byte, col Column, enc Encoding, v ColumnValues) ([]byte, error) {
	switch enc {
	case EncodingPlain:
		return encodePlain(dst, col, v)
	case EncodingDict:
		if col.Type != TypeByteArray && col.Type != TypeFixedLenByteArray {
			return nil, fmt.Errorf("parquet: dict encoding requires byte-array column, got %v", col.Type)
		}
		return encodeDict(dst, v.Bytes), nil
	case EncodingDelta:
		if col.Type != TypeInt64 {
			return nil, fmt.Errorf("parquet: delta encoding requires int64 column, got %v", col.Type)
		}
		return encodeDelta(dst, v.Ints), nil
	default:
		return nil, fmt.Errorf("parquet: unknown encoding %d", enc)
	}
}

// decodeValues parses count values of the given column from data.
// Byte-array values are capacity-limited views into data, not copies:
// data is either a freshly inflated page body or, for CodecNone, the
// fetched range itself (which a byte cache may share), so decoded
// values are read-only and an append to one reallocates.
func decodeValues(col Column, enc Encoding, data []byte, count int) (ColumnValues, error) {
	switch enc {
	case EncodingPlain:
		return decodePlain(col, data, count)
	case EncodingDict:
		vals, err := decodeDict(data, count)
		return ColumnValues{Bytes: vals}, err
	case EncodingDelta:
		vals, err := decodeDelta(data, count)
		return ColumnValues{Ints: vals}, err
	default:
		return ColumnValues{}, fmt.Errorf("parquet: unknown encoding %d", enc)
	}
}

func encodePlain(dst []byte, col Column, v ColumnValues) ([]byte, error) {
	switch col.Type {
	case TypeBool:
		// Bit-packed, LSB first.
		nbytes := (len(v.Bools) + 7) / 8
		start := len(dst)
		dst = append(dst, make([]byte, nbytes)...)
		for i, b := range v.Bools {
			if b {
				dst[start+i/8] |= 1 << (i % 8)
			}
		}
		return dst, nil
	case TypeInt64:
		for _, x := range v.Ints {
			dst = binary.LittleEndian.AppendUint64(dst, uint64(x))
		}
		return dst, nil
	case TypeDouble:
		for _, x := range v.Doubles {
			dst = binary.LittleEndian.AppendUint64(dst, doubleBits(x))
		}
		return dst, nil
	case TypeByteArray:
		for _, b := range v.Bytes {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(len(b)))
			dst = append(dst, b...)
		}
		return dst, nil
	case TypeFixedLenByteArray:
		for _, b := range v.Bytes {
			if len(b) != col.TypeLen {
				return nil, fmt.Errorf("parquet: fixed-len value of %d bytes, want %d", len(b), col.TypeLen)
			}
			dst = append(dst, b...)
		}
		return dst, nil
	default:
		return nil, fmt.Errorf("parquet: unknown type %v", col.Type)
	}
}

func decodePlain(col Column, data []byte, count int) (ColumnValues, error) {
	switch col.Type {
	case TypeBool:
		if len(data) < (count+7)/8 {
			return ColumnValues{}, fmt.Errorf("parquet: bool page truncated")
		}
		out := make([]bool, count)
		for i := range out {
			out[i] = data[i/8]&(1<<(i%8)) != 0
		}
		return ColumnValues{Bools: out}, nil
	case TypeInt64:
		if len(data) < 8*count {
			return ColumnValues{}, fmt.Errorf("parquet: int64 page truncated")
		}
		out := make([]int64, count)
		for i := range out {
			out[i] = int64(binary.LittleEndian.Uint64(data[8*i:]))
		}
		return ColumnValues{Ints: out}, nil
	case TypeDouble:
		if len(data) < 8*count {
			return ColumnValues{}, fmt.Errorf("parquet: double page truncated")
		}
		out := make([]float64, count)
		for i := range out {
			out[i] = doubleFromBits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		return ColumnValues{Doubles: out}, nil
	case TypeByteArray:
		// Each value carries a 4-byte length prefix; a corrupt count
		// cannot force a preallocation beyond what data could hold.
		prealloc := count
		if prealloc > len(data)/4 {
			prealloc = len(data) / 4
		}
		out := make([][]byte, 0, prealloc)
		pos := 0
		for i := 0; i < count; i++ {
			if pos+4 > len(data) {
				return ColumnValues{}, fmt.Errorf("parquet: byte-array page truncated at value %d", i)
			}
			n := int(binary.LittleEndian.Uint32(data[pos:]))
			pos += 4
			if pos+n > len(data) {
				return ColumnValues{}, fmt.Errorf("parquet: byte-array page truncated at value %d", i)
			}
			out = append(out, data[pos:pos+n:pos+n])
			pos += n
		}
		return ColumnValues{Bytes: out}, nil
	case TypeFixedLenByteArray:
		if len(data) < col.TypeLen*count {
			return ColumnValues{}, fmt.Errorf("parquet: fixed-len page truncated")
		}
		out := make([][]byte, count)
		for i := range out {
			lo, hi := i*col.TypeLen, (i+1)*col.TypeLen
			out[i] = data[lo:hi:hi]
		}
		return ColumnValues{Bytes: out}, nil
	default:
		return ColumnValues{}, fmt.Errorf("parquet: unknown type %v", col.Type)
	}
}

// encodeDict writes [u32 dictCount][dict entries: u32 len + bytes]
// [uvarint indices...].
func encodeDict(dst []byte, vals [][]byte) []byte {
	dict := make(map[string]uint32)
	var order [][]byte
	indices := make([]uint32, len(vals))
	for i, v := range vals {
		id, ok := dict[string(v)]
		if !ok {
			id = uint32(len(order))
			dict[string(v)] = id
			order = append(order, v)
		}
		indices[i] = id
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(order)))
	for _, e := range order {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(e)))
		dst = append(dst, e...)
	}
	for _, id := range indices {
		dst = binary.AppendUvarint(dst, uint64(id))
	}
	return dst
}

func decodeDict(data []byte, count int) ([][]byte, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("parquet: dict page truncated")
	}
	dictCount := int(binary.LittleEndian.Uint32(data))
	pos := 4
	// Every entry needs at least its 4-byte length prefix.
	if dictCount > (len(data)-pos)/4 {
		return nil, fmt.Errorf("parquet: dict page truncated in dictionary")
	}
	dict := make([][]byte, dictCount)
	for i := 0; i < dictCount; i++ {
		if pos+4 > len(data) {
			return nil, fmt.Errorf("parquet: dict page truncated in dictionary")
		}
		n := int(binary.LittleEndian.Uint32(data[pos:]))
		pos += 4
		if pos+n > len(data) {
			return nil, fmt.Errorf("parquet: dict page truncated in dictionary")
		}
		dict[i] = data[pos : pos+n : pos+n]
		pos += n
	}
	// Every index needs at least one varint byte.
	if count > len(data)-pos {
		return nil, fmt.Errorf("parquet: dict page truncated in indices")
	}
	out := make([][]byte, count)
	for i := 0; i < count; i++ {
		id, n := binary.Uvarint(data[pos:])
		if n <= 0 || id >= uint64(dictCount) {
			return nil, fmt.Errorf("parquet: dict page bad index at value %d", i)
		}
		pos += n
		out[i] = dict[id]
	}
	return out, nil
}

// encodeDelta writes zig-zag varint deltas from the previous value.
func encodeDelta(dst []byte, vals []int64) []byte {
	prev := int64(0)
	for _, v := range vals {
		dst = binary.AppendVarint(dst, v-prev)
		prev = v
	}
	return dst
}

func decodeDelta(data []byte, count int) ([]int64, error) {
	// Every delta needs at least one varint byte.
	if count > len(data) {
		return nil, fmt.Errorf("parquet: delta page truncated")
	}
	out := make([]int64, count)
	pos := 0
	prev := int64(0)
	for i := 0; i < count; i++ {
		d, n := binary.Varint(data[pos:])
		if n <= 0 {
			return nil, fmt.Errorf("parquet: delta page truncated at value %d", i)
		}
		pos += n
		prev += d
		out[i] = prev
	}
	return out, nil
}

// compressPage applies the codec to the encoded page body.
func compressPage(codec Codec, data []byte) ([]byte, error) {
	switch codec {
	case CodecNone:
		return data, nil
	case CodecFlate:
		out, err := deflate.Compress(data)
		if err != nil {
			return nil, fmt.Errorf("parquet: %w", err)
		}
		return out, nil
	default:
		return nil, fmt.Errorf("parquet: unknown codec %d", codec)
	}
}

// decompressPage reverses compressPage; size is the uncompressed
// length the page header declares, and a body of any other length is
// corrupt.
func decompressPage(codec Codec, data []byte, size int) ([]byte, error) {
	switch codec {
	case CodecNone:
		if len(data) != size {
			return nil, fmt.Errorf("parquet: page body of %d bytes, header declares %d", len(data), size)
		}
		return data, nil
	case CodecFlate:
		out, err := deflate.Decompress(data, int64(size))
		if err != nil {
			return nil, fmt.Errorf("parquet: %w", err)
		}
		return out, nil
	default:
		return nil, fmt.Errorf("parquet: unknown codec %d", codec)
	}
}
