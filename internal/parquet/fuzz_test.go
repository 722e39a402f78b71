package parquet

import (
	"testing"
)

// fuzzColumns covers every physical type the page decoder dispatches
// on, so one corpus exercises all decode paths.
var fuzzColumns = []Column{
	{Name: "b", Type: TypeBool},
	{Name: "i", Type: TypeInt64},
	{Name: "d", Type: TypeDouble},
	{Name: "s", Type: TypeByteArray},
	{Name: "f", Type: TypeFixedLenByteArray, TypeLen: 16},
}

// FuzzPageDecode feeds arbitrary bytes to the page decoder (header
// parse, decompression, value decode) under every column type.
// Corrupted pages must error, never panic or over-allocate.
func FuzzPageDecode(f *testing.F) {
	// Well-formed pages for each type seed the corpus so mutation
	// starts from deep inside the decoders.
	seed := func(col Column, enc Encoding, codec Codec, v ColumnValues) {
		f.Add(rawPage(f, col, enc, codec, v, nil))
	}
	seed(fuzzColumns[1], EncodingPlain, CodecNone, ColumnValues{Ints: []int64{1, 2, 3, -7}})
	seed(fuzzColumns[1], EncodingDelta, CodecFlate, ColumnValues{Ints: []int64{10, 11, 12}})
	seed(fuzzColumns[3], EncodingDict, CodecFlate, ColumnValues{Bytes: [][]byte{[]byte("alpha"), []byte("beta"), []byte("alpha")}})
	seed(fuzzColumns[4], EncodingPlain, CodecNone, ColumnValues{Bytes: [][]byte{
		[]byte("0123456789abcdef"), []byte("fedcba9876543210"),
	}})
	f.Add([]byte{})
	f.Add(make([]byte, pageHeaderFixedSize))
	// Streams that disagree with their header: ending before the
	// declared size, inflating past it (a bomb), and followed by
	// garbage that the header counts as part of the body.
	texts := ColumnValues{Bytes: [][]byte{[]byte("alpha"), []byte("beta"), []byte("alpha")}}
	f.Add(rawPage(f, fuzzColumns[3], EncodingPlain, CodecFlate, texts, func(h *pageHeader) { h.UncompressedSize += 9 }))
	f.Add(rawPage(f, fuzzColumns[3], EncodingPlain, CodecFlate, texts, func(h *pageHeader) { h.UncompressedSize = 4 }))
	garbage := rawPage(f, fuzzColumns[3], EncodingPlain, CodecFlate, texts, func(h *pageHeader) { h.CompressedSize += 5 })
	f.Add(append(garbage, 0xde, 0xad, 0xbe, 0xef, 0x00))

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, col := range fuzzColumns {
			// Dict- and delta-encoded pages dispatch on the header's
			// encoding, so a successful decode need not match the
			// column's physical type; the only contract on corrupt
			// input is error-not-panic.
			decodePage(col, data)
		}
	})
}
