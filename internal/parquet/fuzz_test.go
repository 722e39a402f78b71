package parquet

import (
	"bytes"
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

// FuzzFileMeta feeds arbitrary bytes to the footer decoder as a whole
// file: a bad magic, a length past the file or a body that is not a
// footer must error, never panic, and a footer that decodes must
// re-encode to one that decodes to the same bytes again.
func FuzzFileMeta(f *testing.F) {
	meta := &FileMeta{
		Version: 1,
		Schema:  MustSchema(Column{Name: "s", Type: TypeByteArray}),
		NumRows: 3,
		RowGroups: []RowGroupMeta{{NumRows: 3, Chunks: []ChunkMeta{
			{Column: 0, Offset: 4, Size: 40, NumPages: 1, Min: []byte("a"), Max: []byte("c")},
		}}},
	}
	valid, err := encodeFooter([]byte("RPQ1"), meta)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-1])
	f.Add(valid[len(valid)-8:]) // the length with no body
	f.Add([]byte{})
	noSchema, err := encodeFooter(nil, &FileMeta{NumRows: 1})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(noSchema)

	f.Fuzz(func(t *testing.T, data []byte) {
		meta, err := ParseFileMeta(data)
		if err != nil {
			return
		}
		enc, err := encodeFooter(nil, meta)
		if err != nil {
			t.Fatalf("decoded footer does not encode: %v", err)
		}
		back, err := ParseFileMeta(enc)
		if err != nil {
			t.Fatalf("re-encoded footer does not decode: %v", err)
		}
		again, err := encodeFooter(nil, back)
		if err != nil || !bytes.Equal(again, enc) {
			t.Fatalf("footer encoding is not stable across a round trip: %v", err)
		}
	})
}
