package parquet

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// rawPage assembles a page the way the writer does, then lets tamper
// change the header before it is serialized.
func rawPage(tb testing.TB, col Column, enc Encoding, codec Codec, v ColumnValues, tamper func(*pageHeader)) []byte {
	tb.Helper()
	body, err := encodeValues(nil, col, enc, v)
	if err != nil {
		tb.Fatal(err)
	}
	compressed, err := compressPage(codec, body)
	if err != nil {
		tb.Fatal(err)
	}
	h := pageHeader{
		NumValues:        uint32(v.Len()),
		UncompressedSize: uint32(len(body)),
		CompressedSize:   uint32(len(compressed)),
		Encoding:         enc,
		Codec:            codec,
	}
	if tamper != nil {
		tamper(&h)
	}
	return append(h.append(nil), compressed...)
}

var wordsCol = Column{Name: "s", Type: TypeByteArray}

func words() ColumnValues {
	return ColumnValues{Bytes: [][]byte{[]byte("alpha"), []byte("beta"), []byte(""), []byte("gamma")}}
}

// TestPageBodyMustHaveItsDeclaredLength: a page whose body is shorter
// or longer than its header says is corrupt, under either codec, and
// is refused before any value is decoded.
func TestPageBodyMustHaveItsDeclaredLength(t *testing.T) {
	for _, codec := range []Codec{CodecFlate, CodecNone} {
		if _, err := decodePage(wordsCol, rawPage(t, wordsCol, EncodingPlain, codec, words(), nil)); err != nil {
			t.Fatalf("codec %d: intact page: %v", codec, err)
		}
		for name, delta := range map[string]int{"short body": +3, "long body": -3} {
			page := rawPage(t, wordsCol, EncodingPlain, codec, words(), func(h *pageHeader) {
				h.UncompressedSize = uint32(int(h.UncompressedSize) + delta)
			})
			_, err := decodePage(wordsCol, page)
			if err == nil || strings.Contains(err.Error(), "truncated at value") {
				t.Errorf("codec %d, %s: err = %v, want a size error from the page layer", codec, name, err)
			}
		}
	}
	// A stream shorter than declared used to reach the value decoder,
	// which accepts it whenever the values it is asked for fit: here
	// one value of the four is declared away together with its bytes.
	page := rawPage(t, wordsCol, EncodingPlain, CodecFlate, words(), func(h *pageHeader) {
		h.NumValues--
		h.UncompressedSize += 40
	})
	if _, err := decodePage(wordsCol, page); err == nil {
		t.Error("a stream shorter than its declared size decoded")
	}
}

// TestDecodedValuesAreCapacityLimitedViews pins the aliasing contract
// of the zero-copy decoders: values are views of the page body, never
// of each other's bytes by way of spare capacity, so an append to one
// cannot write into its neighbour.
func TestDecodedValuesAreCapacityLimitedViews(t *testing.T) {
	fixed := Column{Name: "f", Type: TypeFixedLenByteArray, TypeLen: 4}
	cases := []struct {
		col Column
		enc Encoding
		v   ColumnValues
	}{
		{wordsCol, EncodingPlain, words()},
		{wordsCol, EncodingDict, words()},
		{fixed, EncodingPlain, ColumnValues{Bytes: [][]byte{[]byte("aaaa"), []byte("bbbb"), []byte("cccc")}}},
	}
	for _, tc := range cases {
		for _, codec := range []Codec{CodecFlate, CodecNone} {
			got, err := decodePage(tc.col, rawPage(t, tc.col, tc.enc, codec, tc.v, nil))
			if err != nil {
				t.Fatal(err)
			}
			for i, b := range got.Bytes {
				if !bytes.Equal(b, tc.v.Bytes[i]) {
					t.Fatalf("value %d = %q, want %q", i, b, tc.v.Bytes[i])
				}
				if cap(b) != len(b) {
					t.Fatalf("%v/%d/%d: value %d has %d bytes of spare capacity", tc.col.Type, tc.enc, codec, i, cap(b)-len(b))
				}
				_ = append(b, "XXXXXXXX"...)
			}
			for i, b := range got.Bytes {
				if !bytes.Equal(b, tc.v.Bytes[i]) {
					t.Fatalf("appending to a value changed value %d to %q", i, b)
				}
			}
		}
	}
}

var sinkValues ColumnValues

// BenchmarkDecodePage measures one 64 KiB page through decodePage —
// inflate (or not) plus value decode — per codec and value shape.
func BenchmarkDecodePage(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	fixed := func(width int) (Column, ColumnValues) {
		vals := make([][]byte, (64<<10)/width)
		for i := range vals {
			vals[i] = make([]byte, width)
			rng.Read(vals[i])
		}
		return Column{Name: "f", Type: TypeFixedLenByteArray, TypeLen: width}, ColumnValues{Bytes: vals}
	}
	text := make([][]byte, 1200)
	for i := range text {
		text[i] = []byte(fmt.Sprintf("log line %d with some filler text payload %x", i, rng.Int63()))
	}
	shapes := []struct {
		name string
		col  Column
		v    ColumnValues
	}{{name: "flba16"}, {name: "flba128"}, {"bytearray", wordsCol, ColumnValues{Bytes: text}}}
	shapes[0].col, shapes[0].v = fixed(16)
	shapes[1].col, shapes[1].v = fixed(128)
	for _, codec := range []struct {
		name string
		c    Codec
	}{{"flate", CodecFlate}, {"none", CodecNone}} {
		for _, s := range shapes {
			page := rawPage(b, s.col, EncodingPlain, codec.c, s.v, nil)
			b.Run(codec.name+"/"+s.name, func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(len(page)))
				for i := 0; i < b.N; i++ {
					v, err := decodePage(s.col, page)
					if err != nil {
						b.Fatal(err)
					}
					sinkValues = v
				}
			})
		}
	}
}
