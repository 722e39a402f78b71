package fmindex

import (
	"bytes"
	"math/rand"
	"testing"
)

// referenceInvertBWT is the serial inversion: one pointer chase from
// row 0 through LF (lf is its scratch), writing the text backwards
// into dst, n-1 steps whatever the bytes are. It is the oracle for
// invertBWT and reports whether the chase was one cycle through every
// row, which is when bwt is the transform of some text.
func referenceInvertBWT(dst, bwt []byte, lf []int32) (oneCycle bool) {
	var counts [256]int
	for _, c := range bwt {
		counts[c]++
	}
	var c0 [256]int
	sum := 0
	for c := 0; c < 256; c++ {
		c0[c] = sum
		sum += counts[c]
	}
	var running [256]int
	for i, c := range bwt {
		lf[i] = int32(c0[c] + running[c])
		running[c]++
	}
	row := int32(0)
	oneCycle = true
	for i := len(bwt) - 2; i >= 0; i-- {
		dst[i] = bwt[row]
		row = lf[row]
		oneCycle = oneCycle && row != 0
	}
	dst[len(bwt)-1] = bwt[row]
	return oneCycle && lf[row] == 0
}

// bwtOf returns the BWT of a sentinel-terminated text.
func bwtOf(text []byte) []byte {
	bwt := make([]byte, len(text))
	for i, pos := range buildSuffixArray(text) {
		bwt[i] = text[(int(pos)+len(text)-1)%len(text)]
	}
	return bwt
}

// checkInvert runs invertBWT against the serial oracle: it must fail
// exactly when the oracle's chase is not one cycle, write nothing
// then, and otherwise write the oracle's bytes.
func checkInvert(t *testing.T, label string, bwt []byte) (oneCycle bool) {
	t.Helper()
	want := make([]byte, len(bwt))
	oneCycle = referenceInvertBWT(want, bwt, make([]int32, len(bwt)))
	got := make([]byte, len(bwt))
	err := invertBWT(got, bwt, make([]int32, len(bwt)))
	switch {
	case oneCycle && err != nil:
		t.Fatalf("%s (n=%d): %v, but LF is one cycle", label, len(bwt), err)
	case !oneCycle && err == nil:
		t.Fatalf("%s (n=%d): inverted a BWT whose LF is not one cycle", label, len(bwt))
	case !oneCycle && !bytes.Equal(got, make([]byte, len(bwt))):
		t.Fatalf("%s (n=%d): failed inversion wrote dst", label, len(bwt))
	case oneCycle && !bytes.Equal(got, want):
		t.Fatalf("%s (n=%d): inversion differs from the serial walk", label, len(bwt))
	}
	return oneCycle
}

// TestBWTInvertMatchesReference differentially tests the segment walks
// against the serial chase: texts whose separators, and so whose head
// rows' neighbourhoods, take every shape; lengths across the head
// spacing; and every BWT one adjacent swap away from a valid one,
// which splits LF into two cycles whenever the swapped bytes differ.
func TestBWTInvertMatchesReference(t *testing.T) {
	sep := string([]byte{Separator})
	rng := rand.New(rand.NewSource(37))
	mixed := make([]byte, 5000)
	for i := range mixed {
		mixed[i] = "ab\x01"[rng.Intn(3)]
	}
	corpus, _, _ := benchInput(13, 200)
	cases := map[string][]byte{
		"n=1":                {},
		"n=2":                []byte("x"),
		"n=2-separator":      []byte(sep),
		"no-separator":       bytes.Repeat([]byte("the quick brown fox "), 300),
		"only-separators":    bytes.Repeat([]byte(sep), 3000),
		"consecutive":        mixed,
		"separator-first":    append([]byte(sep), bytes.Repeat([]byte("abcab"), 400)...),
		"separator-last":     append(bytes.Repeat([]byte("abcab"), 400), Separator),
		"separator-ends":     []byte(sep + "banana" + sep),
		"all-equal":          bytes.Repeat([]byte{'z'}, 4097),
		"corpus":             corpus,
		"one-byte-values":    bytes.Repeat([]byte("a"+sep+"b"+sep+"a"+sep), 700),
		"one-byte-separated": bytes.Repeat([]byte(sep+"q"), 1500),
	}
	for n := 3; n < 3*headEvery+3; n++ {
		body := make([]byte, n-1)
		for i := range body {
			body[i] = byte(1 + rng.Intn(4))
		}
		if !checkInvert(t, "random", bwtOf(append(body, Sentinel))) {
			t.Fatalf("random text of %d bytes did not invert", n)
		}
	}
	for label, body := range cases {
		text := append(append([]byte(nil), body...), Sentinel)
		bwt := bwtOf(text)
		if !checkInvert(t, label, bwt) {
			t.Fatalf("%s: the BWT of a text is not one cycle", label)
		}
		if len(bwt) > 600 {
			continue
		}
		for i := 0; i+1 < len(bwt); i++ {
			if bwt[i] == bwt[i+1] {
				continue
			}
			bad := append([]byte(nil), bwt...)
			bad[i], bad[i+1] = bad[i+1], bad[i]
			if checkInvert(t, label+"-swapped", bad) {
				t.Fatalf("%s: swapping rows %d and %d left LF one cycle", label, i, i+1)
			}
		}
	}
}

// FuzzBWTInvert fuzzes the segment walks against the serial chase on
// three kinds of input: the BWT of an arbitrary text (mode 0), that
// BWT with two adjacent rows swapped (mode 1), and arbitrary bytes
// with the sentinel appended (otherwise), which are rarely one cycle.
func FuzzBWTInvert(f *testing.F) {
	f.Add([]byte("banana"), uint8(0), uint16(0))
	f.Add([]byte("mississippi"), uint8(1), uint16(3))
	f.Add([]byte{1, 1, 2, 1}, uint8(1), uint16(1))
	f.Add([]byte("ba"), uint8(2), uint16(0))
	f.Add([]byte{}, uint8(0), uint16(0))
	f.Fuzz(func(t *testing.T, data []byte, mode uint8, at uint16) {
		if len(data) > 1<<16 {
			data = data[:1<<16]
		}
		var bwt []byte
		switch mode {
		case 0, 1:
			bwt = bwtOf(sentinelize(data))
			if i := int(at) % len(bwt); mode == 1 && i+1 < len(bwt) {
				bwt[i], bwt[i+1] = bwt[i+1], bwt[i]
			}
		default:
			bwt = append(append([]byte(nil), data...), Sentinel)
		}
		checkInvert(t, "fuzz", bwt)
	})
}

// BenchmarkBWTInvert inverts the BWT of one wall-clock benchmark FM
// source (3.4 MB), the segment walks beside the serial chase they
// replaced. The ratio is a property of the host.
func BenchmarkBWTInvert(b *testing.B) {
	text, _, _ := benchInput(7, benchDocs)
	bwt := bwtOf(append(text, Sentinel))
	dst := make([]byte, len(bwt))
	lf := make([]int32, len(bwt))
	b.Run("segments", func(b *testing.B) {
		b.SetBytes(int64(len(bwt)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := invertBWT(dst, bwt, lf); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("serial", func(b *testing.B) {
		b.SetBytes(int64(len(bwt)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			referenceInvertBWT(dst, bwt, lf)
		}
	})
}
