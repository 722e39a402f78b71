package deflate

import (
	"bytes"
	"compress/flate"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

func inputs() [][]byte {
	rng := rand.New(rand.NewSource(1))
	noise := make([]byte, 70<<10)
	rng.Read(noise)
	return [][]byte{
		nil,
		[]byte("x"),
		[]byte(strings.Repeat("log line with filler text ", 4000)),
		noise,
	}
}

// TestPooledWriterEmitsFreshWriterBytes pins what file formats rely
// on: a Reset writer out of the pool writes the stream a new BestSpeed
// writer would, whatever it compressed before.
func TestPooledWriterEmitsFreshWriterBytes(t *testing.T) {
	for round := 0; round < 3; round++ {
		for i, in := range inputs() {
			var want bytes.Buffer
			w, err := flate.NewWriter(&want, flate.BestSpeed)
			if err != nil {
				t.Fatal(err)
			}
			w.Write(in)
			w.Close()
			got, err := Compress(in)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("round %d input %d: pooled writer's stream differs from a fresh writer's", round, i)
			}
			back, err := Decompress(got, int64(len(in)))
			if err != nil || !bytes.Equal(back, in) {
				t.Fatalf("round %d input %d: round trip = %d bytes, %v", round, i, len(back), err)
			}
			if cap(back) != len(in) {
				t.Fatalf("input %d: buffer of %d bytes for %d", i, cap(back), len(in))
			}
		}
	}
}

// TestDecompressHoldsTheStreamToItsDeclaredSize: the declared size is
// exact — short, long and broken streams are errors — and a reader
// that failed goes back to the pool usable.
func TestDecompressHoldsTheStreamToItsDeclaredSize(t *testing.T) {
	in := inputs()[2]
	stream, err := Compress(in)
	if err != nil {
		t.Fatal(err)
	}
	size := int64(len(in))
	cases := []struct {
		name   string
		stream []byte
		size   int64
		want   string
	}{
		{"short stream", stream, size + 1, "stream ends at"},
		{"bomb", stream, size - 1, "runs past declared size"},
		{"bomb from zero", stream, 0, "runs past declared size"},
		{"negative size", stream, -1, "declared size"},
		{"truncated", stream[:len(stream)/2], size, "stream ends at"},
		// All declared bytes arrive, then the stream breaks where its
		// end marker should be.
		{"error at the end", stream[:len(stream)-2], size, "inflate:"},
		{"garbage", []byte{0xff, 0xff, 0xff, 0xff}, 4, "inflate:"},
		// More than the stream could inflate to is refused unread; less
		// than that is read, in steps, until the stream ends.
		{"impossible declared size", stream, 1 << 40, "declared size"},
		{"huge declared size", stream, 1032 * int64(len(stream)), "stream ends at"},
	}
	for _, tc := range cases {
		if _, err := Decompress(tc.stream, tc.size); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one containing %q", tc.name, err, tc.want)
		}
		if back, err := Decompress(stream, size); err != nil || !bytes.Equal(back, in) {
			t.Fatalf("after %s: a good stream fails: %v", tc.name, err)
		}
	}
}

// TestConcurrentUse shares the pools across goroutines (run under
// -race).
func TestConcurrentUse(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				for _, in := range inputs()[:3] {
					stream, err := Compress(in)
					if err != nil {
						t.Error(err)
						return
					}
					if back, err := Decompress(stream, int64(len(in))); err != nil || !bytes.Equal(back, in) {
						t.Errorf("round trip of %d bytes: %v", len(in), err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
