package fmindex

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"rottnest/internal/component"
)

// TestParallelEncodeScales pins the half of the parallel encode that
// is a fact: whatever the worker count, appendIndexComponents emits
// the same bytes. How much faster the pool makes it is logged, not
// asserted — it is a property of the host (BenchmarkFMBuild).
func TestParallelEncodeScales(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	text, starts, refs := benchInput(13, 1600)
	full := append(text, Sentinel)
	sa := buildSuffixArray(full)
	opts := BuildOptions{BlockSize: 32 << 10, PageMapBlock: 16 << 10}

	run := func(workers int) ([]byte, time.Duration) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
		b := component.NewBuilder(component.KindFM)
		start := time.Now()
		appendIndexComponents(b, full, sa, starts, refs, opts)
		d := time.Since(start)
		data, err := b.Finish()
		if err != nil {
			t.Fatal(err)
		}
		return data, d
	}

	serialBytes, serial := run(1)
	for _, workers := range []int{2, 3, runtime.NumCPU()} {
		parallelBytes, par := run(workers)
		t.Logf("encode %d bytes: 1 worker %v, %d workers %v", len(full), serial, workers, par)
		if !bytes.Equal(serialBytes, parallelBytes) {
			t.Fatalf("%d workers changed the encoded bytes", workers)
		}
	}
}
