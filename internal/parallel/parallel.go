// Package parallel provides the shared CPU worker-pool primitives used
// by the index build pipelines (fmindex, trie, ivfpq) and the
// component compressor.
//
// The index builds are Rottnest's last CPU-bound hot path: the lazy
// protocol of Section IV only pays off if Index() is cheap, because
// the TCO phase diagram (Section VII) charges every refresh against
// the query savings. All helpers here preserve determinism — work is
// partitioned by index, never by arrival order, and no helper reorders
// results — so parallel builds emit byte-identical index files to
// serial ones.
package parallel

import (
	"runtime"
	"sync"
)

// For runs fn over contiguous chunks partitioning [0, n), on up to
// GOMAXPROCS goroutines. fn must be safe to call concurrently on
// disjoint ranges. Chunks are assigned statically (worker w gets one
// contiguous range), so per-index outputs land exactly where a serial
// loop would put them.
func For(n int, fn func(lo, hi int)) {
	ForWorkers(runtime.GOMAXPROCS(0), n, fn)
}

// ForWorkers is For with an explicit worker bound; workers <= 1 runs
// fn(0, n) inline on the calling goroutine.
func ForWorkers(workers, n int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		fn(0, n)
		return
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// ForEach runs fn(i) for every i in [0, n) across up to GOMAXPROCS
// goroutines. Use For when the per-item work is tiny; ForEach saves
// the inner loop when each item is substantial (a block to compress, a
// bucket to sort).
func ForEach(n int, fn func(i int)) {
	For(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(i)
		}
	})
}
