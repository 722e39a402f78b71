package parallel

import (
	"sync/atomic"
	"testing"
)

// TestForWorkersPartition checks every element of [0, n) is visited
// exactly once, for every (workers, n) shape the builders use —
// including workers > n, n == 0, and the serial fallback.
func TestForWorkersPartition(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 3, 7, 64} {
		for _, n := range []int{0, 1, 2, 5, 63, 64, 65, 1000} {
			visits := make([]int32, n)
			ForWorkers(workers, n, func(lo, hi int) {
				if lo < 0 || hi > n || lo > hi {
					t.Errorf("workers=%d n=%d: bad range [%d,%d)", workers, n, lo, hi)
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&visits[i], 1)
				}
			})
			for i, v := range visits {
				if v != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, v)
				}
			}
		}
	}
}

// TestForEachVisitsAll checks the per-item wrapper covers the range
// exactly once.
func TestForEachVisitsAll(t *testing.T) {
	const n = 257
	visits := make([]int32, n)
	ForEach(n, func(i int) { atomic.AddInt32(&visits[i], 1) })
	for i, v := range visits {
		if v != 1 {
			t.Fatalf("index %d visited %d times", i, v)
		}
	}
}

// TestDoRunsAll checks Do waits for every function, including the
// single-function inline path.
func TestForWorkersDeterministicSlots(t *testing.T) {
	const n = 100
	want := make([]int, n)
	ForWorkers(1, n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			want[i] = i * i
		}
	})
	for _, workers := range []int{2, 3, 8} {
		got := make([]int, n)
		ForWorkers(workers, n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				got[i] = i * i
			}
		})
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: slot %d = %d, want %d", workers, i, got[i], want[i])
			}
		}
	}
}
