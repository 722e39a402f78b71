package shard

import (
	"math"
	"sync"
	"time"

	"rottnest/internal/obs"
)

// minHedgeDelay floors the hedge deadline so cheap cache-hit queries
// never hedge.
const minHedgeDelay = time.Millisecond

// hedger tracks one shard's recent primary-attempt latencies and
// derives the hedge deadline: the configured percentile of the
// sliding window, floored at minHedgeDelay. With an empty window the
// deadline is effectively infinite, so the first query on a cold
// shard never hedges.
type hedger struct {
	opts HedgeOptions

	mu     sync.Mutex
	window []time.Duration // ring buffer
	next   int
	filled bool
}

func newHedger(opts HedgeOptions) *hedger {
	return &hedger{opts: opts, window: make([]time.Duration, 0, opts.Window)}
}

// observe records a primary attempt's duration.
func (h *hedger) observe(d time.Duration) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.window) < h.opts.Window {
		h.window = append(h.window, d)
		return
	}
	h.window[h.next] = d
	h.next = (h.next + 1) % h.opts.Window
	h.filled = true
}

// deadline returns the current hedge deadline: the window's
// nearest-rank percentile (obs.Quantile), floored at minHedgeDelay.
func (h *hedger) deadline() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.window) == 0 {
		return math.MaxInt64
	}
	return max(obs.Quantile(h.window, h.opts.Percentile), minHedgeDelay)
}
