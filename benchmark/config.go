package main

import (
	"context"
	"fmt"
	"time"

	"rottnest/internal/obs"
)

// sizes fixes how much each workload does. The full sizes are what
// BENCHMARK.json runs; the smoke test shrinks them.
type sizes struct {
	// sleepScale multiplies the modelled store latencies.
	sleepScale float64

	// Search worlds: files × rows, one index file per kind.
	searchFiles, searchRows int
	coldClients, coldWarmup int
	hotClients, hotUniverse int
	hotWarmup               int
	zipfS                   float64

	// build_compact: rounds of (append files; index each kind), then
	// compact each kind and vacuum, then verifyPerClass cold queries
	// of each class.
	buildRounds, buildFilesPerRound int
	buildRows, verifyPerClass       int

	// ingest_live: open-loop producer and querier beside the
	// maintenance scheduler, caches smaller than the working set.
	batchRows                     int
	batchesPerSec, queriesPerSec  float64
	drainMax, pollEvery           time.Duration
	cacheBytes, decodedCacheBytes int64
	finalKeys                     int
}

func fullSizes() sizes {
	return sizes{
		sleepScale:  1,
		searchFiles: 6, searchRows: 4000,
		coldClients: 4, coldWarmup: 4,
		hotClients: 1, hotUniverse: 64, hotWarmup: 500, zipfS: 1.2,
		buildRounds: 3, buildFilesPerRound: 2, buildRows: 3000, verifyPerClass: 8,
		batchRows: 256, batchesPerSec: 2, queriesPerSec: 24,
		drainMax: 30 * time.Second, pollEvery: 100 * time.Millisecond,
		cacheBytes: 2 << 20, decodedCacheBytes: 1 << 20,
		finalKeys: 256,
	}
}

// runConfig is one invocation.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	outDir   string
	sz       sizes
}

func (c runConfig) tmpRoot() string { return c.outDir + "/tmp" }

// window is the length of the measured window.
func (c runConfig) window() time.Duration {
	return time.Duration(c.seconds * float64(time.Second))
}

// runResult is what one run reports.
type runResult struct {
	attempted, failed int
	failures          []string
	// invalid lists validity conditions the run broke; any makes the
	// run incorrect.
	invalid []string
	e2e     map[string]float64
	layer   map[string]float64
}

func newRunResult() *runResult {
	return &runResult{e2e: make(map[string]float64), layer: make(map[string]float64)}
}

// addWindow counts a verified query window into the result.
func (r *runResult) addWindow(w *window) {
	r.attempted += len(w.samples)
	r.failed += w.failed
	r.failures = append(r.failures, w.failures...)
	if m := mean(w.recall); m < minRecallMean {
		r.invalid = append(r.invalid, fmt.Sprintf("mean vector recall@10 %.3f is below %.1f", m, minRecallMean))
	}
}

// loadStats is what loading and indexing a world measured.
type loadStats struct {
	acks, lags []float64 // ms
	// bt is the wall time inside the world's own maintenance calls;
	// build_mb_per_s is buildBytes over buildWall.
	bt         *buildTimes
	buildWall  time.Duration
	buildBytes int64
	// requests is how many store requests the load and its index
	// builds issued.
	requests int64
	// writer is the ingest writer's own counters after the load.
	writer obs.Snapshot
}

// finish fills the end-to-end metrics every workload reports from its
// query window and its world's load and, in a traced run, the
// per-layer metrics. getsPerQuery is passed in because its base
// differs: a hot client is charged the GETs that warmed it.
func finish(ctx context.Context, cfg runConfig, res *runResult, in traceInput, getsPerQuery float64) error {
	in.win.queryMetrics(res.e2e, getsPerQuery)
	rawMB := float64(in.w.rawBytes()) / 1e6
	res.e2e["build_mb_per_s"] = float64(in.ls.buildBytes) / 1e6 / in.ls.buildWall.Seconds()
	indexBytes, dataBytes, _, err := in.w.sizes(ctx)
	if err != nil {
		return err
	}
	res.e2e["index_bytes_per_data_byte"] = float64(indexBytes) / float64(dataBytes)
	res.e2e["store_requests_per_mb"] = float64(in.ls.requests) / rawMB
	res.e2e["ack_p50_ms"] = midmean(in.ls.acks)
	res.e2e["searchable_lag_p50_ms"] = midmean(in.ls.lags)
	res.e2e["peak_rss_mb"] = peakRSSMB()
	if cfg.trace {
		return traceLayers(ctx, cfg, res, in)
	}
	return nil
}
