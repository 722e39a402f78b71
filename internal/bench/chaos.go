package bench

import (
	"context"
	"fmt"
	"time"

	"rottnest/internal/component"
	"rottnest/internal/core"
	"rottnest/internal/objectstore"
)

// ChaosResult reports what a fault storm costs the search path when
// the retry layer absorbs it: per-query virtual latency clean vs
// stormy, and the recovery work performed.
type ChaosResult struct {
	Queries int `json:"queries"`
	// CleanLatency and StormLatency are mean virtual latencies per
	// query without and with faults+retries.
	CleanLatency time.Duration `json:"clean_latency_ns"`
	StormLatency time.Duration `json:"storm_latency_ns"`
	// Overhead is StormLatency/CleanLatency.
	Overhead float64 `json:"overhead"`
	// Retry-layer work across the whole deployment (ingest, indexing,
	// and the measured queries).
	Retries           int64 `json:"retries"`
	ThrottleWaits     int64 `json:"throttle_waits"`
	AmbiguousResolved int64 `json:"ambiguous_resolved"`
	// Injected fault counts by kind.
	Faults objectstore.FaultCounts `json:"faults"`
}

// Chaos measures the retry layer's latency overhead under a seeded
// fault storm: the same UUID deployment and query set run clean and
// over a stack of faults under retries; every query must still succeed.
// The differential harness (internal/harness) proves the answers stay
// byte-for-byte correct; this experiment prices the recovery.
func Chaos(o Options) (*ChaosResult, error) {
	ctx := context.Background()
	out := o.out()
	batches, rows := o.scaleInt(6, 3), o.scaleInt(1500, 500)
	nq := o.scaleInt(40, 12)

	clean, err := newUUIDWorld(o.Seed, batches, rows, core.Config{})
	if err != nil {
		return nil, err
	}
	if _, err := clean.indexAndCompact(ctx, "id", component.KindTrie); err != nil {
		return nil, err
	}
	queries := clean.queries(nq)
	clean.traced(o.Trace, "chaos.clean")
	cleanLat, err := clean.searchLatency(ctx, queries)
	if err != nil {
		return nil, err
	}

	profile := objectstore.FaultProfile{
		Seed:          o.Seed,
		Transient:     0.05,
		Throttle:      0.02,
		ThrottleBurst: 2,
		Latency:       0.03,
		SpikeLatency:  200 * time.Millisecond,
		Deadline:      0.01,
		AmbiguousPut:  0.10,
	}
	// Faults under retries under the S3 meter, all from one
	// objectstore.NewStack: ingest, indexing and the client's searches
	// all read through the retries, and the cache is off (the storm must
	// pay for every read).
	model := objectstore.DefaultS3Model()
	w, err := newWorldOn(objectstore.StackOptions{
		Faults:  &profile,
		Retry:   &objectstore.RetryPolicy{MaxAttempts: 8, Seed: o.Seed},
		Latency: &model,
	}, uuidSchema, core.Config{})
	if err != nil {
		return nil, err
	}
	storm, err := w.appendUUIDs(o.Seed, batches, rows)
	if err != nil {
		return nil, err
	}
	if _, err := storm.indexAndCompact(ctx, "id", component.KindTrie); err != nil {
		return nil, err
	}
	storm.traced(o.Trace, "chaos.storm")
	stormLat, err := storm.searchLatency(ctx, storm.queries(nq))
	if err != nil {
		return nil, err
	}

	recovery := storm.store.MetricsSnapshot()
	res := &ChaosResult{
		Queries:           nq,
		CleanLatency:      cleanLat,
		StormLatency:      stormLat,
		Retries:           recovery.Counter("retry.retries"),
		ThrottleWaits:     recovery.Counter("retry.throttle_waits"),
		AmbiguousResolved: recovery.Counter("retry.ambiguous_resolved"),
		Faults:            storm.store.Fault.Counts(),
	}
	if cleanLat > 0 {
		res.Overhead = float64(stormLat) / float64(cleanLat)
	}

	fmt.Fprintf(out, "Search under fault storm (retries on, seed %d)\n", o.Seed)
	fmt.Fprintf(out, "%-8s %12s %12s %9s %8s %10s %10s %12s\n",
		"queries", "clean_lat", "storm_lat", "overhead", "retries", "throttles", "ambiguous", "faults_total")
	fmt.Fprintf(out, "%-8d %12v %12v %8.2fx %8d %10d %10d %12d\n",
		res.Queries, res.CleanLatency.Round(time.Microsecond), res.StormLatency.Round(time.Microsecond),
		res.Overhead, res.Retries, res.ThrottleWaits, res.AmbiguousResolved, res.Faults.Total())
	return res, nil
}
