// Package shard implements the scatter-gather serving tier: a table's
// snapshot is partitioned into N contiguous file ranges, each served
// by M replica workers (a core.Client with its own warm caches over a
// shard-budgeted store stack), and a Router that scatters every query
// to all shards in parallel, hedges slow replicas, merges the
// per-shard results, and admits tenants through token-bucket rate
// limits at the front door.
//
// Correctness rides on the core protocol, not on the router: each
// worker runs the full lazy in-situ search restricted to its file
// range (core.Query.FileRange), and because the partitioner's ranges
// are disjoint and cover the snapshot, the union of per-shard exact
// results equals the unrestricted single-node search byte for byte.
// The differential harness (internal/harness ModeSharded) checks
// exactly that, under faults and concurrent maintenance.
package shard

import (
	"errors"
	"time"

	"rottnest/internal/objectstore"
	"rottnest/internal/simtime"
)

// ErrRateLimited is returned (wrapped, with the tenant name) when the
// admission controller's token bucket for the query's tenant is empty.
var ErrRateLimited = errors.New("shard: tenant rate limit exceeded")

// HedgeOptions tunes hedged replica requests. A hedge fires when the
// primary replica's virtual latency exceeds the configured percentile
// of the shard's recent latencies: the router then runs the next
// replica and charges the shard min(primary, deadline+hedge) — the
// loser's context is cancelled.
type HedgeOptions struct {
	// Enabled turns hedging on (needs Replicas > 1 to have effect).
	Enabled bool
	// Percentile of the shard's sliding latency window used as the
	// hedge deadline (0 < p < 1; default 0.9).
	Percentile float64
	// MinDelay floors the deadline so cheap cache-hit queries never
	// hedge. Default 1ms.
	MinDelay time.Duration
	// Window is the sliding latency window length. Default 64.
	Window int
}

func (h HedgeOptions) withDefaults() HedgeOptions {
	if h.Percentile <= 0 || h.Percentile >= 1 {
		h.Percentile = 0.9
	}
	if h.MinDelay <= 0 {
		h.MinDelay = time.Millisecond
	}
	if h.Window <= 0 {
		h.Window = 64
	}
	return h
}

// AdmissionOptions tunes the front-door per-tenant token buckets.
type AdmissionOptions struct {
	// Enabled turns admission control on.
	Enabled bool
	// Rate is the sustained queries/sec each tenant may issue.
	Rate float64
	// Burst is the bucket capacity (instantaneous burst). Default
	// max(Rate, 1).
	Burst float64
}

// Options configures a Router.
type Options struct {
	// Shards is the number of contiguous file-range partitions
	// (default 1).
	Shards int
	// Replicas is the number of workers per shard (default 1). All
	// replicas serve the same file range; hedging picks among them.
	Replicas int
	// IndexDir is the key prefix holding index files and the
	// metadata table, exactly as core.Config.IndexDir.
	IndexDir string
	// Clock is the world clock (nil = real wall clock).
	Clock simtime.Clock
	// Timeout is the per-worker index timeout (core.Config.Timeout).
	Timeout time.Duration
	// SearchWidth caps each worker's request fan-out
	// (core.Config.SearchWidth).
	SearchWidth int

	// CacheBytes is the total byte-cache budget split evenly across
	// all Shards×Replicas workers (each worker gets its own
	// objectstore.NewStack cache layer). 0 means
	// objectstore.DefaultCacheBytes total; negative disables the
	// per-worker byte caches entirely.
	CacheBytes int64
	// DecodedCacheBytes is the total decoded-object cache budget
	// split across workers (0 = default total; negative disables).
	DecodedCacheBytes int64
	// PlanCacheTTLVersions and ProbeBatchBytes are passed through to
	// every worker's core.Config unchanged.
	PlanCacheTTLVersions int
	ProbeBatchBytes      int64

	// Hedge tunes hedged replica requests.
	Hedge HedgeOptions
	// Admission tunes per-tenant rate limits.
	Admission AdmissionOptions

	// ReplicaWrap, when non-nil, wraps each worker's store before the
	// worker's cache stack is layered on — the test and bench hook
	// for per-replica fault or latency injection. To keep the shared
	// store's layers (its meter, its retries), return an
	// objectstore.NewStack over it.
	ReplicaWrap func(shard, replica int, s objectstore.Store) objectstore.Store
}

func (o Options) withDefaults() Options {
	if o.Shards <= 0 {
		o.Shards = 1
	}
	if o.Replicas <= 0 {
		o.Replicas = 1
	}
	o.Hedge = o.Hedge.withDefaults()
	return o
}

// splitBudget divides a total cache budget across n workers using the
// 0=default / negative=disabled convention.
func splitBudget(total, def int64, n int) int64 {
	if total < 0 {
		return -1
	}
	if total == 0 {
		total = def
	}
	per := total / int64(n)
	if per < 1 {
		per = 1
	}
	return per
}
