package bench

import (
	"context"
	"fmt"

	"rottnest/internal/component"
	"rottnest/internal/core"
	"rottnest/internal/objcache"
	"rottnest/internal/objectstore"
	"rottnest/internal/obs"
	"rottnest/internal/simtime"
)

// ServeWorkloadResult reports one workload's cold-versus-warm serving
// comparison in requests: N clients replay a Zipf-distributed query
// stream three times, on deployments with every cache off (the
// paper's read path), with the byte cache only, and with every cache
// (byte + decoded-object + plan), the cached ones primed by one pass
// over the query universe.
type ServeWorkloadResult struct {
	Workload string `json:"workload"`
	Clients  int    `json:"clients"`
	// Queries is the total measured stream length across clients;
	// Universe is the number of distinct queries it draws from.
	Queries  int `json:"queries"`
	Universe int `json:"universe"`
	// GETs issued per query over each measured pass.
	ColdGETsPerQuery float64 `json:"cold_gets_per_query"`
	ByteGETsPerQuery float64 `json:"byte_gets_per_query"`
	WarmGETsPerQuery float64 `json:"warm_gets_per_query"`
	// Byte-cache activity over the byte-cache-only pass.
	ByteHits   int64 `json:"byte_hits"`
	ByteMisses int64 `json:"byte_misses"`
	// Decoded-cache and plan-cache activity over the all-caches pass.
	DecodedHits   int64 `json:"decoded_hits"`
	DecodedMisses int64 `json:"decoded_misses"`
	PlanHits      int64 `json:"plan_hits"`
}

// ServeResult aggregates the serving experiment across workloads.
type ServeResult struct {
	Workloads []ServeWorkloadResult `json:"workloads"`
}

// serveWorkload runs one workload's three serving passes. build
// constructs the deployment under the given config and returns the
// distinct query universe.
func serveWorkload(ctx context.Context, name string, o Options, clients, perClient int, build func(cfg core.Config) (*world, []core.Query, error)) (ServeWorkloadResult, error) {
	r := ServeWorkloadResult{Workload: name, Clients: clients, Queries: clients * perClient}
	// pass measures one deployment: optionally primed by one
	// single-threaded pass over the universe, then the Zipf stream. It
	// returns GETs per query and the client's metric delta over the
	// stream.
	pass := func(cfg core.Config, prime bool) (float64, obs.Snapshot, error) {
		w, universe, err := build(cfg)
		if err != nil {
			return 0, obs.Snapshot{}, err
		}
		r.Universe = len(universe)
		if prime {
			for _, q := range universe {
				if _, err := w.client.Search(simtime.With(ctx, simtime.NewSession()), q); err != nil {
					return 0, obs.Snapshot{}, err
				}
			}
		}
		before, primed := w.store.Metrics.Snapshot(), w.client.Metrics()
		err = zipfStream(ctx, clients, perClient, len(universe), o.Seed, func(ctx context.Context, _, q int) error {
			_, err := w.client.Search(ctx, universe[q])
			return err
		})
		gets := w.store.Metrics.Snapshot().Sub(before).Gets
		return float64(gets) / float64(r.Queries), w.client.Metrics().Sub(primed), err
	}

	var err error
	if r.ColdGETsPerQuery, _, err = pass(core.Config{CacheBytes: -1, DecodedCacheBytes: -1, PlanCacheTTLVersions: -1}, false); err != nil {
		return r, err
	}
	var bytePass, warmPass obs.Snapshot
	if r.ByteGETsPerQuery, bytePass, err = pass(core.Config{CacheBytes: objectstore.DefaultCacheBytes}, true); err != nil {
		return r, err
	}
	if r.WarmGETsPerQuery, warmPass, err = pass(core.Config{
		CacheBytes:           objectstore.DefaultCacheBytes,
		DecodedCacheBytes:    objcache.DefaultMaxBytes,
		PlanCacheTTLVersions: 8,
	}, true); err != nil {
		return r, err
	}
	r.ByteHits = bytePass.Counter("cache.hits")
	r.ByteMisses = bytePass.Counter("cache.misses")
	r.DecodedHits = warmPass.Counter("objcache.hits")
	r.DecodedMisses = warmPass.Counter("objcache.misses")
	r.PlanHits = warmPass.Counter("search.plan_cache_hits")
	return r, nil
}

// Serve measures what the caches buy a concurrent serving workload,
// in requests: N clients replay a Zipf-distributed query mix against
// one shared deployment with every cache off (each query pays the
// planning LIST and refetches directories, manifests, headers and
// pages), with the byte cache alone, and with the version-keyed
// decoded-object and plan caches on top. Every measured query repeats
// the primed universe, so the all-caches pass should issue no GET at
// all: a repeat query is in-memory plan and decoded-object hits.
func Serve(o Options) (*ServeResult, error) {
	ctx := context.Background()
	out := o.out()
	res := &ServeResult{}

	clients := o.scaleInt(8, 4)
	perClient := o.scaleInt(64, 24)

	uuid, err := serveWorkload(ctx, "uuid", o, clients, perClient, func(cfg core.Config) (*world, []core.Query, error) {
		uw, err := newUUIDWorld(o.Seed, o.scaleInt(8, 3), o.scaleInt(2000, 600), cfg)
		if err != nil {
			return nil, nil, err
		}
		if _, err := uw.indexAndCompact(ctx, "id", component.KindTrie); err != nil {
			return nil, nil, err
		}
		return uw.world, uw.queries(o.scaleInt(48, 16)), nil
	})
	if err != nil {
		return nil, err
	}
	res.Workloads = append(res.Workloads, uuid)

	text, err := serveWorkload(ctx, "substring", o, clients, perClient, func(cfg core.Config) (*world, []core.Query, error) {
		tw, err := newTextWorld(o.Seed, o.scaleInt(6, 3), o.scaleInt(400, 150), cfg)
		if err != nil {
			return nil, nil, err
		}
		if _, err := tw.indexAndCompact(ctx, "body", component.KindFM); err != nil {
			return nil, nil, err
		}
		return tw.world, tw.queries(o.scaleInt(24, 9)), nil
	})
	if err != nil {
		return nil, err
	}
	res.Workloads = append(res.Workloads, text)

	vector, err := serveWorkload(ctx, "vector", o, clients, perClient, func(cfg core.Config) (*world, []core.Query, error) {
		vw, err := newVectorWorld(o.Seed, o.scaleInt(6000, 2000), 16, o.scaleInt(24, 8), cfg)
		if err != nil {
			return nil, nil, err
		}
		if _, err := vw.indexAndCompact(ctx, "emb", component.KindIVFPQ); err != nil {
			return nil, nil, err
		}
		qs := make([]core.Query, len(vw.queryVs))
		for i, qv := range vw.queryVs {
			qs[i] = core.Query{Column: "emb", Vector: qv, K: 10, NProbe: 4, Refine: 2, Snapshot: -1}
		}
		return vw.world, qs, nil
	})
	if err != nil {
		return nil, err
	}
	res.Workloads = append(res.Workloads, vector)

	fmt.Fprintf(out, "Serving path: %d concurrent clients, Zipf query mix; GETs/query with caches off / byte cache / all caches\n", clients)
	fmt.Fprintf(out, "%-10s %8s %8s %8s %8s %9s %9s %9s\n",
		"workload", "queries", "cold", "byte", "warm", "byte_hits", "dec_hits", "plan_hits")
	for _, w := range res.Workloads {
		fmt.Fprintf(out, "%-10s %8d %8.2f %8.2f %8.2f %9d %9d %9d\n",
			w.Workload, w.Queries, w.ColdGETsPerQuery, w.ByteGETsPerQuery, w.WarmGETsPerQuery,
			w.ByteHits, w.DecodedHits, w.PlanHits)
	}
	return res, nil
}
