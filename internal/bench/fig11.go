package bench

import (
	"context"
	"fmt"
	"math"
	"time"

	"rottnest/internal/component"
	"rottnest/internal/objectstore"
	"rottnest/internal/parquet"
	"rottnest/internal/simtime"
	"rottnest/internal/tco"
)

// Fig11Result holds the in-situ ablation of Figure 11.
type Fig11Result struct {
	// Baseline is the real Rottnest design (in-situ + optimized
	// reader).
	Baseline AppMeasurement
	// WithCopy stores a copy of the data inside the index
	// (cpm_r grows by the raw size).
	WithCopy tco.Params
	// UnoptimizedReader probes with whole-column-chunk reads instead
	// of page reads (cpq_r grows with chunk transfer time).
	UnoptimizedReader tco.Params
	// UnoptimizedQuerySeconds is the measured degraded latency.
	UnoptimizedQuerySeconds float64
	// Windows at 10 months for each variant.
	BaselineLo, BaselineHi float64
	CopyLo, CopyHi         float64
	UnoptLo, UnoptHi       float64
}

// Fig11InSitu reproduces Figure 11: what happens to the UUID phase
// diagram if Rottnest (a) keeps a copy of the data in its index —
// storage cost multiplies and the brute-force boundary closes in —
// or (b) probes with an unoptimized reader that fetches whole column
// chunks — query cost balloons and the copy-data boundary closes in.
func Fig11InSitu(opts Options) (*Fig11Result, error) {
	ctx := context.Background()
	out := opts.out()

	uw, err := newUUIDWorld(opts.Seed+5, opts.scaleInt(24, 8), opts.scaleInt(50000, 20000))
	if err != nil {
		return nil, err
	}
	buildTime, err := uw.indexAndCompact(ctx, "id", component.KindTrie)
	if err != nil {
		return nil, err
	}
	raw, err := uw.rawBytes(ctx)
	if err != nil {
		return nil, err
	}
	index, err := uw.indexBytes(ctx)
	if err != nil {
		return nil, err
	}
	uw.traced(opts.Trace, "fig11.insitu")
	lat, err := uw.searchLatency(ctx, uw.queries(opts.scaleInt(10, 4)))
	if err != nil {
		return nil, err
	}
	base := derive("uuid", raw, index, buildTime, lat, PaperUUIDBytes)

	// Variant (a): the index carries a copy of the raw data.
	withCopy := base.Params
	withCopy.CPMRottnest += base.Params.CPMBruteForce // + one more copy of the data

	// Variant (b): measure probing via whole-chunk reads. Run the
	// index probe as usual, but charge the in-situ step as a full
	// column-chunk transfer per touched file (what a stock Parquet
	// reader would do), using the real chunk extents.
	snap, err := uw.table.Snapshot(ctx)
	if err != nil {
		return nil, err
	}
	var unoptLat time.Duration
	queries := uw.queries(opts.scaleInt(10, 4))
	for _, q := range queries {
		session := simtime.NewSession()
		sctx := simtime.With(ctx, session)
		res, err := uw.client.Search(sctx, q)
		if err != nil {
			return nil, err
		}
		// Replace each probed page read with a chunk read: charge
		// the extra transfer of (chunk - page) for each match file.
		for _, m := range res.Matches {
			f, ok := snap.File(m.Path)
			if !ok {
				continue
			}
			meta, err := parquet.ReadFileMeta(sctx, uw.store, uw.table.Root()+f.Path)
			if err != nil {
				return nil, err
			}
			for _, chunk := range parquet.ChunkForColumn(meta, 0) {
				if _, err := uw.store.GetRange(sctx, uw.table.Root()+f.Path, chunk.Offset, chunk.Size); err != nil {
					return nil, err
				}
			}
		}
		unoptLat += session.Elapsed()
	}
	unoptLat /= time.Duration(len(queries))
	// At paper scale the chunk is ~100MB, not our laptop-scale chunk:
	// charge the throughput-bound transfer of a 100 MB chunk on top.
	paperChunk := objectChunkLatency(100 << 20)
	unopt := base.Params
	unopt.CPQRottnest = (unoptLat + paperChunk).Seconds() * tco.DefaultPricing().WorkerPerHour / 3600

	res := &Fig11Result{Baseline: base, WithCopy: withCopy, UnoptimizedReader: unopt,
		UnoptimizedQuerySeconds: (unoptLat + paperChunk).Seconds()}

	fmt.Fprintln(out, "# Fig 11: in-situ querying ablation (uuid search)")
	for _, v := range []struct {
		name string
		p    tco.Params
		lo   *float64
		hi   *float64
	}{
		{"rottnest (in-situ, optimized reader)", base.Params, &res.BaselineLo, &res.BaselineHi},
		{"with data copy in index", withCopy, &res.CopyLo, &res.CopyHi},
		{"with unoptimized chunk reader", unopt, &res.UnoptLo, &res.UnoptHi},
	} {
		lo, hi, ok := v.p.RottnestWindow(10)
		if !ok {
			fmt.Fprintf(out, "%-40s never wins at 10 months\n", v.name)
			continue
		}
		*v.lo, *v.hi = lo, hi
		fmt.Fprintf(out, "%-40s cpm_r=%.2f cpq_r=%.5f window %.1e..%.1e (%.1f OoM)\n",
			v.name, v.p.CPMRottnest, v.p.CPQRottnest, lo, hi, math.Log10(hi/lo))
	}
	return res, nil
}

// objectChunkLatency is the modelled transfer time of one large
// sequential read, matching the instrumented store's latency model.
func objectChunkLatency(size int64) time.Duration {
	return objectstore.DefaultS3Model().GetLatency(size)
}
