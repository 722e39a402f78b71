package bench

import (
	"context"
	"fmt"
	"time"

	"rottnest/internal/component"
	"rottnest/internal/core"
	"rottnest/internal/ivfpq"
	"rottnest/internal/objectstore"
	"rottnest/internal/simtime"
	"rottnest/internal/workload"
)

// CustomFormatResult compares Rottnest's in-situ Parquet refinement
// against an idealized custom columnar format (Section VII-C's
// LanceDB-cold-cache comparison).
type CustomFormatResult struct {
	// Per recall target: Rottnest latency vs custom-format latency.
	Targets  []float64
	Rottnest []time.Duration
	Custom   []time.Duration
}

// CustomFormatComparison reproduces the VII-C experiment: Rottnest
// queries Parquet pages (~hundreds of KB, decompressed per read); a
// custom format fetches exactly the candidate vectors' bytes
// (0.1-4 KB, no decompression). Because both read sizes sit in the
// flat, latency-bound region of the object-store curve, the custom
// format's advantage is marginal — the paper reports 2.09s vs 1.90s
// at recall 0.87 and similar at higher targets.
func CustomFormatComparison(opts Options) (*CustomFormatResult, error) {
	ctx := context.Background()
	out := opts.out()
	dim := 32
	n := opts.scaleInt(60000, 15000)
	vw, err := newVectorWorld(opts.Seed+4, n, dim, opts.scaleInt(20, 8))
	if err != nil {
		return nil, err
	}
	if _, err := vw.indexAndCompact(ctx, "emb", component.KindIVFPQ); err != nil {
		return nil, err
	}

	// The idealized custom format: one object holding the raw
	// vectors back to back, so candidate i is exactly bytes
	// [4*dim*i, 4*dim*(i+1)) — fetchable without decompression. The
	// same IVF-PQ index drives candidate generation.
	packed := make([]byte, 0, 4*dim*n)
	for _, v := range vw.vecs {
		packed = append(packed, workload.Float32sToBytes(v)...)
	}
	if err := vw.store.Put(ctx, "custom/vectors.bin", packed); err != nil {
		return nil, err
	}
	entries, err := vw.client.Meta().ListFor(ctx, "emb", component.KindIVFPQ)
	if err != nil {
		return nil, err
	}
	indexKey := entries[0].IndexKey

	// customSearch models a cold query against the custom-format
	// table: like LanceDB cold-cache mode it still resolves the
	// table version (manifest read) and opens the index from object
	// storage on every query, then probes and fetches exactly the
	// candidate rows' bytes.
	customSearch := func(ctx context.Context, q []float32, nprobe, refine, k int) error {
		// Resolve the table version and open the index concurrently,
		// mirroring the parallel planning of the Rottnest search path.
		var reader *component.Reader
		err := simtime.Fan(ctx, 2, 0, func(ctx context.Context, i int) (err error) {
			if i == 0 {
				_, err = vw.table.Snapshot(ctx)
			} else {
				reader, err = component.Open(ctx, vw.store, indexKey, component.OpenOptions{})
			}
			return err
		})
		if err != nil {
			return err
		}
		ivf, err := ivfpq.Open(ctx, reader)
		if err != nil {
			return err
		}
		cands, err := ivf.Search(ctx, q, nprobe, refine)
		if err != nil {
			return err
		}
		reqs := make([]objectstore.RangeRequest, len(cands))
		for i, c := range cands {
			reqs[i] = objectstore.RangeRequest{
				Key: "custom/vectors.bin", Offset: c.Ref.Row * int64(4*dim), Length: int64(4 * dim),
			}
		}
		raws, err := objectstore.FanGet(ctx, vw.store, reqs)
		if err != nil {
			return err
		}
		full := make([][]float32, len(cands))
		for i, raw := range raws {
			full[i] = workload.BytesToFloat32s(raw)
		}
		ivfpq.ExactRerank(q, cands, full, k)
		return nil
	}

	res := &CustomFormatResult{Targets: []float64{0.87, 0.92, 0.97}}
	settings := []struct{ nprobe, refine int }{{4, 60}, {8, 120}, {24, 320}}
	fmt.Fprintln(out, "# VII-C: Rottnest in-situ Parquet vs ideal custom format (cold)")
	fmt.Fprintf(out, "%-8s %-14s %-14s\n", "recall", "rottnest", "custom")
	for i, target := range res.Targets {
		s := settings[i]
		// Rottnest path: full search through the client.
		var rot time.Duration
		for _, q := range vw.queryVs {
			session := simtime.NewSession()
			if _, err := vw.client.Search(simtime.With(ctx, session), core.Query{
				Column: "emb", Vector: q, K: 10, NProbe: s.nprobe, Refine: s.refine, Snapshot: -1,
			}); err != nil {
				return nil, err
			}
			rot += session.Elapsed()
		}
		rot /= time.Duration(len(vw.queryVs))
		// Custom path: same probe, row-exact refinement fetches.
		var cus time.Duration
		for _, q := range vw.queryVs {
			session := simtime.NewSession()
			if err := customSearch(simtime.With(ctx, session), q, s.nprobe, s.refine, 10); err != nil {
				return nil, err
			}
			cus += session.Elapsed()
		}
		cus /= time.Duration(len(vw.queryVs))
		res.Rottnest = append(res.Rottnest, rot)
		res.Custom = append(res.Custom, cus)
		fmt.Fprintf(out, "%-8.2f %-14s %-14s\n", target,
			rot.Round(time.Millisecond), cus.Round(time.Millisecond))
	}
	return res, nil
}
