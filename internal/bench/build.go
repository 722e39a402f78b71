package bench

import (
	"context"
	"fmt"
	"time"

	"rottnest/internal/component"
	"rottnest/internal/core"
	"rottnest/internal/objectstore"
	"rottnest/internal/parquet"
	"rottnest/internal/workload"
)

// MaintenanceDepth is the request shape of one maintenance call, as
// counts only: the GETs it issues and the dependent round trips it
// waits through — its virtual time on a store where every request
// costs one unit. Both are exact for a seed, so benchgate holds them
// to "may not grow".
type MaintenanceDepth struct {
	Call   string `json:"call"`
	Gets   int64  `json:"maint_gets"`
	Levels int64  `json:"maint_levels"`
}

// BuildResult is the maintenance-depth experiment, written to
// BENCH_build.json by `rottnest-bench build`. Build and merge speed
// are wall-clock quantities: `benchmark/`'s build_compact workload and
// the in-package Go benchmarks (`make bench-alloc`) measure them.
type BuildResult struct {
	Maintenance []MaintenanceDepth `json:"maintenance"`
}

// depthUnit is what every request costs on the depth world's store.
const depthUnit = time.Millisecond

// Maintenance measures one Index call and one FM Compact of three
// sources on a store whose every request costs depthUnit of virtual
// time and moves bytes for free, so a call's virtual latency over the
// unit is the number of round trips it could not overlap.
func Maintenance(opts Options) (*BuildResult, error) {
	ctx := context.Background()
	unit := objectstore.LatencyModel{GetTTFB: depthUnit, PutTTFB: depthUnit, ListTTFB: depthUnit}
	w, err := newWorldOn(objectstore.StackOptions{Latency: &unit}, textSchema, core.Config{})
	if err != nil {
		return nil, err
	}
	gen := workload.NewTextGen(workload.DefaultTextConfig(opts.Seed + 6))
	// Three batches, each indexed on its own: three sources to merge,
	// and the last Index call — one new file beside two covered ones —
	// is the one recorded.
	var index MaintenanceDepth
	for i := 0; i < 3; i++ {
		batch := parquet.NewBatch(textSchema)
		for _, d := range gen.Docs(1500) {
			batch.Cols[0].Bytes = append(batch.Cols[0].Bytes, []byte(d))
		}
		if _, err := w.table.Append(ctx, batch, parquet.WriterOptions{RowGroupRows: 256, PageBytes: 32 << 10}); err != nil {
			return nil, err
		}
		if index, err = w.depthOf(ctx, "index", func(ctx context.Context) error {
			_, err := w.client.Index(ctx, "body", component.KindFM)
			return err
		}); err != nil {
			return nil, err
		}
	}
	compact, err := w.depthOf(ctx, "compact_fm_3", func(ctx context.Context) error {
		_, err := w.client.Compact(ctx, "body", component.KindFM, core.CompactOptions{})
		return err
	})
	if err != nil {
		return nil, err
	}
	res := &BuildResult{Maintenance: []MaintenanceDepth{index, compact}}
	out := opts.out()
	fmt.Fprintf(out, "# build: maintenance depth (GETs, dependent round trips)\n")
	for _, d := range res.Maintenance {
		fmt.Fprintf(out, "%-14s %3d GETs  %2d levels\n", d.Call, d.Gets, d.Levels)
	}
	return res, nil
}

// depthOf runs one call on a fresh session and returns its shape.
func (w *world) depthOf(ctx context.Context, call string, fn func(context.Context) error) (MaintenanceDepth, error) {
	before := w.store.Metrics.Snapshot()
	virtual, err := virtualOp(ctx, fn)
	return MaintenanceDepth{
		Call:   call,
		Gets:   w.store.Metrics.Snapshot().Sub(before).Gets,
		Levels: int64(virtual / depthUnit),
	}, err
}
