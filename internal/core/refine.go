package core

import (
	"context"

	"rottnest/internal/component"
	"rottnest/internal/ivfpq"
	"rottnest/internal/meta"
	"rottnest/internal/obs"
)

// RefineVectorIndex progressively deepens the vector index file at
// indexKey: it re-clusters the cells the observed probe traffic hits
// hardest (see ivfpq.RefineInto) and publishes the result as a
// replacement of the old row (see publish), leaving the old object an
// orphan for vacuum. The replacement covers exactly the same data
// files, so the Consistency invariant holds throughout; a search
// planning against either row sees identical coverage.
//
// probes are the recent query embeddings driving cell selection;
// nprobe is the probe width those queries used. Returns the new entry,
// or nil if indexKey no longer exists in the metadata table or probe
// traffic identifies no refinable cell.
func (c *Client) RefineVectorIndex(ctx context.Context, column string, indexKey string, probes [][]float32, nprobe int, opts ivfpq.RefineOptions) (*meta.IndexEntry, error) {
	start := c.clock.Now()
	pctx, planSpan := obs.Start(ctx, "refine.plan")
	defer planSpan.End()
	entries, err := c.meta.ListFor(pctx, column, component.KindIVFPQ)
	if err != nil {
		return nil, err
	}
	var old *meta.IndexEntry
	for i := range entries {
		if entries[i].IndexKey == indexKey {
			old = &entries[i]
			break
		}
	}
	if old == nil {
		return nil, nil // already compacted, vacuumed, or refined away
	}
	r, err := c.openReader(pctx, indexKey)
	if err != nil {
		return nil, err
	}
	man, err := c.manifest(pctx, r)
	if err != nil {
		return nil, err
	}
	ix, err := c.openIVF(pctx, r)
	if err != nil {
		return nil, err
	}
	cells := ivfpq.HotCells(ix, probes, defaultNProbe(nprobe), opts.MaxCells)
	planSpan.SetAttr("column", column)
	planSpan.SetAttr("cells", len(cells))
	planSpan.End()
	if len(cells) == 0 {
		return nil, nil
	}
	return c.publish(ctx, "refine", start, man, func(ctx context.Context, b *component.Builder) error {
		return ivfpq.RefineInto(ctx, b, ix, cells, opts)
	}, old)
}

// ListIndexes returns the committed metadata rows of the (column,
// kind) index, for policies that plan maintenance over them.
func (c *Client) ListIndexes(ctx context.Context, column string, kind component.Kind) ([]meta.IndexEntry, error) {
	return c.meta.ListFor(ctx, column, kind)
}

// DropIndex deletes every metadata row of the (column, kind) index,
// demoting the column to the scan path. The index objects become
// unreferenced and are flagged for the next vacuum, which physically
// collects them. Returns the number of rows dropped.
func (c *Client) DropIndex(ctx context.Context, column string, kind component.Kind) (int, error) {
	dctx, span := obs.Start(ctx, "index.drop")
	defer span.End()
	entries, err := c.meta.ListFor(dctx, column, kind)
	if err != nil {
		return 0, err
	}
	if len(entries) == 0 {
		return 0, nil
	}
	keys := make([]string, len(entries))
	for i, e := range entries {
		keys[i] = e.IndexKey
	}
	if err := c.meta.Delete(dctx, keys...); err != nil {
		return 0, err
	}
	// Cached plans reference the dropped rows; replan against the scan
	// path. The objects themselves stay valid until vacuum removes
	// them, so decoded-object and probe caches need no invalidation
	// here — vacuum's remove phase handles that when it collects them.
	c.metaChanged()
	span.SetAttr("column", column)
	span.SetAttr("dropped", len(keys))
	return len(keys), nil
}
