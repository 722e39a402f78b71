package core

import (
	"context"
	"encoding/json"
	"fmt"

	"rottnest/internal/component"
	"rottnest/internal/ivfpq"
	"rottnest/internal/meta"
	"rottnest/internal/obs"
)

// RefineVectorIndex progressively deepens the vector index file at
// indexKey: it re-clusters the cells the observed probe traffic hits
// hardest (see ivfpq.RefineInto) and commits the result as a
// compact-style replacement — upload the refined file, insert its
// metadata row, delete the old row in the same breath, leaving the old
// object an orphan for vacuum. The replacement covers exactly the same
// data files, so the Consistency invariant holds throughout; a search
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
	if nprobe <= 0 {
		nprobe = 8
	}
	cells := ivfpq.HotCells(ix, probes, nprobe, opts.MaxCells)
	planSpan.SetAttr("column", column)
	planSpan.SetAttr("cells", len(cells))
	planSpan.End()
	if len(cells) == 0 {
		return nil, nil
	}

	bctx, buildSpan := obs.Start(ctx, "refine.build")
	defer buildSpan.End()
	builder := component.NewBuilder(component.KindIVFPQ)
	manifestJSON, err := json.Marshal(man)
	if err != nil {
		return nil, fmt.Errorf("core: encode manifest: %w", err)
	}
	builder.Add(manifestJSON) // component 0, same as every index file
	if err := ivfpq.RefineInto(bctx, builder, ix, cells, opts); err != nil {
		return nil, err
	}
	data, err := builder.Finish()
	if err != nil {
		return nil, err
	}
	buildSpan.SetAttr("bytes", len(data))
	buildSpan.End()

	uctx, uploadSpan := obs.Start(ctx, "refine.upload")
	defer uploadSpan.End()
	newKey := c.cfg.IndexDir + indexFilePrefix + randomName() + ".index"
	uploadSpan.SetAttr("key", newKey)
	if err := c.store.Put(uctx, newKey, data); err != nil {
		return nil, err
	}
	uploadSpan.End()

	if c.clock.Now().Sub(start) > c.cfg.Timeout {
		return nil, fmt.Errorf("core: refine of %s: %w", indexKey, ErrTimeout)
	}
	entry := meta.IndexEntry{
		IndexKey:  newKey,
		Kind:      component.KindIVFPQ,
		Column:    column,
		Files:     append([]string(nil), old.Files...),
		Rows:      old.Rows,
		SizeBytes: int64(len(data)),
	}
	cctx, commitSpan := obs.Start(ctx, "refine.commit")
	defer commitSpan.End()
	// Insert-then-delete: both orders keep every file covered, but the
	// old row must go — greedy cover selection breaks ties toward the
	// earlier-listed entry, so leaving it would keep serving the
	// unrefined index forever.
	if err := c.meta.Insert(cctx, entry); err != nil {
		return nil, err
	}
	if err := c.meta.Delete(cctx, indexKey); err != nil {
		return nil, err
	}
	c.metaChanged()
	commitSpan.End()
	if c.clock.Now().Sub(start) > c.cfg.Timeout {
		// Same post-commit re-check as Index: a vacuum judging the new
		// upload's age by this clock may already have collected it.
		// Roll back to the old row, whose object a vacuum only deletes
		// after its metadata row is gone — and it wasn't until now.
		rctx, rollbackSpan := obs.Start(ctx, "refine.rollback")
		defer rollbackSpan.End()
		if err := c.meta.Insert(rctx, *old); err != nil {
			return nil, err
		}
		if err := c.meta.Delete(rctx, newKey); err != nil {
			return nil, err
		}
		c.metaChanged()
		return nil, fmt.Errorf("core: refine of %s overran commit: %w", indexKey, ErrTimeout)
	}
	entry.CreatedAt = c.clock.Now()
	return &entry, nil
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
