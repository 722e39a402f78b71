package core

import (
	"context"

	"rottnest/internal/lake"
	"rottnest/internal/meta"
	"rottnest/internal/simtime"
)

// Stage 1 of a search, resolve, is all of planning's I/O: it produces
// the lake snapshot and one metadata listing per probe unit, from the
// plan cache when every unit is listed at the version, otherwise from
// the store. It decides nothing — that is bind, which needs no store.

// resolve returns the snapshot at version and the listing of each of
// the shape's units, and whether the plan cache served them. The
// snapshot and the metadata table are independent logs: a miss replays
// each once, side by side, and splits the meta entries per unit in
// memory. "Latest" is the newest version the plan cache knows of — a
// commit through this table handle reports it — on a miss as on a hit,
// and that is a version the handle remembers: the miss that follows an
// in-process commit costs the lake log no request (DESIGN.md §20). A
// replan always goes to the store, for the log's own latest — the
// cached plan is what referenced the vanished index — and is not
// cached.
func (c *Client) resolve(ctx context.Context, shape *planShape, version int64, replan bool) (snap *lake.Snapshot, listings [][]meta.IndexEntry, fromCache bool, err error) {
	if snap, listings, version = c.plans.lookup(version, shape.units, replan); snap != nil {
		return snap, listings, true, nil
	}
	snap, all, err := c.PlanInputs(ctx, version)
	if err != nil {
		if snap != nil {
			// The listing failed: surface a schema error over it, as
			// the single-predicate path always has.
			if verr := validateColumns(snap, shape); verr != nil {
				err = verr
			}
		}
		return nil, nil, false, err
	}
	listings = make([][]meta.IndexEntry, len(shape.units))
	for i, u := range shape.units {
		listings[i] = meta.EntriesFor(all, u.column, u.kind)
	}
	if !replan {
		c.plans.put(snap, shape.units, listings)
	}
	return snap, listings, false, nil
}

// PlanInputs replays the lake log at version (< 0: latest) and the
// metadata log from the store, side by side: they are independent
// logs, so planning — a search's, every maintenance call's, the
// scheduler's — is as deep as one of them. A failed listing still
// returns the snapshot when that half succeeded, for the caller that
// reports a schema error first. The snapshot is shared and must not be
// modified.
func (c *Client) PlanInputs(ctx context.Context, version int64) (snap *lake.Snapshot, entries []meta.IndexEntry, err error) {
	entries, err = c.besideMeta(ctx, func(ctx context.Context) (err error) {
		snap, err = c.table.SnapshotAt(ctx, version)
		return err
	})
	return snap, entries, err
}

// besideMeta runs a read of the lake log beside the metadata listing.
func (c *Client) besideMeta(ctx context.Context, lakeRead func(context.Context) error) (entries []meta.IndexEntry, err error) {
	err = simtime.Fan(ctx, 2, 0, func(ctx context.Context, i int) (ferr error) {
		if i == 0 {
			return lakeRead(ctx)
		}
		entries, ferr = c.meta.List(ctx)
		return ferr
	})
	return entries, err
}
