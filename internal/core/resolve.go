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
// memory. A replan always goes to the store — the cached plan is what
// referenced the vanished index — and is not cached.
func (c *Client) resolve(ctx context.Context, shape *planShape, version int64, replan bool) (snap *lake.Snapshot, listings [][]meta.IndexEntry, fromCache bool, err error) {
	if snap, listings, fromCache = c.plans.lookup(version, shape.units, replan); fromCache {
		return snap, listings, true, nil
	}
	snap, all, err := c.readPlanInputs(ctx, version)
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

// readPlanInputs replays the lake log at version and the metadata log
// from the store, side by side: they are independent logs, so planning
// — a search's, and every maintenance call's — is as deep as one of
// them. A failed listing still returns the snapshot when that half
// succeeded, for the caller that reports a schema error first.
func (c *Client) readPlanInputs(ctx context.Context, version int64) (snap *lake.Snapshot, entries []meta.IndexEntry, err error) {
	err = simtime.Fan(ctx, 2, 0, func(ctx context.Context, i int) (ferr error) {
		if i == 0 {
			snap, ferr = c.table.SnapshotAt(ctx, version)
		} else {
			entries, ferr = c.meta.List(ctx)
		}
		return ferr
	})
	return snap, entries, err
}
