package core

import (
	"context"
	"math"
	"strings"

	"rottnest/internal/lake"
	"rottnest/internal/meta"
	"rottnest/internal/objectstore"
	"rottnest/internal/obs"
	"rottnest/internal/simtime"
)

// VacuumOptions tune garbage collection.
type VacuumOptions struct {
	// KeepSnapshot is the oldest lake snapshot version whose files
	// must stay searchable (the paper's snapshot_id); index files
	// are retained if they cover files of any snapshot at or after
	// it. Values < 1 mean "latest only".
	KeepSnapshot int64
}

// VacuumReport summarizes what a vacuum removed.
type VacuumReport struct {
	// DroppedEntries are the metadata rows deleted in the commit
	// step.
	DroppedEntries []string
	// RemovedObjects are the index files physically deleted.
	RemovedObjects []string
	// KeptEntries is the number of live metadata rows afterwards.
	KeptEntries int
}

// Vacuum garbage-collects the index directory (Section IV-C):
//
//  1. Plan: compute the Parquet files of every retained snapshot,
//     then greedily keep the index files covering the most active
//     files; entries adding no coverage are redundant.
//  2. Commit: delete the redundant entries from the metadata table.
//  3. Remove: physically delete index objects that are no longer in
//     the metadata table AND are older than the index timeout — a
//     younger uncommitted object may belong to an in-flight indexer,
//     which is exactly why the timeout exists (commit-then-delete
//     here, versus upload-then-commit in index/compact, preserves
//     the Existence invariant in both directions).
//
// Object age is judged by the store's own clock, which is valid
// because modern object stores are strongly consistent and expose a
// single global clock.
func (c *Client) Vacuum(ctx context.Context, opts VacuumOptions) (*VacuumReport, error) {
	report := &VacuumReport{}
	// Pin the age cutoff now, before reading the metadata table. An
	// indexer that commits after our metadata read re-checks its own
	// timeout post-commit (and rolls back on overshoot), so any object
	// older than vacuum-start-minus-timeout that is still unreferenced
	// below is provably orphaned. Computing the cutoff later would
	// reopen the race: the clock can pass the deadline between our
	// metadata read and the object sweep.
	cutoff := c.clock.Now().Add(-c.cfg.Timeout)

	// Plan: the retained snapshots — one listing and one fan however
	// many are kept — beside the metadata table.
	pctx, planSpan := obs.Start(ctx, "vacuum.plan")
	defer planSpan.End()
	keep := opts.KeepSnapshot
	if keep < 1 {
		keep = math.MaxInt64 // latest only
	}
	var retained []*lake.Snapshot
	entries, _, err := c.besideMeta(pctx, func(ctx context.Context) (err error) {
		retained, err = c.table.SnapshotsSince(ctx, keep)
		return err
	}, nil)
	if err != nil {
		return nil, err
	}
	active := make(map[string]bool)
	for _, snap := range retained {
		for _, f := range snap.Files {
			active[f.Path] = true
		}
	}

	// Greedy cover per (column, kind) group.
	groups := make(map[string][]meta.IndexEntry)
	for _, e := range entries {
		key := e.Column + "\x00" + string(rune(e.Kind))
		groups[key] = append(groups[key], e)
	}
	kept := make(map[string]bool)
	for _, group := range groups {
		chosen, _ := coverEntries(group, active)
		for _, e := range chosen {
			kept[e.IndexKey] = true
		}
	}
	var dropped []string
	for _, e := range entries {
		if !kept[e.IndexKey] {
			dropped = append(dropped, e.IndexKey)
		}
	}
	planSpan.SetAttr("entries", len(entries))
	planSpan.SetAttr("dropped", len(dropped))
	planSpan.End() // idempotent: the defer covers the error returns above

	// Commit.
	if len(dropped) > 0 {
		cctx, commitSpan := obs.Start(ctx, "vacuum.commit")
		defer commitSpan.End()
		commitSpan.SetAttr("dropped", len(dropped))
		if err := c.meta.Delete(cctx, dropped...); err != nil {
			return nil, err
		}
		// The metadata table changed without a lake commit, so cached
		// plans would keep probing the dropped entries until their
		// index objects vanish; drop the plans now.
		c.metaChanged()
		commitSpan.End()
	}
	report.DroppedEntries = dropped
	report.KeptEntries = len(kept)

	// Remove: re-read the metadata table beside a LIST of the index
	// directory (acceptable because vacuum is infrequent), then delete
	// the unreferenced, out-of-timeout objects side by side. The cutoff
	// was pinned before either read, so their order does not matter: an
	// object old enough to go that neither read shows referenced stays
	// unreferenced.
	rctx, removeSpan := obs.Start(ctx, "vacuum.remove")
	defer removeSpan.End()
	var live []meta.IndexEntry
	var infos []objectstore.ObjectInfo
	err = simtime.Fan(rctx, 2, 0, func(ctx context.Context, i int) (err error) {
		if i == 0 {
			live, err = c.meta.List(ctx)
		} else {
			infos, err = c.store.List(ctx, c.cfg.IndexDir+indexFilePrefix)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	referenced := make(map[string]bool, len(live))
	for _, e := range live {
		referenced[e.IndexKey] = true
	}
	var doomed []string
	for _, info := range infos {
		if referenced[info.Key] || !strings.HasSuffix(info.Key, ".index") {
			continue
		}
		if info.Created.After(cutoff) {
			continue // may belong to an in-flight indexer
		}
		doomed = append(doomed, info.Key)
	}
	err = simtime.Fan(rctx, len(doomed), c.cfg.SearchWidth, func(ctx context.Context, i int) error {
		if err := c.store.Delete(ctx, doomed[i]); err != nil {
			return err
		}
		c.objectGone(doomed[i])
		return nil
	})
	if err != nil {
		return nil, err
	}
	report.RemovedObjects = doomed
	removeSpan.SetAttr("removed", len(doomed))
	return report, nil
}
