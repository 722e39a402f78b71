package core

import (
	"context"
	"strings"
	"sync"

	"rottnest/internal/component"
	"rottnest/internal/lake"
	"rottnest/internal/meta"
	"rottnest/internal/objectstore"
	"rottnest/internal/obs"
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
//
// A miss's metadata LIST covers the whole index directory, so it also
// names the index files, and the files the plan will probe are opened
// in the same fan as the log records (openPredicted); opened holds
// those readers by key, for the probe stage.
func (c *Client) resolve(ctx context.Context, shape *planShape, version int64, replan bool) (snap *lake.Snapshot, listings [][]meta.IndexEntry, opened map[string]*component.Reader, fromCache bool, err error) {
	if snap, listings, version = c.plans.lookup(version, shape.units, replan); snap != nil {
		return snap, listings, nil, true, nil
	}
	plan, err := c.planInputs(ctx, version, func(ctx context.Context, listed []objectstore.ObjectInfo) {
		opened = c.openPredicted(ctx, shape.units, listed)
	})
	snap, all := plan.Snapshot, plan.Entries
	if err != nil {
		if snap != nil {
			// The listing failed: surface a schema error over it, as
			// the single-predicate path always has.
			if verr := validateColumns(snap, shape); verr != nil {
				err = verr
			}
		}
		return nil, nil, nil, false, err
	}
	listings = make([][]meta.IndexEntry, len(shape.units))
	for i, u := range shape.units {
		listings[i] = meta.EntriesFor(all, u.column, u.kind)
	}
	if !replan {
		c.plans.put(snap, shape.units, listings)
	}
	return snap, listings, opened, false, nil
}

// Plan is one read of what planning needs: the lake snapshot and,
// beside it, the metadata table's rows and the metadata version they
// are at. An index job plans from one (IndexSpecs); the maintenance
// scheduler reads one per step and both decides and indexes from it.
// The snapshot is shared and must not be modified.
type Plan struct {
	Snapshot *lake.Snapshot
	Entries  []meta.IndexEntry
	// MetaVersion is the metadata log version Entries are at: the build
	// order an index job's keys carry.
	MetaVersion int64
}

// PlanInputs replays the lake log at version (< 0: latest) and the
// metadata log from the store, side by side: they are independent
// logs, so planning — a search's, every maintenance call's, the
// scheduler's — is as deep as one of them. A failed listing still
// returns the snapshot when that half succeeded, for the caller that
// reports a schema error first.
func (c *Client) PlanInputs(ctx context.Context, version int64) (Plan, error) {
	return c.planInputs(ctx, version, nil)
}

// planInputs is PlanInputs whose metadata LIST, with early set, covers
// the index directory: early gets the index files it names, in the fan
// of the metadata log's records.
func (c *Client) planInputs(ctx context.Context, version int64, early func(context.Context, []objectstore.ObjectInfo)) (plan Plan, err error) {
	plan.Entries, plan.MetaVersion, err = c.besideMeta(ctx, func(ctx context.Context) (err error) {
		plan.Snapshot, err = c.table.SnapshotAt(ctx, version)
		return err
	}, early)
	return plan, err
}

// besideMeta runs a read of the lake log beside the metadata listing,
// whose LIST covers the index directory when early is set.
func (c *Client) besideMeta(ctx context.Context, lakeRead func(context.Context) error, early func(context.Context, []objectstore.ObjectInfo)) (entries []meta.IndexEntry, version int64, err error) {
	dir := c.meta.Root()
	if early != nil {
		dir = c.cfg.IndexDir
	}
	err = simtime.Fan(ctx, 2, 0, func(ctx context.Context, i int) (ferr error) {
		if i == 0 {
			return lakeRead(ctx)
		}
		entries, version, ferr = c.meta.ListBeside(ctx, dir, early)
		return ferr
	})
	return entries, version, err
}

// openPredicted opens the index files a plan of units will most
// likely probe, from the objects its metadata LIST found under the
// index directory: per unit, the files that sort at or after the
// unit's newest merge output, or all of them when it has none. A
// compaction's sources sort before its output, so they stay shut
// while they wait for vacuum. An open only reads the file's tail (or
// the whole file, per readsWhole), sized by the LIST. The opens are
// all or none: they must fit one SearchWidth wave, or the probe stage
// would wait on the rest anyway. An open that fails is dropped — the
// probe stage opens the file itself, and fails or replans there — and
// a file the metadata table does not name is never probed, so its
// reader goes unused.
func (c *Client) openPredicted(ctx context.Context, units []probeUnit, listed []objectstore.ObjectInfo) map[string]*component.Reader {
	var predicted []objectstore.ObjectInfo
	seen := make(map[probeUnit]bool, len(units))
	for _, u := range units {
		if !seen[u] {
			seen[u] = true
			predicted = append(predicted, predictUnit(listed, c.unitDir(u.column, u.kind))...)
		}
	}
	if len(predicted) == 0 || len(predicted) > c.cfg.SearchWidth {
		return nil
	}
	ctx, span := obs.Start(ctx, "index.open")
	defer span.End()
	span.SetAttr("files", len(predicted))
	var mu sync.Mutex
	opened := make(map[string]*component.Reader, len(predicted))
	simtime.Fan(ctx, len(predicted), c.cfg.SearchWidth, func(ctx context.Context, i int) error {
		info := predicted[i]
		if r, err := c.openReader(ctx, meta.IndexEntry{IndexKey: info.Key, SizeBytes: info.Size}); err == nil {
			mu.Lock()
			opened[info.Key] = r
			mu.Unlock()
		}
		return nil
	})
	return opened
}

// predictUnit returns the files of listed, which is sorted by key, in
// the unit directory dir that sort at or after its newest merge output
// (by build version and mark), or all of them when it has none.
func predictUnit(listed []objectstore.ObjectInfo, dir string) []objectstore.ObjectInfo {
	var files []objectstore.ObjectInfo
	var newestMerge string
	for _, info := range listed {
		order, ok := buildOrder(info.Key, dir)
		if !ok {
			continue
		}
		if order[buildWidth+1] == markMerge {
			newestMerge = order
		}
		files = append(files, info)
	}
	if newestMerge == "" {
		return files
	}
	kept := files[:0]
	for _, info := range files {
		if order, _ := buildOrder(info.Key, dir); order >= newestMerge {
			kept = append(kept, info)
		}
	}
	return kept
}

// buildOrder returns the "<build>-<mark>" part of an index key in the
// unit directory dir, and whether key is one.
func buildOrder(key, dir string) (string, bool) {
	name, ok := strings.CutPrefix(key, dir)
	if !ok || strings.Contains(name, "/") || !strings.HasSuffix(name, ".index") || len(name) < buildWidth+3 {
		return "", false
	}
	order := name[:buildWidth+2]
	if mark := order[buildWidth+1]; name[buildWidth] != '-' || name[buildWidth+2] != '-' || (mark != markBuild && mark != markMerge) {
		return "", false
	}
	return order, true
}
