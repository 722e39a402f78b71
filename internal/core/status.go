package core

import (
	"cmp"
	"context"
	"slices"

	"rottnest/internal/component"
	"rottnest/internal/lake"
	"rottnest/internal/meta"
)

// IndexStatus describes the state of one (column, kind) index
// relative to a lake snapshot.
type IndexStatus struct {
	Column string
	Kind   component.Kind
	// Entries is the number of committed index files.
	Entries int
	// IndexBytes is their total size.
	IndexBytes int64
	// CoveredFiles counts snapshot files some index covers;
	// UnindexedFiles counts the rest; StaleRefs counts covered paths
	// that are no longer in the snapshot (candidates for vacuum).
	CoveredFiles   int
	UnindexedFiles int
	StaleRefs      int
	// RedundantEntries counts index files the greedy cover would not
	// pick — the fragmentation that compaction+vacuum removes.
	RedundantEntries int
	// Uncovered lists the UnindexedFiles' paths, in snapshot order.
	Uncovered []string
}

// Status reports the state of every index against the latest
// snapshot. Operators use it to decide when to run Index, Compact,
// and Vacuum; ingest.Scheduler.Quiesce automates exactly that.
func (c *Client) Status(ctx context.Context) ([]IndexStatus, error) {
	plan, err := c.PlanInputs(ctx, -1)
	if err != nil {
		return nil, err
	}
	return StatusOf(plan.Snapshot, plan.Entries), nil
}

// StatusOf is Status for a caller that has already read the snapshot
// and the metadata entries (PlanInputs). Each of specs gets a status,
// in order, with or without entries; the other indexes the entries
// name follow, by column and then kind.
func StatusOf(snap *lake.Snapshot, entries []meta.IndexEntry, specs ...IndexSpec) []IndexStatus {
	active := snap.Paths()
	groups := make(map[IndexSpec][]meta.IndexEntry)
	for _, e := range entries {
		k := IndexSpec{e.Column, e.Kind}
		groups[k] = append(groups[k], e)
	}
	var rest []IndexSpec
	for k := range groups {
		if !slices.Contains(specs, k) {
			rest = append(rest, k)
		}
	}
	slices.SortFunc(rest, func(a, b IndexSpec) int {
		return cmp.Or(cmp.Compare(a.Column, b.Column), cmp.Compare(a.Kind, b.Kind))
	})
	out := make([]IndexStatus, 0, len(specs)+len(rest))
	for _, k := range append(slices.Clone(specs), rest...) {
		group := groups[k]
		chosen, covered := coverEntries(group, active)
		st := IndexStatus{
			Column:           k.Column,
			Kind:             k.Kind,
			Entries:          len(group),
			CoveredFiles:     len(covered),
			RedundantEntries: len(group) - len(chosen),
		}
		stale := make(map[string]bool)
		for _, e := range group {
			st.IndexBytes += e.SizeBytes
			for _, f := range e.Files {
				if !active[f] {
					stale[f] = true
				}
			}
		}
		st.StaleRefs = len(stale)
		for _, f := range snap.Files {
			if !covered[f.Path] {
				st.Uncovered = append(st.Uncovered, f.Path)
			}
		}
		st.UnindexedFiles = len(st.Uncovered)
		out = append(out, st)
	}
	return out
}

// MaintainPolicy tunes the maintenance scheduler's compact and vacuum
// jobs (ingest.SchedulerOptions.Policy).
type MaintainPolicy struct {
	// CompactWhenEntries triggers index compaction once a (column,
	// kind) index fragments into at least this many files the greedy
	// cover keeps. The scheduler defaults it to 8.
	CompactWhenEntries int
	// Compact options forwarded to Compact.
	Compact CompactOptions
	// Vacuum options forwarded to Vacuum.
	Vacuum VacuumOptions
}

// IndexSpec names one maintained index.
type IndexSpec struct {
	Column string
	Kind   component.Kind
}
