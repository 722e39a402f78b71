package core

import (
	"context"
	"errors"
	"fmt"

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
}

// Status reports the state of every index against the latest
// snapshot. Operators use it to decide when to run Index, Compact,
// and Vacuum; Maintain automates exactly that.
func (c *Client) Status(ctx context.Context) ([]IndexStatus, error) {
	snap, entries, err := c.PlanInputs(ctx, -1)
	if err != nil {
		return nil, err
	}
	return StatusOf(snap, entries), nil
}

// StatusOf is Status for a caller that has already read the snapshot
// and the metadata entries (PlanInputs).
func StatusOf(snap *lake.Snapshot, entries []meta.IndexEntry) []IndexStatus {
	active := snap.Paths()

	type groupKey struct {
		column string
		kind   component.Kind
	}
	groups := make(map[groupKey][]meta.IndexEntry)
	for _, e := range entries {
		k := groupKey{e.Column, e.Kind}
		groups[k] = append(groups[k], e)
	}
	var out []IndexStatus
	for k, group := range groups {
		st := IndexStatus{Column: k.column, Kind: k.kind, Entries: len(group)}
		covered := make(map[string]bool)
		stale := make(map[string]bool)
		for _, e := range group {
			st.IndexBytes += e.SizeBytes
			for _, f := range e.Files {
				if active[f] {
					covered[f] = true
				} else {
					stale[f] = true
				}
			}
		}
		st.CoveredFiles = len(covered)
		st.UnindexedFiles = len(snap.Files) - len(covered)
		st.StaleRefs = len(stale)
		chosen, _ := coverEntries(group, active)
		st.RedundantEntries = len(group) - len(chosen)
		out = append(out, st)
	}
	sortStatuses(out)
	return out
}

func sortStatuses(sts []IndexStatus) {
	for i := 1; i < len(sts); i++ {
		for j := i; j > 0; j-- {
			a, b := sts[j-1], sts[j]
			if a.Column < b.Column || (a.Column == b.Column && a.Kind <= b.Kind) {
				break
			}
			sts[j-1], sts[j] = b, a
		}
	}
}

// MaintainPolicy tunes the automated maintenance pass.
type MaintainPolicy struct {
	// CompactWhenEntries triggers index compaction once a (column,
	// kind) index fragments into at least this many files. Defaults
	// to 8.
	CompactWhenEntries int
	// Compact options forwarded to Compact.
	Compact CompactOptions
	// Vacuum options forwarded to Vacuum.
	Vacuum VacuumOptions
}

func (p MaintainPolicy) withDefaults() MaintainPolicy {
	if p.CompactWhenEntries <= 0 {
		p.CompactWhenEntries = 8
	}
	return p
}

// MaintainReport summarizes one maintenance pass.
type MaintainReport struct {
	// Indexed lists the (column, kind) pairs that gained a new index
	// file this pass.
	Indexed []IndexStatus
	// Compacted counts the merge outputs produced.
	Compacted int
	// Vacuum is the garbage-collection report, nil if vacuum was
	// skipped (nothing compacted and nothing stale).
	Vacuum *VacuumReport
}

// Maintain is the background-maintenance loop body the paper sketches
// (index new data; compact LSM-style when fragmented; vacuum): one
// call brings every registered (column, kind) index up to date and
// tidies the index directory. Specs name the indices to maintain.
func (c *Client) Maintain(ctx context.Context, policy MaintainPolicy, specs ...IndexSpec) (*MaintainReport, error) {
	policy = policy.withDefaults()
	report := &MaintainReport{}
	needVacuum := false
	for _, spec := range specs {
		entry, err := c.Index(ctx, spec.Column, spec.Kind)
		switch {
		case errors.Is(err, ErrBelowMinRows):
			// Not enough new rows yet; scans cover the tail.
		case err != nil:
			return report, fmt.Errorf("core: maintain index %s: %w", spec.Column, err)
		case entry != nil:
			st := IndexStatus{Column: spec.Column, Kind: spec.Kind}
			report.Indexed = append(report.Indexed, st)
		}
		entries, err := c.meta.ListFor(ctx, spec.Column, spec.Kind)
		if err != nil {
			return report, err
		}
		if len(entries) >= policy.CompactWhenEntries {
			merged, err := c.Compact(ctx, spec.Column, spec.Kind, policy.Compact)
			if err != nil {
				return report, fmt.Errorf("core: maintain compact %s: %w", spec.Column, err)
			}
			report.Compacted += len(merged)
			if len(merged) > 0 {
				needVacuum = true
			}
		}
	}
	// Vacuum when compaction produced redundancy, or when stale refs
	// have accumulated from lake maintenance.
	if !needVacuum {
		statuses, err := c.Status(ctx)
		if err != nil {
			return report, err
		}
		for _, st := range statuses {
			if st.StaleRefs > 0 || st.RedundantEntries > 0 {
				needVacuum = true
				break
			}
		}
	}
	if needVacuum {
		vr, err := c.Vacuum(ctx, policy.Vacuum)
		if err != nil {
			return report, fmt.Errorf("core: maintain vacuum: %w", err)
		}
		report.Vacuum = vr
	}
	return report, nil
}

// IndexSpec names one maintained index.
type IndexSpec struct {
	Column string
	Kind   component.Kind
}
