package core

import (
	"fmt"

	"rottnest/internal/insitu"
	"rottnest/internal/lake"
	"rottnest/internal/meta"
	"rottnest/internal/parquet"
)

// Stage 2 of a search, bind, turns what resolve read into an
// executable plan: which files are searched, which index files cover
// them for each leaf, and how the needed columns are laid out for the
// read stage. It is pure — no context, no store, no client — so every
// planning decision is testable on hand-built snapshots and listings.

// leafExec is one exact leaf bound to a plan round: the compiled
// predicate plus the chosen index cover for the searched file set.
type leafExec struct {
	plan    *leafPlan
	chosen  []meta.IndexEntry
	covered map[string]bool
}

// execEnv is the state of one plan round shared by the stages after
// bind.
type execEnv struct {
	cq         CompoundQuery
	shape      *planShape
	searched   []lake.DataFile
	active     map[string]bool
	fileByPath map[string]lake.DataFile
	leaves     []*leafExec
	// vector cover (ranked queries only).
	vecEntries []meta.IndexEntry
	vecCovered map[string]bool
	// cols are the needed columns as read templates, in the
	// deterministic order residual evaluation sees their values;
	// colPos is the inverse. vecPos and output are the positions of
	// the ranker's column (-1 for pure-filter plans) and of the column
	// that populates Match.Value.
	cols           []insitu.ColumnRead
	colPos         map[string]int
	vecPos, output int
	stats          *Stats
}

// bind plans one round against a resolved snapshot and the listings of
// shape.units (aligned with them). excluded names index files a
// previous round found vacuumed; their rows are ignored so the files
// they covered fall to another index or to the scan path.
func bind(cq CompoundQuery, shape *planShape, snap *lake.Snapshot, listings [][]meta.IndexEntry, excluded map[string]bool) (*execEnv, error) {
	if err := validateColumns(snap, shape); err != nil {
		return nil, err
	}
	// Partition and file-range pruning restrict the searched file set
	// before any index or scan planning.
	searched := snap.Files
	if cq.Partition != nil {
		if snap.Schema.ColumnIndex(cq.Partition.Column) < 0 {
			return nil, fmt.Errorf("core: partition column %q not in schema: %w", cq.Partition.Column, ErrBadColumn)
		}
		min := parquet.OrderableInt64(cq.Partition.Min)
		max := parquet.OrderableInt64(cq.Partition.Max)
		searched = keepFiles(searched, func(f lake.DataFile) bool {
			return f.MayContainRange(cq.Partition.Column, min, max)
		})
	}
	if cq.FileRange != nil {
		searched = keepFiles(searched, func(f lake.DataFile) bool { return cq.FileRange.Contains(f.Path) })
	}
	env := &execEnv{
		cq: cq, shape: shape, searched: searched,
		active:     make(map[string]bool, len(searched)),
		fileByPath: make(map[string]lake.DataFile, len(searched)),
		colPos:     make(map[string]int),
		vecPos:     -1,
		stats:      &Stats{PrunedFiles: len(snap.Files) - len(searched)},
	}
	for _, f := range searched {
		env.active[f.Path] = true
		env.fileByPath[f.Path] = f
	}

	// Per-unit index cover. Leaves sharing a (column, kind) share the
	// listing, so their covers coincide; compute each pair once.
	type cover struct {
		chosen  []meta.IndexEntry
		covered map[string]bool
	}
	covers := make(map[probeUnit]cover)
	indexKeys := make(map[string]bool)
	coverFor := func(i int) cover {
		u := shape.units[i]
		cv, ok := covers[u]
		if !ok {
			listing := listings[i]
			if len(excluded) > 0 {
				listing = nil
				for _, e := range listings[i] {
					if !excluded[e.IndexKey] {
						listing = append(listing, e)
					}
				}
			}
			cv.chosen, cv.covered = coverEntries(listing, env.active)
			covers[u] = cv
			for _, e := range cv.chosen {
				indexKeys[e.IndexKey] = true
			}
		}
		return cv
	}
	addColumn := func(name string) int {
		pos, ok := env.colPos[name]
		if !ok {
			pos = len(env.cols)
			env.colPos[name] = pos
			ci := snap.Schema.ColumnIndex(name)
			env.cols = append(env.cols, insitu.ColumnRead{Name: name, Col: snap.Schema.Columns[ci], ColIdx: ci})
		}
		return pos
	}
	for i, lp := range shape.leaves {
		le := &leafExec{plan: lp, covered: map[string]bool{}}
		if lp.indexable {
			cv := coverFor(i)
			le.chosen, le.covered = cv.chosen, cv.covered
		}
		env.leaves = append(env.leaves, le)
		addColumn(lp.pred.Column)
	}
	if shape.vector != nil {
		cv := coverFor(len(shape.units) - 1)
		env.vecEntries, env.vecCovered = cv.chosen, cv.covered
		env.vecPos = addColumn(shape.vector.Column)
	}
	env.output = env.colPos[shape.output]

	// Snapshot partition stats. A file counts as covered when every
	// leaf's cover (and the vector cover, for ranked queries) includes
	// it — those are the files the plan can serve purely from pages.
	for _, f := range searched {
		if env.fileCovered(f.Path) {
			env.stats.CoveredFiles++
		}
	}
	env.stats.IndexFiles = len(indexKeys)
	env.stats.UnindexedFiles = len(searched) - env.stats.CoveredFiles
	return env, nil
}

// keepFiles returns the files keep admits, never aliasing the input
// (a snapshot's file list is shared with the plan cache).
func keepFiles(files []lake.DataFile, keep func(lake.DataFile) bool) []lake.DataFile {
	var kept []lake.DataFile
	for _, f := range files {
		if keep(f) {
			kept = append(kept, f)
		}
	}
	return kept
}

// fileCovered reports whether every leaf (and the vector cover, when
// present) covers the file.
func (e *execEnv) fileCovered(path string) bool {
	for _, le := range e.leaves {
		if !le.plan.indexable || !le.covered[path] {
			return false
		}
	}
	return e.shape.vector == nil || e.vecCovered[path]
}

// validateColumns checks every referenced column against the schema.
func validateColumns(snap *lake.Snapshot, shape *planShape) error {
	for _, u := range shape.units {
		if _, _, err := kindForColumn(snap.Schema, u.column, u.kind); err != nil {
			return err
		}
	}
	return nil
}

// heatUnits flattens the round's per-unit covers into QueryHeat
// records, deduplicating leaves that share a (column, kind) pair.
func heatUnits(env *execEnv) []QueryHeat {
	units := env.shape.units
	seen := make(map[probeUnit]bool, len(units))
	out := make([]QueryHeat, 0, len(units))
	emit := func(u probeUnit, covered map[string]bool) {
		if seen[u] {
			return
		}
		seen[u] = true
		files := make([]HeatFile, 0, len(env.searched))
		for _, f := range env.searched {
			files = append(files, HeatFile{Path: f.Path, Rows: f.Rows, Covered: covered[f.Path]})
		}
		out = append(out, QueryHeat{Column: u.column, Kind: u.kind, Files: files})
	}
	for i, le := range env.leaves {
		if le.plan.indexable {
			emit(units[i], le.covered)
		}
	}
	if env.shape.vector != nil {
		emit(units[len(units)-1], env.vecCovered)
	}
	return out
}
