// Package lake implements the transactional data-lake substrate: a
// Delta/Iceberg-equivalent table format storing immutable columnar
// files on an object store, coordinated by a JSON transaction log with
// optimistic concurrency (conditional PUT of the next log entry — no
// atomic rename required).
//
// It supports the operations Rottnest's protocol must survive
// (Section IV of the paper): appends, file compaction, row deletes via
// deletion vectors, snapshot time travel, and vacuum (physical garbage
// collection of unreferenced files).
package lake

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"time"

	"rottnest/internal/parquet"
	"rottnest/internal/txlog"
)

// Errors returned by table operations.
var (
	// ErrConflict reports that a concurrent commit invalidated this
	// operation's plan (e.g. a compaction's inputs were removed).
	ErrConflict = errors.New("lake: concurrent commit conflict")
	// ErrNoTable reports that no table exists at the given root.
	ErrNoTable = errors.New("lake: table not found")
	// ErrNoSnapshot reports a request for a version that does not
	// exist (or was never committed).
	ErrNoSnapshot = errors.New("lake: snapshot not found")
	// ErrCommitAmbiguous reports that a commit's conditional PUT
	// failed in a way that could not be resolved by reading the log
	// entry back: the commit may or may not have landed. Callers that
	// must be exactly-once (the ingest writer) resolve it by checking
	// a later snapshot for the commit's unique file paths.
	ErrCommitAmbiguous = txlog.ErrAmbiguous
)

// ColumnStats are file-level min/max statistics for one column,
// recorded in the log the way Delta Lake records per-file stats; they
// enable partition-style file pruning for queries carrying a
// structured filter (Section VI's normalized queries).
type ColumnStats struct {
	// Min and Max are orderable byte encodings (see parquet's
	// statistics); for int64 columns they decode to the numeric
	// bounds.
	Min []byte `json:"min,omitempty"`
	Max []byte `json:"max,omitempty"`
}

// AddFile records a new data file joining the table.
type AddFile struct {
	// Path is the file's key relative to the table root.
	Path string `json:"path"`
	// Rows is the file's row count.
	Rows int64 `json:"rows"`
	// Size is the file's byte size.
	Size int64 `json:"size"`
	// Stats holds per-column min/max, keyed by column name.
	Stats map[string]ColumnStats `json:"stats,omitempty"`
}

// RemoveFile records a data file leaving the current snapshot (it
// remains physically present until vacuumed).
type RemoveFile struct {
	Path string `json:"path"`
}

// AddDV attaches (or replaces) the deletion vector of a data file.
type AddDV struct {
	// File is the data file the vector applies to.
	File string `json:"file"`
	// Path is the vector's key relative to the table root.
	Path string `json:"path"`
	// Deleted is the total number of deleted rows in the vector.
	Deleted int64 `json:"deleted"`
}

// TableMeta carries table-level metadata (written by the first
// commit).
type TableMeta struct {
	Schema *parquet.Schema `json:"schema"`
}

// Action is one effect within a commit; exactly one field is set.
type Action struct {
	Add      *AddFile    `json:"add,omitempty"`
	Remove   *RemoveFile `json:"remove,omitempty"`
	DV       *AddDV      `json:"dv,omitempty"`
	Metadata *TableMeta  `json:"metadata,omitempty"`
}

// Commit is one transaction-log entry.
type Commit struct {
	Version   int64     `json:"version"`
	Timestamp time.Time `json:"timestamp"`
	Operation string    `json:"operation"`
	Actions   []Action  `json:"actions"`
}

// logDir is the table's log directory, relative to its root.
const logDir = "_log/"

// CheckpointInterval is how many commits between automatic log
// checkpoints. A checkpoint summarizes the table state at one version
// so snapshot construction replays only the log suffix — the same
// mechanism Delta Lake uses to keep log replay O(1) as tables age.
const CheckpointInterval = 32

// checkpointState is the serialized table state at one version.
type checkpointState struct {
	Version int64           `json:"version"`
	Schema  *parquet.Schema `json:"schema"`
	Files   []DataFile      `json:"files"`
}

// logFormat makes the table's log (internal/txlog) a log of snapshots:
// a record is a Commit, a checkpoint a checkpointState, and the state
// of the empty log is the nil snapshot.
var logFormat = txlog.Format[*Snapshot]{
	Name:     "lake",
	Interval: CheckpointInterval,
	Apply:    applyCommits,
	EncodeCheckpoint: func(version int64, snap *Snapshot) ([]byte, error) {
		return json.Marshal(checkpointState{Version: version, Schema: snap.Schema, Files: snap.Files})
	},
	DecodeCheckpoint: func(data []byte) (int64, *Snapshot, error) {
		var cp checkpointState
		if err := json.Unmarshal(data, &cp); err != nil {
			return 0, nil, err
		}
		return cp.Version, &Snapshot{Version: cp.Version, Schema: cp.Schema, Files: cp.Files}, nil
	},
}

// applyCommits returns the snapshot at version: base with the commits
// applied, oldest first. base is not modified — a snapshot, once
// returned, is shared by the handle and every caller it was given to.
func applyCommits(base *Snapshot, version int64, records [][]byte) (*Snapshot, error) {
	snap := &Snapshot{Version: version}
	files := make(map[string]*DataFile)
	if base != nil {
		snap.Schema = base.Schema
		for _, f := range base.Files {
			ff := f
			files[f.Path] = &ff
		}
	}
	for _, data := range records {
		var c Commit
		if err := json.Unmarshal(data, &c); err != nil {
			return nil, fmt.Errorf("parse commit: %w", err)
		}
		for _, a := range c.Actions {
			switch {
			case a.Metadata != nil:
				snap.Schema = a.Metadata.Schema
			case a.Add != nil:
				files[a.Add.Path] = &DataFile{Path: a.Add.Path, Rows: a.Add.Rows, Size: a.Add.Size, Stats: a.Add.Stats}
			case a.Remove != nil:
				delete(files, a.Remove.Path)
			case a.DV != nil:
				if f, ok := files[a.DV.File]; ok {
					f.DVPath = a.DV.Path
					f.Deleted = a.DV.Deleted
				}
			}
		}
	}
	for _, f := range files {
		snap.Files = append(snap.Files, *f)
	}
	sort.Slice(snap.Files, func(i, j int) bool { return snap.Files[i].Path < snap.Files[j].Path })
	return snap, nil
}
