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
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"time"

	"rottnest/internal/objectstore"
	"rottnest/internal/parquet"
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
	ErrCommitAmbiguous = errors.New("lake: commit outcome ambiguous")
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

const logDir = "_log/"

// logKey returns the log entry key for a version, zero-padded so
// lexicographic listing equals version order.
func logKey(root string, version int64) string {
	return fmt.Sprintf("%s%s%020d.json", root, logDir, version)
}

// versionFromKey parses a log key back to its version.
func versionFromKey(root, key string) (int64, bool) {
	name := strings.TrimPrefix(key, root+logDir)
	name = strings.TrimSuffix(name, ".json")
	if len(name) != 20 {
		return 0, false
	}
	var v int64
	for _, c := range name {
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + int64(c-'0')
	}
	return v, true
}

// readLog returns the newest usable checkpoint at or below maxVersion
// plus all commits after it (in version order, up to maxVersion; < 0
// means all). The checkpoint and the entries above it are named by the
// same LIST, so they are fetched in one parallel fan: snapshot
// construction costs LIST + one round trip however long the log grows.
// A checkpoint that is missing or does not parse costs a second fan
// over the whole log instead.
func readLog(ctx context.Context, store objectstore.Store, root string, maxVersion int64) (*checkpointState, []Commit, error) {
	infos, err := store.List(ctx, root+logDir)
	if err != nil {
		return nil, nil, fmt.Errorf("lake: list log: %w", err)
	}
	if v, key := newestCheckpoint(root, infos, maxVersion); key != "" {
		if base, commits, err := fanLog(ctx, store, root, infos, key, v, maxVersion); err == nil {
			return base, commits, nil
		}
	}
	return fanLog(ctx, store, root, infos, "", 0, maxVersion)
}

// fanLog fetches the checkpoint at cpKey (version cpVersion; "" means
// replay from the start) and every log entry in (cpVersion,
// maxVersion] in one fan and parses them.
func fanLog(ctx context.Context, store objectstore.Store, root string, infos []objectstore.ObjectInfo, cpKey string, cpVersion, maxVersion int64) (*checkpointState, []Commit, error) {
	var keys []string
	if cpKey != "" {
		keys = append(keys, cpKey)
	}
	for _, info := range infos {
		v, ok := versionFromKey(root, info.Key)
		if !ok {
			continue
		}
		if v <= cpVersion || (maxVersion >= 0 && v > maxVersion) {
			continue
		}
		keys = append(keys, info.Key)
	}
	reqs := make([]objectstore.RangeRequest, len(keys))
	for i, k := range keys {
		reqs[i] = objectstore.RangeRequest{Key: k, Offset: 0, Length: -1}
	}
	bodies, err := objectstore.FanGet(ctx, store, reqs)
	if err != nil {
		return nil, nil, fmt.Errorf("lake: read log: %w", err)
	}
	var base *checkpointState
	if cpKey != "" {
		base = new(checkpointState)
		if err := json.Unmarshal(bodies[0], base); err != nil || base.Version != cpVersion {
			return nil, nil, fmt.Errorf("lake: unusable checkpoint %s", cpKey)
		}
		keys, bodies = keys[1:], bodies[1:]
	}
	commits := make([]Commit, 0, len(keys))
	for i, data := range bodies {
		var c Commit
		if err := json.Unmarshal(data, &c); err != nil {
			return nil, nil, fmt.Errorf("lake: parse log %s: %w", keys[i], err)
		}
		commits = append(commits, c)
	}
	return base, commits, nil
}
