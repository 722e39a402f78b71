// Package meta implements the Rottnest metadata table (Section IV of
// the paper): the transactional record of which index files exist and
// which Parquet files each one covers. The paper implements it as a
// Delta Lake table; here it is a JSON transaction log committed with
// conditional PUTs on the same object store — the same
// optimistic-concurrency technique, and, as the paper notes, any
// transactional store would do.
package meta

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"

	"rottnest/internal/component"
	"rottnest/internal/objectstore"
	"rottnest/internal/simtime"
	"rottnest/internal/txlog"
)

// IndexEntry is one row of the metadata table: one committed index
// file.
type IndexEntry struct {
	// IndexKey is the index file's object key (absolute).
	IndexKey string `json:"index_key"`
	// Kind is the index type.
	Kind component.Kind `json:"kind"`
	// Column is the indexed column name.
	Column string `json:"column"`
	// Files are the lake-relative paths of the Parquet files the
	// index covers.
	Files []string `json:"files"`
	// Rows is the total number of rows covered, used by compaction
	// planning.
	Rows int64 `json:"rows"`
	// SizeBytes is the index file size, used by compaction planning.
	SizeBytes int64 `json:"size_bytes"`
	// CreatedAt is the commit time.
	CreatedAt time.Time `json:"created_at"`
}

// record is one transaction-log entry.
type record struct {
	Version int64        `json:"version"`
	Inserts []IndexEntry `json:"inserts,omitempty"`
	Deletes []string     `json:"deletes,omitempty"` // index keys
}

// CheckpointInterval is how many commits between automatic metadata
// checkpoints; like the lake's, they keep log replay cost flat.
const CheckpointInterval = 32

// metaCheckpoint is the serialized live-entry set at one version.
type metaCheckpoint struct {
	Version int64        `json:"version"`
	Entries []IndexEntry `json:"entries"`
}

// logFormat makes the table's log (internal/txlog) a log of live entry
// sets, each sorted by index key and never modified once built.
var logFormat = txlog.Format[[]IndexEntry]{
	Name:     "meta",
	Interval: CheckpointInterval,
	Apply:    applyRecords,
	EncodeCheckpoint: func(version int64, entries []IndexEntry) ([]byte, error) {
		return json.Marshal(metaCheckpoint{Version: version, Entries: entries})
	},
	DecodeCheckpoint: func(data []byte) (int64, []IndexEntry, error) {
		var cp metaCheckpoint
		err := json.Unmarshal(data, &cp)
		return cp.Version, cp.Entries, err
	},
}

// applyRecords returns the live entries after the records, oldest
// first, are applied to base, which is not modified.
func applyRecords(base []IndexEntry, _ int64, records [][]byte) ([]IndexEntry, error) {
	live := make(map[string]IndexEntry, len(base))
	for _, e := range base {
		live[e.IndexKey] = e
	}
	for _, data := range records {
		var rec record
		if err := json.Unmarshal(data, &rec); err != nil {
			return nil, fmt.Errorf("parse record: %w", err)
		}
		for _, k := range rec.Deletes {
			delete(live, k)
		}
		for _, e := range rec.Inserts {
			live[e.IndexKey] = e
		}
	}
	var out []IndexEntry // nil when empty, as a checkpoint has always encoded it
	for _, e := range live {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].IndexKey < out[j].IndexKey })
	return out, nil
}

// Table is a handle to the metadata table under a key prefix. Its log
// remembers what the handle has read and written of it (DESIGN.md
// §20): a listing fetches only the records committed since the last,
// and a commit tries the next slot without listing.
type Table struct {
	clock simtime.Clock
	root  string
	log   *txlog.Log[[]IndexEntry]
}

// New returns a handle to the metadata table rooted at prefix
// (created lazily on first commit).
func New(store objectstore.Store, clock simtime.Clock, prefix string) *Table {
	if clock == nil {
		clock = simtime.RealClock{}
	}
	if prefix != "" && !strings.HasSuffix(prefix, "/") {
		prefix += "/"
	}
	return &Table{clock: clock, root: prefix, log: txlog.New(store, prefix, logFormat)}
}

// Root returns the table's key prefix.
func (t *Table) Root() string { return t.root }

// List returns every live entry of the table, sorted by index key.
func (t *Table) List(ctx context.Context) ([]IndexEntry, error) {
	entries, _, err := t.log.Read(ctx, -1)
	// The remembered set is shared; the caller's slice is its own.
	return append(make([]IndexEntry, 0, len(entries)), entries...), err
}

// ListFor returns the live entries for one (column, kind) index.
func (t *Table) ListFor(ctx context.Context, column string, kind component.Kind) ([]IndexEntry, error) {
	all, err := t.List(ctx)
	if err != nil {
		return nil, err
	}
	return EntriesFor(all, column, kind), nil
}

// EntriesFor returns the entries of one (column, kind) index among
// all, in order — what ListFor returns, for a caller that has already
// listed the table.
func EntriesFor(all []IndexEntry, column string, kind component.Kind) []IndexEntry {
	var out []IndexEntry
	for _, e := range all {
		if e.Column == column && e.Kind == kind {
			out = append(out, e)
		}
	}
	return out
}

// commit appends a record. A record says what to insert and delete,
// not what the table held, so there is nothing to validate and the
// log's blind next-slot PUT is the whole commit.
func (t *Table) commit(ctx context.Context, inserts []IndexEntry, deletes []string) error {
	_, err := t.log.Commit(ctx, func(version int64) ([]byte, error) {
		return json.Marshal(record{Version: version, Inserts: inserts, Deletes: deletes})
	}, nil)
	return err
}

// Insert transactionally adds entries, stamping CreatedAt.
func (t *Table) Insert(ctx context.Context, entries ...IndexEntry) error {
	if len(entries) == 0 {
		return nil
	}
	now := t.clock.Now()
	for i := range entries {
		if entries[i].CreatedAt.IsZero() {
			entries[i].CreatedAt = now
		}
	}
	return t.commit(ctx, entries, nil)
}

// Delete transactionally removes the entries with the given index
// keys (missing keys are ignored, keeping Delete idempotent).
func (t *Table) Delete(ctx context.Context, indexKeys ...string) error {
	if len(indexKeys) == 0 {
		return nil
	}
	return t.commit(ctx, nil, indexKeys)
}
