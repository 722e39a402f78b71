package lake

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"rottnest/internal/objectstore"
	"rottnest/internal/parquet"
	"rottnest/internal/simtime"
	"rottnest/internal/txlog"
)

// DataFile describes one active data file of a snapshot.
type DataFile struct {
	// Path is the file key relative to the table root.
	Path string
	// Rows and Size mirror the AddFile action.
	Rows int64
	Size int64
	// DVPath is the key of the file's deletion vector, if any.
	DVPath string
	// Deleted is the number of rows removed by the deletion vector.
	Deleted int64
	// Stats holds per-column min/max recorded at write time, used
	// for partition-style file pruning.
	Stats map[string]ColumnStats
}

// MayContainRange reports whether the file could hold rows of the
// named column within [min, max] (orderable byte encodings). Files
// without stats for the column always may.
func (f DataFile) MayContainRange(column string, min, max []byte) bool {
	s, ok := f.Stats[column]
	if !ok || len(s.Min) == 0 || len(s.Max) == 0 {
		return true
	}
	if len(max) > 0 && bytes.Compare(s.Min, max) > 0 {
		return false
	}
	if len(min) > 0 && bytes.Compare(s.Max, min) < 0 {
		return false
	}
	return true
}

// Snapshot is a point-in-time view of the table: the manifest list of
// data files (with their deletion vectors) that make up one version.
// A snapshot is immutable: the table handle keeps the newest one it has
// replayed and hands the same value to every caller, so nobody may
// modify one (copy Files before sorting or trimming it).
type Snapshot struct {
	Version int64
	Schema  *parquet.Schema
	Files   []DataFile
}

// File returns the snapshot entry for a path, if present.
func (s *Snapshot) File(path string) (DataFile, bool) {
	for _, f := range s.Files {
		if f.Path == path {
			return f, true
		}
	}
	return DataFile{}, false
}

// Paths returns the set of active data file paths.
func (s *Snapshot) Paths() map[string]bool {
	out := make(map[string]bool, len(s.Files))
	for _, f := range s.Files {
		out[f.Path] = true
	}
	return out
}

// LiveRows returns the total number of live (non-deleted) rows.
func (s *Snapshot) LiveRows() int64 {
	var total int64
	for _, f := range s.Files {
		total += f.Rows - f.Deleted
	}
	return total
}

// Table is a transactional lake table rooted at a key prefix on an
// object store.
type Table struct {
	store objectstore.Store
	clock simtime.Clock
	root  string
	// log is the table's transaction log. It remembers what this handle
	// has read and written of it (DESIGN.md §20), so a long-lived handle
	// commits without listing and re-reads only what it has not seen.
	log *txlog.Log[*Snapshot]

	onCommit hooks[int64]
	onVacuum hooks[[]string]
}

// hooks is a set of callbacks, registered at any time, run in order.
type hooks[T any] struct {
	mu  sync.Mutex
	fns []func(T)
}

func (h *hooks[T]) add(fn func(T)) {
	h.mu.Lock()
	h.fns = append(h.fns, fn)
	h.mu.Unlock()
}

func (h *hooks[T]) fire(v T) {
	h.mu.Lock()
	fns := h.fns // append-only: what is read here never changes
	h.mu.Unlock()
	for _, fn := range fns {
		fn(v)
	}
}

// OnCommit registers fn to run after every successful commit through
// this handle, with the committed version. Callers use it to advance
// version-keyed caches; fn must be fast and must not call back into
// the table.
func (t *Table) OnCommit(fn func(version int64)) { t.onCommit.add(fn) }

// OnVacuum registers fn to run after every Vacuum through this handle
// that removed something, with the removed keys relative to the table
// root. Callers use it to drop cached decoded objects (deletion
// vectors) for deleted files.
func (t *Table) OnVacuum(fn func(removed []string)) { t.onVacuum.add(fn) }

// OpenOptions configure how a table handle is created or opened.
type OpenOptions struct {
	// Clock stamps commit timestamps and drives snapshot-age
	// decisions. Nil means the real wall clock; simulations set a
	// VirtualClock so lake time and store latency share one timeline.
	Clock simtime.Clock
}

// CreateWith initializes a new table at root with the given schema,
// committing version 1 with the table metadata. It fails if a table
// already exists there.
func CreateWith(ctx context.Context, store objectstore.Store, root string, schema *parquet.Schema, opts OpenOptions) (*Table, error) {
	t, _ := OpenWith(ctx, store, root, opts)
	_, err := t.log.Commit(ctx, func(version int64) ([]byte, error) {
		if version != 1 {
			return nil, fmt.Errorf("lake: table already exists at %s", root)
		}
		meta := Action{Metadata: &TableMeta{Schema: schema}}
		return json.Marshal(Commit{Version: 1, Timestamp: t.clock.Now(), Operation: "CREATE", Actions: []Action{meta}})
	}, nil)
	if err != nil {
		return nil, err
	}
	return t, nil
}

// OpenWith returns a handle to the table at root. It issues no
// request: the log LIST of the first Snapshot, Version or commit is
// the existence check, and a root with no log surfaces there as
// ErrNoTable.
func OpenWith(ctx context.Context, store objectstore.Store, root string, opts OpenOptions) (*Table, error) {
	clock := opts.Clock
	if clock == nil {
		clock = simtime.RealClock{}
	}
	if root != "" && root[len(root)-1] != '/' {
		root += "/"
	}
	return &Table{store: store, clock: clock, root: root, log: txlog.New(store, root+logDir, logFormat)}, nil
}

// Root returns the table's key prefix.
func (t *Table) Root() string { return t.root }

// Store returns the table's object store.
func (t *Table) Store() objectstore.Store { return t.store }

// Version lists the log and returns the latest committed version.
func (t *Table) Version(ctx context.Context) (int64, error) {
	v, err := t.log.Head(ctx)
	if err == nil && v == 0 {
		err = ErrNoTable
	}
	return v, err
}

// Snapshot returns the latest snapshot: a LIST of the log plus the
// commits this handle has not seen.
func (t *Table) Snapshot(ctx context.Context) (*Snapshot, error) {
	return t.SnapshotAt(ctx, -1)
}

// SnapshotAt returns the snapshot at the given version (time travel);
// version < 0 means latest. A version this handle knows of — one it
// committed, or at or below one it has read — at or above the newest it
// has replayed costs no LIST, and no request at all when it is that
// one.
func (t *Table) SnapshotAt(ctx context.Context, version int64) (*Snapshot, error) {
	snap, _, err := t.log.Read(ctx, version)
	switch {
	case errors.Is(err, txlog.ErrNoVersion):
		return nil, ErrNoSnapshot
	case err == nil && snap == nil:
		return nil, ErrNoTable
	}
	return snap, err
}

// SnapshotsSince returns the snapshot at every version from keepVersion
// through the latest, oldest first, from one listing and one fan; a
// keepVersion past the latest means the latest only.
func (t *Table) SnapshotsSince(ctx context.Context, keepVersion int64) ([]*Snapshot, error) {
	snaps, err := t.log.ReadFrom(ctx, keepVersion)
	if err == nil && len(snaps) == 0 {
		err = ErrNoTable
	}
	return snaps, err
}

// commit appends a log entry with optimistic concurrency: a conditional
// PUT of the version after the newest this handle has seen, with no
// LIST. The validate callback (may be nil) checks the operation's plan
// against the snapshot at that version — the one the PUT proves nothing
// intervened on — and again after every lost race; it may return
// ErrConflict to abort. A handle that has read nothing reads first, so
// a commit on a root with no log is ErrNoTable and writes nothing.
func (t *Table) commit(ctx context.Context, op string, actions []Action, validate func(*Snapshot) error) (int64, error) {
	version, err := t.log.Commit(ctx, func(version int64) ([]byte, error) {
		return json.Marshal(Commit{Version: version, Timestamp: t.clock.Now(), Operation: op, Actions: actions})
	}, func(cur *Snapshot) error {
		if cur == nil {
			return ErrNoTable
		}
		if validate == nil {
			return nil
		}
		return validate(cur)
	})
	if errors.Is(err, txlog.ErrContended) {
		return 0, fmt.Errorf("%w: %w", err, ErrConflict)
	}
	if err != nil {
		return 0, err
	}
	t.onCommit.fire(version)
	return version, nil
}

// newFileName returns a fresh random data-file name, mirroring the
// UUID-named Parquet files of real lakes.
func newFileName(ext string) string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(err) // crypto/rand does not fail on supported platforms
	}
	return hex.EncodeToString(b[:]) + ext
}

// PendingFile describes a data file staged by WriteFile but not yet
// committed: invisible to every snapshot until CommitFiles lands it.
// Paths are random, so a pending file's presence in a later snapshot
// uniquely identifies its commit — the ingest writer's exactly-once
// check relies on this.
type PendingFile struct {
	// Path is the file key relative to the table root.
	Path string
	// Rows and Size mirror the AddFile action to come.
	Rows int64
	Size int64
	// Stats holds per-column min/max recorded at write time.
	Stats map[string]ColumnStats
}

// add is the log action that makes the staged file part of the table.
func (f PendingFile) add() Action {
	return Action{Add: &AddFile{Path: f.Path, Rows: f.Rows, Size: f.Size, Stats: f.Stats}}
}

// WriteFile stages the batch as a new data file without committing
// it. The upload is idempotent (unique random path, plain PUT), so a
// caller may safely retry it, and an uncommitted staged file is
// garbage that Vacuum eventually collects.
func (t *Table) WriteFile(ctx context.Context, b *parquet.Batch, opts parquet.WriterOptions) (PendingFile, error) {
	path := "data/" + newFileName(".rpq")
	w := parquet.NewFileWriter(b.Schema, opts)
	if err := w.Append(b); err != nil {
		return PendingFile{}, err
	}
	data, meta, err := w.Close()
	if err != nil {
		return PendingFile{}, err
	}
	if err := t.store.Put(ctx, t.root+path, data); err != nil {
		return PendingFile{}, err
	}
	return PendingFile{Path: path, Rows: meta.NumRows, Size: int64(len(data)), Stats: statsFromMeta(meta)}, nil
}

// CommitFiles commits staged files in one log round: N batches become
// N Add actions in a single entry, so a group of micro-batches costs
// one conditional PUT instead of one per batch. It returns the
// committed version.
func (t *Table) CommitFiles(ctx context.Context, files ...PendingFile) (int64, error) {
	if len(files) == 0 {
		return 0, fmt.Errorf("lake: commit of zero files")
	}
	actions := make([]Action, len(files))
	for i, f := range files {
		actions[i] = f.add()
	}
	return t.commit(ctx, "APPEND", actions, nil)
}

// Append writes the batch as a new data file and commits it, with
// per-column min/max stats recorded in the log entry.
func (t *Table) Append(ctx context.Context, b *parquet.Batch, opts parquet.WriterOptions) (string, error) {
	pf, err := t.WriteFile(ctx, b, opts)
	if err != nil {
		return "", err
	}
	if _, err := t.CommitFiles(ctx, pf); err != nil {
		return "", err
	}
	return pf.Path, nil
}

// statsFromMeta folds a file's chunk-level min/max statistics into
// file-level per-column stats for the log.
func statsFromMeta(meta *parquet.FileMeta) map[string]ColumnStats {
	stats := make(map[string]ColumnStats, len(meta.Schema.Columns))
	for ci, col := range meta.Schema.Columns {
		var s ColumnStats
		for _, g := range meta.RowGroups {
			chunk := g.Chunks[ci]
			if len(chunk.Min) == 0 && len(chunk.Max) == 0 {
				continue
			}
			if s.Min == nil || bytes.Compare(chunk.Min, s.Min) < 0 {
				s.Min = chunk.Min
			}
			if s.Max == nil || bytes.Compare(chunk.Max, s.Max) > 0 {
				s.Max = chunk.Max
			}
		}
		if s.Min != nil || s.Max != nil {
			stats[col.Name] = s
		}
	}
	if len(stats) == 0 {
		return nil
	}
	return stats
}

// Compact merges every active data file smaller than smallBytes into
// new files of roughly targetRows rows, dropping rows masked by
// deletion vectors. It returns the paths of the new files. Compaction
// is the lake-side maintenance operation that invalidates Rottnest
// index files pointing at the old physical locations.
func (t *Table) Compact(ctx context.Context, smallBytes int64, targetRows int64) ([]string, error) {
	snap, err := t.Snapshot(ctx)
	if err != nil {
		return nil, err
	}
	var inputs []DataFile
	for _, f := range snap.Files {
		if f.Size < smallBytes {
			inputs = append(inputs, f)
		}
	}
	if len(inputs) < 2 {
		return nil, nil
	}
	if targetRows <= 0 {
		targetRows = 1 << 20
	}

	// Read and concatenate inputs, applying deletion vectors.
	merged := parquet.NewBatch(snap.Schema)
	for _, f := range inputs {
		batch, _, err := parquet.ReadAll(ctx, t.store, t.root+f.Path)
		if err != nil {
			return nil, fmt.Errorf("lake: compact read %s: %w", f.Path, err)
		}
		dv, err := t.ReadDeletionVector(ctx, f)
		if err != nil {
			return nil, err
		}
		for ci := range merged.Cols {
			merged.Cols[ci] = merged.Cols[ci].Append(filterDeleted(batch.Cols[ci], dv))
		}
	}

	// Write replacement files of ~targetRows each.
	var actions []Action
	var newPaths []string
	total := merged.NumRows()
	for start := 0; start < total; start += int(targetRows) {
		end := start + int(targetRows)
		if end > total {
			end = total
		}
		part := parquet.NewBatch(snap.Schema)
		for ci := range part.Cols {
			part.Cols[ci] = merged.Cols[ci].Slice(start, end)
		}
		pf, err := t.WriteFile(ctx, part, parquet.WriterOptions{})
		if err != nil {
			return nil, err
		}
		actions = append(actions, pf.add())
		newPaths = append(newPaths, pf.Path)
	}
	for _, f := range inputs {
		actions = append(actions, Action{Remove: &RemoveFile{Path: f.Path}})
	}

	// Validate on commit that the inputs are still active and their
	// deletion vectors unchanged (a racing compactor or row delete
	// would otherwise be silently lost — resurrecting deleted rows).
	_, err = t.commit(ctx, "COMPACT", actions, func(latest *Snapshot) error {
		for _, f := range inputs {
			cur, ok := latest.File(f.Path)
			if !ok {
				return fmt.Errorf("lake: compaction input %s removed concurrently: %w", f.Path, ErrConflict)
			}
			if cur.DVPath != f.DVPath {
				return fmt.Errorf("lake: compaction input %s deleted-from concurrently: %w", f.Path, ErrConflict)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return newPaths, nil
}

// filterDeleted drops values at rows marked in the deletion vector.
func filterDeleted(v parquet.ColumnValues, dv *DeletionVector) parquet.ColumnValues {
	if dv.Len() == 0 {
		return v
	}
	var out parquet.ColumnValues
	n := v.Len()
	for i := 0; i < n; i++ {
		if dv.Contains(uint32(i)) {
			continue
		}
		out = out.Append(v.Slice(i, i+1))
	}
	return out
}

// ReadDeletionVector loads the deletion vector for a snapshot file,
// returning an empty vector when none exists. Search paths use it to
// mask deleted rows during in-situ probing.
func (t *Table) ReadDeletionVector(ctx context.Context, f DataFile) (*DeletionVector, error) {
	if f.DVPath == "" {
		return NewDeletionVector(), nil
	}
	data, err := t.store.Get(ctx, t.root+f.DVPath)
	if err != nil {
		return nil, fmt.Errorf("lake: read dv %s: %w", f.DVPath, err)
	}
	return ParseDeletionVector(data)
}

// DeleteRows marks file-local rows of one data file as deleted by
// writing a new deletion vector (merged with any existing one) and
// committing it.
func (t *Table) DeleteRows(ctx context.Context, path string, rows []uint32) error {
	snap, err := t.Snapshot(ctx)
	if err != nil {
		return err
	}
	f, ok := snap.File(path)
	if !ok {
		return fmt.Errorf("lake: delete from inactive file %s: %w", path, ErrConflict)
	}
	dv, err := t.ReadDeletionVector(ctx, f)
	if err != nil {
		return err
	}
	for _, r := range rows {
		dv.Add(r)
	}
	dvPath := "dv/" + newFileName(".dv")
	if err := t.store.Put(ctx, t.root+dvPath, dv.Serialize()); err != nil {
		return err
	}
	_, err = t.commit(ctx, "DELETE", []Action{{DV: &AddDV{File: path, Path: dvPath, Deleted: int64(dv.Len())}}}, func(latest *Snapshot) error {
		cur, ok := latest.File(path)
		if !ok {
			return fmt.Errorf("lake: file %s removed concurrently: %w", path, ErrConflict)
		}
		if cur.DVPath != f.DVPath {
			// A racing delete landed; our merged vector would drop
			// its rows.
			return fmt.Errorf("lake: file %s deleted-from concurrently: %w", path, ErrConflict)
		}
		return nil
	})
	return err
}

// Vacuum physically deletes data and deletion-vector files that are
// not referenced by any snapshot at or after keepVersion and whose age
// exceeds minAge (protecting in-flight writers). It returns the keys
// removed.
func (t *Table) Vacuum(ctx context.Context, keepVersion int64, minAge time.Duration) ([]string, error) {
	retained, err := t.SnapshotsSince(ctx, keepVersion)
	if err != nil {
		return nil, err
	}
	referenced := make(map[string]bool)
	for _, snap := range retained {
		for _, f := range snap.Files {
			referenced[f.Path] = true
			if f.DVPath != "" {
				referenced[f.DVPath] = true
			}
		}
	}
	cutoff := t.clock.Now().Add(-minAge)
	var removed []string
	for _, prefix := range []string{"data/", "dv/"} {
		infos, err := t.store.List(ctx, t.root+prefix)
		if err != nil {
			return nil, err
		}
		for _, info := range infos {
			rel := info.Key[len(t.root):]
			if referenced[rel] || info.Created.After(cutoff) {
				continue
			}
			if err := t.store.Delete(ctx, info.Key); err != nil {
				return nil, err
			}
			removed = append(removed, rel)
		}
	}
	if len(removed) > 0 {
		t.onVacuum.fire(removed)
	}
	return removed, nil
}
