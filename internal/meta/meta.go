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
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"rottnest/internal/component"
	"rottnest/internal/objectstore"
	"rottnest/internal/simtime"
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

// Table is a handle to the metadata table under a key prefix.
type Table struct {
	store objectstore.Store
	clock simtime.Clock
	root  string
	// The handle's memory of the log, which is append-only, never
	// truncated, and immutable record by record. seen is the newest
	// version the handle has read or written: seen+1 is either the next
	// free slot or one a concurrent writer took — never a gap — so a
	// commit tries it without listing the log first. replayed is the
	// live entry set as of the newest version the handle has replayed,
	// so the next replay fetches only the records above it.
	seen     atomic.Int64
	replayed atomic.Pointer[logState]
}

// logState is the live entry set as of one log version. A published
// state is never modified: a replay copies the map before applying
// records to it.
type logState struct {
	version int64
	entries map[string]IndexEntry
}

// raise moves v forward to at least to.
func raise(v *atomic.Int64, to int64) {
	for {
		cur := v.Load()
		if to <= cur || v.CompareAndSwap(cur, to) {
			return
		}
	}
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
	return &Table{store: store, clock: clock, root: prefix}
}

// Root returns the table's key prefix.
func (t *Table) Root() string { return t.root }

func (t *Table) key(version int64) string {
	return fmt.Sprintf("%s%020d.json", t.root, version)
}

func (t *Table) parseVersion(key string) (int64, bool) {
	name := strings.TrimSuffix(strings.TrimPrefix(key, t.root), ".json")
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

// checkpointInterval is how many commits between automatic metadata
// checkpoints; like the lake's, they keep log replay cost flat.
const checkpointInterval = 32

// metaCheckpoint is the serialized live-entry set at one version.
type metaCheckpoint struct {
	Version int64        `json:"version"`
	Entries []IndexEntry `json:"entries"`
}

func (t *Table) checkpointKey(version int64) string {
	return fmt.Sprintf("%scheckpoint-%020d.json", t.root, version)
}

func (t *Table) parseCheckpointVersion(key string) (int64, bool) {
	name := strings.TrimPrefix(key, t.root+"checkpoint-")
	if name == key || !strings.HasSuffix(name, ".json") {
		return 0, false
	}
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

// maybeCheckpoint writes a checkpoint after every checkpointInterval-th
// commit (best effort; failures are invisible).
func (t *Table) maybeCheckpoint(ctx context.Context, version int64) {
	if version%checkpointInterval != 0 {
		return
	}
	entries, latest, err := t.readAll(ctx)
	if err != nil || latest != version {
		return
	}
	cp := metaCheckpoint{Version: version}
	for _, e := range entries {
		cp.Entries = append(cp.Entries, e)
	}
	sortEntries(cp.Entries)
	data, err := json.Marshal(cp)
	if err != nil {
		return
	}
	_ = t.store.Put(ctx, t.checkpointKey(version), data)
}

// readAll replays the log and returns the live entries plus the
// latest version. A replay starts from the newest state it can: what
// this handle replayed last, or the newest checkpoint when that is
// newer (or the handle has replayed nothing). A checkpoint is fetched
// in the same parallel fan as the records above it (the LIST names
// both), so a replay is LIST + at most one round trip however long the
// log grows, and LIST alone when nothing was committed since the
// handle's last. A checkpoint that is missing or does not parse costs
// a second fan over the whole log instead.
func (t *Table) readAll(ctx context.Context) (map[string]IndexEntry, int64, error) {
	infos, err := t.store.List(ctx, t.root)
	if err != nil {
		return nil, 0, fmt.Errorf("meta: list log: %w", err)
	}
	cpVersion, cpKey := int64(0), ""
	for _, info := range infos {
		if v, ok := t.parseCheckpointVersion(info.Key); ok && v > cpVersion {
			cpVersion, cpKey = v, info.Key
		}
	}
	var state logState
	if base := t.replayed.Load(); base != nil && base.version >= cpVersion && t.listed(infos, base.version) {
		state, err = t.fanLog(ctx, infos, "", *base)
	} else {
		if cpKey != "" {
			state, err = t.fanLog(ctx, infos, cpKey, logState{version: cpVersion})
		}
		if cpKey == "" || err != nil {
			state, err = t.fanLog(ctx, infos, "", logState{})
		}
	}
	if err != nil {
		return nil, 0, err
	}
	raise(&t.seen, state.version)
	for {
		cur := t.replayed.Load()
		if (cur != nil && cur.version >= state.version) || t.replayed.CompareAndSwap(cur, &state) {
			return state.entries, state.version, nil
		}
	}
}

// listed reports whether the listing still holds the record at
// version: a handle's memory is only as good as the log it was read
// from, and a log that lost that record is not that log.
func (t *Table) listed(infos []objectstore.ObjectInfo, version int64) bool {
	key := t.key(version)
	i := sort.Search(len(infos), func(i int) bool { return infos[i].Key >= key })
	return i < len(infos) && infos[i].Key == key
}

// fanLog replays the records above base in one fan and returns the
// state they lead to. With cpKey set, base's entries are the
// checkpoint there (of base's version), fetched in the same fan;
// otherwise they are what the caller holds (none, from the start of
// the log), and are not modified.
func (t *Table) fanLog(ctx context.Context, infos []objectstore.ObjectInfo, cpKey string, base logState) (logState, error) {
	var keys []string
	if cpKey != "" {
		keys = append(keys, cpKey)
	}
	latest := base.version
	for _, info := range infos {
		v, ok := t.parseVersion(info.Key)
		if !ok || v <= base.version {
			continue
		}
		if v > latest {
			latest = v
		}
		keys = append(keys, info.Key)
	}
	if len(keys) == 0 && base.entries != nil {
		return base, nil
	}
	reqs := make([]objectstore.RangeRequest, len(keys))
	for i, k := range keys {
		reqs[i] = objectstore.RangeRequest{Key: k, Offset: 0, Length: -1}
	}
	bodies, err := objectstore.FanGet(ctx, t.store, reqs)
	if err != nil {
		return logState{}, fmt.Errorf("meta: read log: %w", err)
	}
	entries := make(map[string]IndexEntry, len(base.entries))
	for k, e := range base.entries {
		entries[k] = e
	}
	if cpKey != "" {
		var cp metaCheckpoint
		if err := json.Unmarshal(bodies[0], &cp); err != nil || cp.Version != base.version {
			return logState{}, fmt.Errorf("meta: unusable checkpoint %s", cpKey)
		}
		for _, e := range cp.Entries {
			entries[e.IndexKey] = e
		}
		keys, bodies = keys[1:], bodies[1:]
	}
	for i, data := range bodies {
		var rec record
		if err := json.Unmarshal(data, &rec); err != nil {
			return logState{}, fmt.Errorf("meta: parse %s: %w", keys[i], err)
		}
		for _, k := range rec.Deletes {
			delete(entries, k)
		}
		for _, e := range rec.Inserts {
			entries[e.IndexKey] = e
		}
	}
	return logState{version: latest, entries: entries}, nil
}

// List returns every live entry of the table.
func (t *Table) List(ctx context.Context) ([]IndexEntry, error) {
	entries, _, err := t.readAll(ctx)
	if err != nil {
		return nil, err
	}
	out := make([]IndexEntry, 0, len(entries))
	for _, e := range entries {
		out = append(out, e)
	}
	sortEntries(out)
	return out, nil
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

func sortEntries(entries []IndexEntry) {
	for i := 1; i < len(entries); i++ {
		for j := i; j > 0 && entries[j].IndexKey < entries[j-1].IndexKey; j-- {
			entries[j], entries[j-1] = entries[j-1], entries[j]
		}
	}
}

// commit appends a record with optimistic concurrency. A record says
// what to insert and delete, not what the table held, so the only
// thing a commit needs from the log is the next version number — and
// the handle's last read or commit already told it that. It tries that
// slot directly; only when another writer got there first does it read
// the log to find where the end moved to.
func (t *Table) commit(ctx context.Context, inserts []IndexEntry, deletes []string) error {
	for attempt := 0; attempt < 32; attempt++ {
		next := t.seen.Load() + 1
		rec := record{Version: next, Inserts: inserts, Deletes: deletes}
		data, err := json.Marshal(rec)
		if err != nil {
			return fmt.Errorf("meta: encode record: %w", err)
		}
		err = t.store.PutIfAbsent(ctx, t.key(next), data)
		if err == nil {
			raise(&t.seen, next)
			t.maybeCheckpoint(ctx, next)
			return nil
		}
		if !errors.Is(err, objectstore.ErrExists) {
			return err
		}
		if _, _, err := t.readAll(ctx); err != nil {
			return err
		}
	}
	return fmt.Errorf("meta: commit retries exhausted")
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
