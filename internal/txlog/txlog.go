// Package txlog is the one transaction log of the repository: an
// append-only, checkpointed log of conditional PUTs on an object store.
// The lake table and the Rottnest metadata table are two typed
// instances of it (the paper's "same log-commit technique").
//
// A log lives under one key prefix: record v is <dir>%020d.json, the
// checkpoint of the state at v is <dir>checkpoint-%020d.json. Three
// invariants carry everything below: the log is append-only, gap-free,
// and immutable record by record. So what a handle has read of it stays
// true, and the slot after the newest version it has seen is either
// free or taken by a concurrent writer — never skipped.
//
// A handle therefore remembers two things. seen, the newest version it
// has read, listed or written: a commit is PutIfAbsent(seen+1) with no
// listing first, and only ErrExists sends it back to the store. And
// replayed, the state as of the newest version it has replayed, which
// is never modified once published (Format.Apply copies): a read starts
// from it and fetches only the records above, a successful commit
// applies its own record to it, and a checkpoint is marshalled from it.
package txlog

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"rottnest/internal/objectstore"
	"rottnest/internal/simtime"
)

// Errors returned by a log.
var (
	// ErrNoVersion reports a read of a version the log does not hold.
	ErrNoVersion = errors.New("txlog: version not found")
	// ErrAmbiguous reports that a commit's conditional PUT failed in a
	// way that reading the record back could not resolve: the commit may
	// or may not have landed.
	ErrAmbiguous = errors.New("txlog: commit outcome ambiguous")
	// ErrContended reports a commit that lost every one of its attempts
	// to a concurrent writer.
	ErrContended = errors.New("txlog: commit retries exhausted")
)

// maxAttempts bounds one commit's conditional PUTs.
const maxAttempts = 32

// Format is what makes a log of states S out of bytes.
type Format[S any] struct {
	// Name prefixes error messages ("lake", "meta").
	Name string
	// Interval is how many commits lie between automatic checkpoints.
	Interval int64
	// Apply returns the state at version reached by applying records,
	// oldest first, to base (the zero S is the empty log). It must not
	// modify base: published states are shared.
	Apply func(base S, version int64, records [][]byte) (S, error)
	// EncodeCheckpoint and DecodeCheckpoint serialize the state at one
	// version.
	EncodeCheckpoint func(version int64, state S) ([]byte, error)
	DecodeCheckpoint func(data []byte) (version int64, state S, err error)
}

// state is the log's state as of one version; version 0 is the empty
// log and says nothing about the store.
type state[S any] struct {
	version int64
	val     S
}

// Log is a handle to the log under one key prefix.
type Log[S any] struct {
	store objectstore.Store
	dir   string
	f     Format[S]

	seen     atomic.Int64
	replayed atomic.Pointer[state[S]]
}

// New returns a handle to the log under dir. It issues no request.
func New[S any](store objectstore.Store, dir string, f Format[S]) *Log[S] {
	l := &Log[S]{store: store, dir: dir, f: f}
	l.replayed.Store(&state[S]{})
	return l
}

// RecordKey returns the key of record version under dir, zero-padded
// so lexicographic listing equals version order.
func RecordKey(dir string, version int64) string {
	return fmt.Sprintf("%s%020d.json", dir, version)
}

// CheckpointKey returns the key of the checkpoint at version.
func CheckpointKey(dir string, version int64) string {
	return fmt.Sprintf("%scheckpoint-%020d.json", dir, version)
}

// ParseKey parses a key under dir into its version and whether it names
// a checkpoint; ok is false for any other object.
func ParseKey(dir, key string) (version int64, checkpoint, ok bool) {
	name, found := strings.CutPrefix(key, dir)
	if !found {
		return 0, false, false
	}
	name, checkpoint = strings.CutPrefix(name, "checkpoint-")
	name, found = strings.CutSuffix(name, ".json")
	if !found || len(name) != 20 {
		return 0, false, false
	}
	for _, c := range name {
		if c < '0' || c > '9' {
			return 0, false, false
		}
		version = version*10 + int64(c-'0')
	}
	return version, checkpoint, true
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

// publish makes st the remembered state unless a newer one is.
func (l *Log[S]) publish(st *state[S]) {
	raise(&l.seen, st.version)
	for {
		cur := l.replayed.Load()
		if cur.version >= st.version || l.replayed.CompareAndSwap(cur, st) {
			return
		}
	}
}

// listing is one LIST of the log: record versions with their keys, and
// checkpoint versions, each ascending; and, when the LIST covered more
// than the log, the objects outside its dir.
type listing struct {
	records, checkpoints []int64
	keys                 []string
	others               []objectstore.ObjectInfo
}

func (ls listing) head() int64 {
	if len(ls.records) == 0 {
		return 0
	}
	return ls.records[len(ls.records)-1]
}

func (ls listing) has(version int64) bool {
	i := sort.Search(len(ls.records), func(i int) bool { return ls.records[i] >= version })
	return i < len(ls.records) && ls.records[i] == version
}

// list LISTs prefix, the log's dir or a prefix of it.
func (l *Log[S]) list(ctx context.Context, prefix string) (listing, error) {
	infos, err := l.store.List(ctx, prefix)
	if err != nil {
		return listing{}, fmt.Errorf("%s: list log: %w", l.f.Name, err)
	}
	ls := listing{records: make([]int64, 0, len(infos)), keys: make([]string, 0, len(infos))}
	for _, info := range infos {
		switch v, checkpoint, ok := ParseKey(l.dir, info.Key); {
		case !strings.HasPrefix(info.Key, l.dir):
			ls.others = append(ls.others, info)
		case !ok:
		case checkpoint:
			ls.checkpoints = append(ls.checkpoints, v)
		default:
			ls.records, ls.keys = append(ls.records, v), append(ls.keys, info.Key)
		}
	}
	raise(&l.seen, ls.head())
	return ls, nil
}

// Head lists the log and returns its newest version, 0 when it is empty.
func (l *Log[S]) Head(ctx context.Context) (int64, error) {
	ls, err := l.list(ctx, l.dir)
	return ls.head(), err
}

func (l *Log[S]) apply(base *state[S], version int64, records [][]byte) (*state[S], error) {
	val, err := l.f.Apply(base.val, version, records)
	if err != nil {
		return nil, fmt.Errorf("%s: replay to %d: %w", l.f.Name, version, err)
	}
	return &state[S]{version, val}, nil
}

// replay returns the state at every listed version in [from, to], oldest
// first, from one fan, which also runs beside when it is set. It starts
// from the newest state at or below from it can: rem, what the handle
// remembers — if the listing still holds the record it stopped at; a
// log that lost it is not the log it remembers — or the newest
// checkpoint when that is newer, fetched in the same fan as the records
// above it (the LIST names both). A checkpoint that is missing or does
// not parse costs a second fan, over the log from its start.
func (l *Log[S]) replay(ctx context.Context, ls listing, rem *state[S], from, to int64, beside func(context.Context)) ([]S, error) {
	base, cp := &state[S]{}, int64(0)
	if i := sort.Search(len(ls.checkpoints), func(i int) bool { return ls.checkpoints[i] > from }); i > 0 {
		cp = ls.checkpoints[i-1]
	}
	var reqs []objectstore.RangeRequest
	if rem.version >= cp && rem.version <= from && ls.has(rem.version) {
		base, cp = rem, 0
	} else if cp > 0 {
		base = &state[S]{version: cp}
		reqs = append(reqs, objectstore.RangeRequest{Key: CheckpointKey(l.dir, cp), Length: -1})
	}
	lo := sort.Search(len(ls.records), func(i int) bool { return ls.records[i] > base.version })
	hi := sort.Search(len(ls.records), func(i int) bool { return ls.records[i] > to })
	versions := ls.records[lo:hi]
	for _, key := range ls.keys[lo:hi] {
		reqs = append(reqs, objectstore.RangeRequest{Key: key, Length: -1})
	}
	var bodies [][]byte
	var err error
	if beside == nil {
		bodies, err = objectstore.FanGet(ctx, l.store, reqs)
	} else {
		err = simtime.Fan(ctx, 2, 0, func(ctx context.Context, i int) (err error) {
			if i == 0 {
				bodies, err = objectstore.FanGet(ctx, l.store, reqs)
			} else {
				beside(ctx)
			}
			return err
		})
	}
	if err != nil {
		err = fmt.Errorf("%s: read log: %w", l.f.Name, err)
	} else if cp > 0 {
		var v int64
		if v, base.val, err = l.f.DecodeCheckpoint(bodies[0]); err == nil && v != cp {
			err = fmt.Errorf("%s: checkpoint %d holds version %d", l.f.Name, cp, v)
		}
		bodies = bodies[1:]
	}
	if err != nil {
		if cp > 0 {
			return l.replay(ctx, listing{records: ls.records, keys: ls.keys}, &state[S]{}, from, to, nil)
		}
		return nil, err
	}
	// One Apply up to from, then one per version above it.
	upto := sort.Search(len(versions), func(i int) bool { return versions[i] > from })
	st := base
	if upto > 0 {
		if st, err = l.apply(st, versions[upto-1], bodies[:upto]); err != nil {
			return nil, err
		}
	}
	var out []S
	if st.version == from {
		out = append(out, st.val)
	}
	for i := upto; i < len(versions); i++ {
		if st, err = l.apply(st, versions[i], bodies[i:i+1]); err != nil {
			return nil, err
		}
		out = append(out, st.val)
	}
	l.publish(st)
	return out, nil
}

// Read returns the state at version and that version; version < 0 means
// the newest, and an empty log reads as the zero S at version 0. The
// newest state costs a LIST and the records the handle has not seen. A
// version the handle knows to exist, at or above the state it remembers,
// costs no LIST — the handle can write that stretch of the listing down
// itself — and no request at all when it is the one remembered; a key
// missing there sends the read to the LIST. The returned state is
// shared: callers must not modify it.
func (l *Log[S]) Read(ctx context.Context, version int64) (S, int64, error) {
	var none S
	rem := l.replayed.Load()
	if rem.version > 0 && rem.version == version {
		return rem.val, version, nil
	}
	if rem.version > 0 && rem.version < version && version <= l.seen.Load() && version-rem.version <= l.f.Interval {
		var known listing
		for v := rem.version; v <= version; v++ {
			known.records, known.keys = append(known.records, v), append(known.keys, RecordKey(l.dir, v))
		}
		states, err := l.replay(ctx, known, rem, version, version, nil)
		if err == nil {
			return states[0], version, nil
		}
		if !errors.Is(err, objectstore.ErrNotFound) {
			return none, 0, err
		}
	}
	return l.read(ctx, version, l.dir, nil)
}

// ReadBeside is Read(ctx, -1) with its one LIST over prefix, the log's
// dir or a prefix of it. beside, when set, gets the listed objects
// outside the log's dir and runs in the same fan as the records the
// read fetches; a LIST that finds the log empty runs no beside.
func (l *Log[S]) ReadBeside(ctx context.Context, prefix string, beside func(ctx context.Context, others []objectstore.ObjectInfo)) (S, int64, error) {
	return l.read(ctx, -1, prefix, beside)
}

// read is Read past the remembered state: one LIST of prefix, then one
// fan that replays to version and runs beside.
func (l *Log[S]) read(ctx context.Context, version int64, prefix string, beside func(context.Context, []objectstore.ObjectInfo)) (S, int64, error) {
	var none S
	ls, err := l.list(ctx, prefix)
	if err != nil {
		return none, 0, err
	}
	switch {
	case version < 0:
		version = ls.head()
	case !ls.has(version):
		return none, 0, fmt.Errorf("%s: %w: %d", l.f.Name, ErrNoVersion, version)
	}
	if version == 0 {
		return none, 0, nil
	}
	var fanBeside func(context.Context)
	if beside != nil {
		fanBeside = func(ctx context.Context) { beside(ctx, ls.others) }
	}
	states, err := l.replay(ctx, ls, l.replayed.Load(), version, version, fanBeside)
	if err != nil {
		return none, 0, err
	}
	return states[0], version, nil
}

// ReadFrom returns the state at every version from `from` through the
// newest, oldest first, from one LIST and one fan; a from past the
// newest means the newest only. An empty log returns none.
func (l *Log[S]) ReadFrom(ctx context.Context, from int64) ([]S, error) {
	ls, err := l.list(ctx, l.dir)
	if err != nil || ls.head() == 0 {
		return nil, err
	}
	return l.replay(ctx, ls, l.replayed.Load(), min(max(from, 1), ls.head()), ls.head(), nil)
}

// Commit appends the record encode returns for the next version. It
// tries the slot after the newest version the handle has seen, with no
// LIST; ErrExists means a concurrent writer took it, so it reads the
// records it has not seen and tries again, 32 attempts in all.
//
// validate, if set, checks the operation against the state at seen
// before every attempt and may abort the commit with its error. That is
// sound because it is exactly the state the conditional PUT proves
// nothing intervened on: the PUT lands only if seen+1 was free. A handle
// that remembers nothing has nothing to validate against and reads the
// log first (validate then sees the zero S of an empty log); with no
// validate it tries slot 1 blind.
func (l *Log[S]) Commit(ctx context.Context, encode func(version int64) ([]byte, error), validate func(S) error) (int64, error) {
	for attempt := 0; attempt < maxAttempts; attempt++ {
		next := l.seen.Load() + 1
		if validate != nil {
			version := next - 1
			if l.replayed.Load().version == 0 {
				version = -1
			}
			cur, version, err := l.Read(ctx, version)
			if err != nil {
				return 0, err
			}
			if err := validate(cur); err != nil {
				return 0, err
			}
			next = version + 1
		}
		data, err := encode(next)
		if err != nil {
			return 0, err
		}
		err = l.store.PutIfAbsent(ctx, RecordKey(l.dir, next), data)
		if err != nil && !errors.Is(err, objectstore.ErrExists) {
			err = l.readBack(ctx, next, data, err)
		}
		if err == nil {
			l.landed(ctx, next, data)
			return next, nil
		}
		if !errors.Is(err, objectstore.ErrExists) {
			return 0, err
		}
		// Lost the race: find where the end moved to.
		if _, _, err := l.Read(ctx, -1); err != nil {
			return 0, err
		}
	}
	return 0, fmt.Errorf("%s: %w", l.f.Name, ErrContended)
}

// readBack resolves a conditional PUT that failed with neither success
// nor a clean loss. On stores without a retry layer an ambiguous put
// (the write landed, the response was lost) surfaces that way; reading
// the record back and comparing payloads tells a landed commit (nil)
// from a lost race (ErrExists) from nothing written (the PUT's error),
// so a commit is reported exactly once per version it wrote.
func (l *Log[S]) readBack(ctx context.Context, version int64, payload []byte, putErr error) error {
	got, err := l.store.Get(ctx, RecordKey(l.dir, version))
	switch {
	case err == nil && bytes.Equal(got, payload):
		return nil
	case err == nil:
		return objectstore.ErrExists
	case errors.Is(err, objectstore.ErrNotFound):
		return putErr
	default:
		return fmt.Errorf("%s: %w: put %w, read-back %v", l.f.Name, ErrAmbiguous, putErr, err)
	}
}

// landed records the handle's own commit: it applies the record to the
// remembered state when that is the state just below it, and writes a
// checkpoint from the remembered state after every Interval-th version.
// The checkpoint is best effort — a failed write never fails the commit,
// and an identical re-write by a racing committer is harmless (the
// content is deterministic for a version).
func (l *Log[S]) landed(ctx context.Context, version int64, data []byte) {
	raise(&l.seen, version)
	if rem := l.replayed.Load(); rem.version == version-1 {
		if st, err := l.apply(rem, version, [][]byte{data}); err == nil {
			l.publish(st)
		}
	}
	if version%l.f.Interval != 0 {
		return
	}
	val, _, err := l.Read(ctx, version)
	if err != nil {
		return
	}
	if cp, err := l.f.EncodeCheckpoint(version, val); err == nil {
		_ = l.store.Put(ctx, CheckpointKey(l.dir, version), cp)
	}
}
