package core

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"rottnest/internal/component"
	"rottnest/internal/meta"
	"rottnest/internal/obs"
	"rottnest/internal/simtime"
)

// output is one index file a publish lands: its manifest (component
// 0), what its build adds after it, and the row it replaces, if any.
type output struct {
	manifest *Manifest
	build    func(context.Context, *component.Builder) error
	replaces *meta.IndexEntry
}

// publish is the one commit protocol behind Index, Compact and
// RefineVectorIndex (Sections IV-A and IV-C): everything that makes
// new index files visible, and everything that keeps the Existence
// invariant while doing so. An index job lands one output per spec it
// covers; a merge or a refinement lands one.
//
//  1. Build each output in turn: manifest as component 0, then
//     whatever its build adds, under "<op>.build". One at a time, so
//     the job holds one build's working set, not all of them.
//  2. Upload every output under a fresh key ("<op>.upload", indexKey),
//     side by side: the unit's directory, the metadata version planned
//     is the build order, a random name. Upload precedes commit, so a
//     metadata row never names a missing object.
//  3. Timeout: an operation that began more than Config.Timeout ago
//     (by the world clock, measured from start) must not commit —
//     vacuum judges orphans by that same clock and may already be
//     collecting the uploads. It aborts with ErrTimeout and leaves the
//     uploads for vacuum.
//  4. Commit ("<op>.commit"): one metadata record inserts every new
//     row and, when an output replaces another file covering exactly
//     the same data (refine), deletes the replaced rows (meta.Replace).
//     The swap is atomic, and the old row must go: greedy cover
//     selection breaks ties toward the earlier-listed entry, so leaving
//     it would keep serving the replaced index forever. The metadata
//     table changed without a lake commit, so cached plans are
//     dropped, once.
//  5. Re-check the timeout after commit: the clock can pass the
//     deadline between step 3 and the insert, and any vacuum that
//     collected an upload ran after the deadline, so the overshoot is
//     always visible here. Roll back ("<op>.rollback") — one record
//     restores the replaced rows, whose objects a vacuum only deletes
//     after their rows are gone, and they were not until step 4, and
//     deletes every inserted row — and return ErrTimeout; the caller
//     retries cleanly.
//
// The entries are the outputs', in order; each one's file list and row
// count are its manifest's. planned is the metadata version the
// operation planned against; every operation but an index job
// (compact, refine) replaces entries, and its keys carry the merge
// mark.
func (c *Client) publish(ctx context.Context, op string, start time.Time, planned int64, outs ...output) ([]meta.IndexEntry, error) {
	entries := make([]meta.IndexEntry, len(outs))
	data := make([][]byte, len(outs))
	files := 0
	for i, out := range outs {
		var err error
		if entries[i], data[i], err = c.buildOutput(ctx, op, planned, out); err != nil {
			return nil, err
		}
		files += len(entries[i].Files)
	}

	err := simtime.Fan(ctx, len(outs), 0, func(ctx context.Context, i int) error {
		uctx, uploadSpan := obs.Start(ctx, op+".upload")
		defer uploadSpan.End()
		uploadSpan.SetAttr("key", entries[i].IndexKey)
		err := c.store.Put(uctx, entries[i].IndexKey, data[i])
		data[i] = nil
		return err
	})
	if err != nil {
		return nil, err
	}

	if c.clock.Now().Sub(start) > c.cfg.Timeout {
		return nil, fmt.Errorf("core: %s of %d files: %w", op, files, ErrTimeout)
	}
	var replaced []meta.IndexEntry
	for _, out := range outs {
		if out.replaces != nil {
			replaced = append(replaced, *out.replaces)
		}
	}
	cctx, commitSpan := obs.Start(ctx, op+".commit")
	defer commitSpan.End()
	if err := c.meta.Replace(cctx, entries, indexKeys(replaced)); err != nil {
		return nil, err
	}
	c.metaChanged()
	commitSpan.End()

	if c.clock.Now().Sub(start) > c.cfg.Timeout {
		rctx, rollbackSpan := obs.Start(ctx, op+".rollback")
		defer rollbackSpan.End()
		if err := c.meta.Replace(rctx, replaced, indexKeys(entries)); err != nil {
			return nil, err
		}
		c.metaChanged()
		return nil, fmt.Errorf("core: %s of %d files overran commit: %w", op, files, ErrTimeout)
	}
	now := c.clock.Now()
	for i := range entries {
		entries[i].CreatedAt = now
	}
	return entries, nil
}

// buildOutput builds one output of publish and returns its metadata
// row, not yet committed, and the index file's bytes.
func (c *Client) buildOutput(ctx context.Context, op string, planned int64, out output) (meta.IndexEntry, []byte, error) {
	bctx, buildSpan := obs.Start(ctx, op+".build")
	defer buildSpan.End()
	manifest := out.manifest
	manifestJSON, err := json.Marshal(manifest)
	if err != nil {
		return meta.IndexEntry{}, nil, fmt.Errorf("core: encode manifest: %w", err)
	}
	builder := component.NewBuilder(manifest.Kind)
	builder.Add(manifestJSON) // component 0
	if err := out.build(bctx, builder); err != nil {
		return meta.IndexEntry{}, nil, err
	}
	data, err := builder.Finish()
	if err != nil {
		return meta.IndexEntry{}, nil, err
	}
	entry := meta.IndexEntry{
		IndexKey:  c.indexKey(manifest.Column, manifest.Kind, planned, op != "index"),
		Kind:      manifest.Kind,
		Column:    manifest.Column,
		Files:     make([]string, len(manifest.Files)),
		SizeBytes: int64(len(data)),
	}
	for i, f := range manifest.Files {
		entry.Files[i] = f.Path
		entry.Rows += f.Rows
	}
	buildSpan.SetAttr("column", manifest.Column)
	buildSpan.SetAttr("rows", entry.Rows)
	buildSpan.SetAttr("bytes", len(data))
	return entry, data, nil
}

// indexKeys returns the entries' index keys.
func indexKeys(entries []meta.IndexEntry) []string {
	keys := make([]string, len(entries))
	for i, e := range entries {
		keys[i] = e.IndexKey
	}
	return keys
}

// Index keys (DESIGN.md §18) are
//
//	IndexDir/files/<column>/<kind>/<build>-<mark>-<random>.index
//
// so that one LIST of a unit's directory returns its files in build
// order. build is the metadata version the operation planned against,
// zero-padded to buildWidth digits; mark is markMerge on an output
// that replaces entries, so a merge sorts after every index job of its
// own version, and markBuild otherwise. A plan predicts from that
// order which files it will probe (openPredicted); the metadata table
// stays the only authority, and its rows carry full keys, so files
// named in the older flat layout (files/<random>.index) open as any.
const (
	buildWidth = 20
	markBuild  = '0'
	markMerge  = '1'
)

// indexKey returns a fresh key for an index file of (column, kind).
func (c *Client) indexKey(column string, kind component.Kind, planned int64, merge bool) string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(err) // crypto/rand does not fail on supported platforms
	}
	mark := markBuild
	if merge {
		mark = markMerge
	}
	return fmt.Sprintf("%s%0*d-%c-%s.index", c.unitDir(column, kind), buildWidth, planned, mark, hex.EncodeToString(b[:]))
}

// unitDir is the directory of the (column, kind) unit's index files.
func (c *Client) unitDir(column string, kind component.Kind) string {
	return c.cfg.IndexDir + indexFilePrefix + columnSegment(column) + "/" + kind.String() + "/"
}

// columnSegment encodes a column name as one key segment that every
// store keeps as it is: bytes outside [A-Za-z0-9_-] become %XX, so the
// segment holds no '/' and is never "." or "..", and the empty name is
// a lone "%", which no escape produces. Distinct names never share a
// segment.
func columnSegment(column string) string {
	if column == "" {
		return "%"
	}
	const hexDigits = "0123456789ABCDEF"
	var out []byte
	for i := 0; i < len(column); i++ {
		switch ch := column[i]; {
		case 'a' <= ch && ch <= 'z', 'A' <= ch && ch <= 'Z', '0' <= ch && ch <= '9', ch == '_', ch == '-':
			out = append(out, ch)
		default:
			out = append(out, '%', hexDigits[ch>>4], hexDigits[ch&15])
		}
	}
	return string(out)
}
