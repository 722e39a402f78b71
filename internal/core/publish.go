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
)

// publish is the one commit protocol behind Index, Compact and
// RefineVectorIndex (Sections IV-A and IV-C): everything that makes a
// new index file visible, and everything that keeps the Existence
// invariant while doing so.
//
//  1. Build: manifest as component 0, then whatever the caller's build
//     adds, under "<op>.build".
//  2. Upload under a fresh key ("<op>.upload", indexKey): the unit's
//     directory, the metadata version planned is the build order, a
//     random name. Upload precedes commit, so a metadata row never
//     names a missing object.
//  3. Timeout: an operation that began more than Config.Timeout ago
//     (by the world clock, measured from start) must not commit —
//     vacuum judges orphans by that same clock and may already be
//     collecting the upload. It aborts with ErrTimeout and leaves the
//     upload for vacuum.
//  4. Commit ("<op>.commit"): insert the new row and, when the file
//     replaces another covering exactly the same data (refine), delete
//     the replaced row in the same breath. Insert-then-delete keeps
//     every file covered in both orders, but the old row must go:
//     greedy cover selection breaks ties toward the earlier-listed
//     entry, so leaving it would keep serving the replaced index
//     forever. The metadata table changed without a lake commit, so
//     cached plans are dropped.
//  5. Re-check the timeout after commit: the clock can pass the
//     deadline between step 3 and the insert, and any vacuum that
//     collected the upload ran after the deadline, so the overshoot is
//     always visible here. Roll back ("<op>.rollback") — restoring the
//     replaced row first, whose object a vacuum only deletes after its
//     row is gone, and it was not until step 4 — and return
//     ErrTimeout; the caller retries cleanly.
//
// The entry's file list and row count are the manifest's. planned is
// the metadata version the operation planned against; every operation
// but an index job (compact, refine) replaces entries, and its key
// carries the merge mark.
func (c *Client) publish(ctx context.Context, op string, start time.Time, planned int64, manifest *Manifest, build func(context.Context, *component.Builder) error, replaces *meta.IndexEntry) (*meta.IndexEntry, error) {
	bctx, buildSpan := obs.Start(ctx, op+".build")
	defer buildSpan.End()
	manifestJSON, err := json.Marshal(manifest)
	if err != nil {
		return nil, fmt.Errorf("core: encode manifest: %w", err)
	}
	builder := component.NewBuilder(manifest.Kind)
	builder.Add(manifestJSON) // component 0
	if err := build(bctx, builder); err != nil {
		return nil, err
	}
	data, err := builder.Finish()
	if err != nil {
		return nil, err
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
	buildSpan.SetAttr("rows", entry.Rows)
	buildSpan.SetAttr("bytes", len(data))
	buildSpan.End()

	uctx, uploadSpan := obs.Start(ctx, op+".upload")
	defer uploadSpan.End()
	uploadSpan.SetAttr("key", entry.IndexKey)
	if err := c.store.Put(uctx, entry.IndexKey, data); err != nil {
		return nil, err
	}
	uploadSpan.End()

	if c.clock.Now().Sub(start) > c.cfg.Timeout {
		return nil, fmt.Errorf("core: %s of %d files: %w", op, len(entry.Files), ErrTimeout)
	}
	cctx, commitSpan := obs.Start(ctx, op+".commit")
	defer commitSpan.End()
	if err := c.meta.Insert(cctx, entry); err != nil {
		return nil, err
	}
	if replaces != nil {
		if err := c.meta.Delete(cctx, replaces.IndexKey); err != nil {
			return nil, err
		}
	}
	c.metaChanged()
	commitSpan.End()

	if c.clock.Now().Sub(start) > c.cfg.Timeout {
		rctx, rollbackSpan := obs.Start(ctx, op+".rollback")
		defer rollbackSpan.End()
		if replaces != nil {
			if err := c.meta.Insert(rctx, *replaces); err != nil {
				return nil, err
			}
		}
		if err := c.meta.Delete(rctx, entry.IndexKey); err != nil {
			return nil, err
		}
		c.metaChanged()
		return nil, fmt.Errorf("core: %s of %d files overran commit: %w", op, len(entry.Files), ErrTimeout)
	}
	entry.CreatedAt = c.clock.Now()
	return &entry, nil
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
