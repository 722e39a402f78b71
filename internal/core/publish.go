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
//  2. Upload under a fresh random key ("<op>.upload"). Upload precedes
//     commit, so a metadata row never names a missing object.
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
// The entry's file list and row count are the manifest's.
func (c *Client) publish(ctx context.Context, op string, start time.Time, manifest *Manifest, build func(context.Context, *component.Builder) error, replaces *meta.IndexEntry) (*meta.IndexEntry, error) {
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
		IndexKey:  c.cfg.IndexDir + indexFilePrefix + randomName() + ".index",
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

// randomName returns a fresh hex name for an index file.
func randomName() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(err) // crypto/rand does not fail on supported platforms
	}
	return hex.EncodeToString(b[:])
}
