package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"rottnest/internal/component"
	"rottnest/internal/fmindex"
	"rottnest/internal/ivfpq"
	"rottnest/internal/meta"
	"rottnest/internal/objectstore"
	"rottnest/internal/obs"
	"rottnest/internal/trie"
)

// CompactOptions tune index compaction planning.
type CompactOptions struct {
	// SmallerThanBytes selects which index files are merge
	// candidates; entries at or above the threshold are left alone
	// ("it may be less important, and more expensive, to merge
	// indices that already cover a large number of files"). Zero
	// means merge everything.
	SmallerThanBytes int64
	// MaxBinEntries bounds how many index files merge into one
	// output (the bin-packing strategy of Section IV-C). Zero means
	// unlimited (a single output).
	MaxBinEntries int
}

// Compact merges small index files of one (column, kind) index into
// larger ones, LSM-style (Section IV-C):
//
//  1. Plan: pick committed entries below the size threshold and
//     bin-pack them.
//  2. Merge: build each merged index file and upload it.
//  3. Commit: insert the merged entries into the metadata table.
//
// Old index files are NOT deleted — that is vacuum's job — so
// concurrent searches planned against the old entries keep working
// (Existence holds throughout). Compaction never consults the lake's
// log and is fully decoupled from the lake's own compaction.
func (c *Client) Compact(ctx context.Context, column string, kind component.Kind, opts CompactOptions) ([]meta.IndexEntry, error) {
	start := c.clock.Now()
	pctx, planSpan := obs.Start(ctx, "compact.plan")
	defer planSpan.End()
	entries, err := c.meta.ListFor(pctx, column, kind)
	if err != nil {
		return nil, err
	}
	var small []meta.IndexEntry
	for _, e := range entries {
		if opts.SmallerThanBytes <= 0 || e.SizeBytes < opts.SmallerThanBytes {
			small = append(small, e)
		}
	}
	planSpan.SetAttr("column", column)
	planSpan.SetAttr("candidates", len(small))
	planSpan.End() // idempotent: the defer covers the error return above
	if len(small) < 2 {
		return nil, nil
	}
	binSize := opts.MaxBinEntries
	if binSize <= 0 {
		binSize = len(small)
	}

	var out []meta.IndexEntry
	for lo := 0; lo < len(small); lo += binSize {
		hi := lo + binSize
		if hi > len(small) {
			hi = len(small)
		}
		if hi-lo < 2 {
			break // a leftover single entry stays as-is
		}
		entry, err := c.mergeBin(ctx, column, kind, small[lo:hi], start)
		if err != nil {
			if errors.Is(err, objectstore.ErrNotFound) {
				// A concurrent vacuum collected a source index after we
				// planned against it: the plan is stale. Abort and let
				// the caller retry against the new metadata, exactly as
				// IndexAt does when a lake file vanishes mid-scan.
				return out, fmt.Errorf("core: compact plan went stale: %w", ErrAborted)
			}
			return out, err
		}
		out = append(out, *entry)
	}
	return out, nil
}

// mergeBin merges one bin of index files into a new one and commits
// it. The merged file table is the union of the sources' manifests
// (deduplicated by path); each source's posting refs are rebased onto
// it.
func (c *Client) mergeBin(ctx context.Context, column string, kind component.Kind, bin []meta.IndexEntry, start time.Time) (*meta.IndexEntry, error) {
	mctx, mergeSpan := obs.Start(ctx, "compact.merge")
	defer mergeSpan.End()
	mergeSpan.SetAttr("sources", len(bin))
	ctx = mctx
	readers := make([]*component.Reader, len(bin))
	manifests := make([]*Manifest, len(bin))
	for i, e := range bin {
		r, err := c.openReader(ctx, e.IndexKey)
		if err != nil {
			return nil, fmt.Errorf("core: compact open %s: %w", e.IndexKey, err)
		}
		m, err := c.manifest(ctx, r)
		if err != nil {
			return nil, err
		}
		readers[i] = r
		manifests[i] = m
	}

	// Merged file table + per-source rebasing maps.
	var mergedFiles []ManifestFile
	byPath := make(map[string]uint32)
	fileMaps := make([]map[uint32]uint32, len(bin))
	var totalRows int64
	for i, m := range manifests {
		fileMaps[i] = make(map[uint32]uint32, len(m.Files))
		for j, mf := range m.Files {
			id, ok := byPath[mf.Path]
			if !ok {
				id = uint32(len(mergedFiles))
				byPath[mf.Path] = id
				mergedFiles = append(mergedFiles, mf)
				totalRows += mf.Rows
			}
			fileMaps[i][uint32(j)] = id
		}
	}

	builder := component.NewBuilder(kind)
	manifestJSON, err := json.Marshal(&Manifest{Column: column, Kind: kind, Files: mergedFiles})
	if err != nil {
		return nil, fmt.Errorf("core: encode merged manifest: %w", err)
	}
	builder.Add(manifestJSON) // component 0

	switch kind {
	case component.KindTrie:
		sources := make([]*trie.Index, len(readers))
		for i, r := range readers {
			if sources[i], err = trie.Open(ctx, r); err != nil {
				return nil, err
			}
		}
		if err := trie.MergeInto(ctx, builder, sources, fileMaps, c.cfg.Trie); err != nil {
			return nil, err
		}
	case component.KindFM:
		sources := make([]*fmindex.Index, len(readers))
		for i, r := range readers {
			if sources[i], err = fmindex.Open(ctx, r); err != nil {
				return nil, err
			}
		}
		if err := fmindex.MergeInto(ctx, builder, sources, fileMaps, c.cfg.FM); err != nil {
			return nil, err
		}
	case component.KindIVFPQ:
		sources := make([]*ivfpq.Index, len(readers))
		for i, r := range readers {
			if sources[i], err = ivfpq.Open(ctx, r); err != nil {
				return nil, err
			}
		}
		if err := ivfpq.MergeInto(ctx, builder, sources, fileMaps, c.cfg.IVF); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("core: unknown index kind %d", kind)
	}

	data, err := builder.Finish()
	if err != nil {
		return nil, err
	}
	indexKey := c.cfg.IndexDir + indexFilePrefix + randomName() + ".index"
	mergeSpan.SetAttr("key", indexKey)
	mergeSpan.SetAttr("bytes", len(data))
	if err := c.store.Put(ctx, indexKey, data); err != nil {
		return nil, err
	}
	mergeSpan.End()
	if c.clock.Now().Sub(start) > c.cfg.Timeout {
		return nil, fmt.Errorf("core: compact of %d index files: %w", len(bin), ErrTimeout)
	}
	paths := make([]string, len(mergedFiles))
	for i, mf := range mergedFiles {
		paths[i] = mf.Path
	}
	entry := meta.IndexEntry{
		IndexKey:  indexKey,
		Kind:      kind,
		Column:    column,
		Files:     paths,
		Rows:      totalRows,
		SizeBytes: int64(len(data)),
	}
	cctx, commitSpan := obs.Start(ctx, "compact.commit")
	defer commitSpan.End()
	if err := c.meta.Insert(cctx, entry); err != nil {
		return nil, err
	}
	// The metadata table changed without a lake commit; cached plans
	// must replan to pick up the new index file.
	c.metaChanged()
	commitSpan.End()
	// Post-commit timeout re-check, mirroring IndexAt: if the clock
	// passed the deadline between the check above and the insert, a
	// vacuum may have collected the upload as an orphan — roll back.
	if c.clock.Now().Sub(start) > c.cfg.Timeout {
		rctx, rollbackSpan := obs.Start(ctx, "compact.rollback")
		defer rollbackSpan.End()
		if err := c.meta.Delete(rctx, entry.IndexKey); err != nil {
			return nil, err
		}
		c.metaChanged()
		return nil, fmt.Errorf("core: compact of %d index files overran commit: %w", len(bin), ErrTimeout)
	}
	entry.CreatedAt = c.clock.Now()
	return &entry, nil
}
