package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"rottnest/internal/component"
	"rottnest/internal/fmindex"
	"rottnest/internal/ivfpq"
	"rottnest/internal/meta"
	"rottnest/internal/objectstore"
	"rottnest/internal/obs"
	"rottnest/internal/simtime"
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
	all, planned, err := c.meta.ListBeside(pctx, c.meta.Root(), nil)
	if err != nil {
		return nil, err
	}
	var small []meta.IndexEntry
	for _, e := range meta.EntriesFor(all, column, kind) {
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
		entry, err := c.mergeBin(ctx, column, kind, small[lo:hi], start, planned)
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
func (c *Client) mergeBin(ctx context.Context, column string, kind component.Kind, bin []meta.IndexEntry, start time.Time, planned int64) (*meta.IndexEntry, error) {
	mctx, mergeSpan := obs.Start(ctx, "compact.merge")
	defer mergeSpan.End()
	mergeSpan.SetAttr("sources", len(bin))
	// The sources are independent files: open them side by side.
	readers := make([]*component.Reader, len(bin))
	manifests := make([]*Manifest, len(bin))
	err := simtime.Fan(mctx, len(bin), c.cfg.SearchWidth, func(ctx context.Context, i int) (err error) {
		if readers[i], err = c.openReader(ctx, bin[i]); err != nil {
			return fmt.Errorf("core: compact open %s: %w", bin[i].IndexKey, err)
		}
		manifests[i], err = c.manifest(ctx, readers[i])
		return err
	})
	if err != nil {
		return nil, err
	}

	// Merged file table + per-source rebasing maps.
	merged := &Manifest{Column: column, Kind: kind}
	byPath := make(map[string]uint32)
	fileMaps := make([]map[uint32]uint32, len(bin))
	for i, m := range manifests {
		fileMaps[i] = make(map[uint32]uint32, len(m.Files))
		for j, mf := range m.Files {
			id, ok := byPath[mf.Path]
			if !ok {
				id = uint32(len(merged.Files))
				byPath[mf.Path] = id
				merged.Files = append(merged.Files, mf)
			}
			fileMaps[i][uint32(j)] = id
		}
	}
	mergeSpan.End()

	out, err := c.publish(ctx, "compact", start, planned, output{manifest: merged, build: func(ctx context.Context, b *component.Builder) error {
		switch kind {
		case component.KindTrie:
			sources, err := openAll(ctx, readers, trie.Open)
			if err != nil {
				return err
			}
			return trie.MergeInto(ctx, b, sources, fileMaps, trie.BuildOptions{})
		case component.KindFM:
			sources, err := openAll(ctx, readers, fmindex.Open)
			if err != nil {
				return err
			}
			return fmindex.MergeInto(ctx, b, sources, fileMaps, fmindex.BuildOptions{})
		case component.KindIVFPQ:
			sources, err := openAll(ctx, readers, ivfpq.Open)
			if err != nil {
				return err
			}
			return ivfpq.MergeInto(ctx, b, sources, fileMaps, ivfpq.BuildOptions{})
		default:
			return fmt.Errorf("core: unknown index kind %d", kind)
		}
	}})
	if err != nil {
		return nil, err
	}
	return &out[0], nil
}

// openAll opens every source index of a merge, side by side: a root
// the open-time tail did not capture is one more read per source.
func openAll[T any](ctx context.Context, readers []*component.Reader, open func(context.Context, *component.Reader) (T, error)) ([]T, error) {
	sources := make([]T, len(readers))
	err := simtime.Fan(ctx, len(readers), 0, func(ctx context.Context, i int) (err error) {
		sources[i], err = open(ctx, readers[i])
		return err
	})
	return sources, err
}
