package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"rottnest/internal/component"
	"rottnest/internal/fmindex"
	"rottnest/internal/ivfpq"
	"rottnest/internal/meta"
	"rottnest/internal/objectstore"
	"rottnest/internal/obs"
	"rottnest/internal/parquet"
	"rottnest/internal/postings"
	"rottnest/internal/simtime"
	"rottnest/internal/trie"
)

// Index brings the (column, kind) index up to date with the latest
// lake snapshot, following the protocol of Section IV-A:
//
//  1. Plan: diff the snapshot's manifest list against the metadata
//     table to find Parquet files not yet indexed — every new file is
//     indexed regardless of whether it came from an insert, update,
//     or lake compaction.
//  2. Index: scan the new files' column, build one index file
//     covering all of them, and upload it to the index directory.
//  3. Commit: insert the index file's record into the metadata table
//     transactionally. Upload-then-commit order preserves the
//     Existence invariant.
//  4. Timeout: if the operation exceeds the configured timeout it
//     aborts before commit; vacuum later collects the orphan upload.
//
// It returns the new metadata entry, or nil if every snapshot file was
// already covered. If an input file disappears mid-scan (lake GC), it
// returns ErrAborted and should be retried.
func (c *Client) Index(ctx context.Context, column string, kind component.Kind) (*meta.IndexEntry, error) {
	return c.IndexAt(ctx, column, kind, -1)
}

// IndexAt is Index against a specific lake snapshot version (data
// lakes support time travel; the paper's index API takes a snapshot).
// Version < 0 means latest.
func (c *Client) IndexAt(ctx context.Context, column string, kind component.Kind, version int64) (*meta.IndexEntry, error) {
	return c.IndexWithOptions(ctx, column, kind, IndexOptions{Version: version})
}

// IndexOptions parameterizes one index job beyond the (column, kind)
// pair, so a maintenance policy can shape what gets indexed and how
// deep.
type IndexOptions struct {
	// Version is the lake snapshot version to index against; <= 0
	// means latest.
	Version int64
	// Only, when non-nil, restricts the job to uncovered files in the
	// set — an adaptive policy uses it to index hot partitions first,
	// leaving the cold tail for later jobs. Files outside the snapshot
	// or already covered are ignored.
	Only []string
	// IVF, when non-nil, overrides the client's IVF-PQ build options
	// for this job — e.g. a coarse low-nlist first pass for fast
	// time-to-searchable, refined later from probe traffic.
	IVF *ivfpq.BuildOptions
}

// IndexWithOptions is IndexAt with per-job options; see IndexOptions.
func (c *Client) IndexWithOptions(ctx context.Context, column string, kind component.Kind, opts IndexOptions) (*meta.IndexEntry, error) {
	start := c.clock.Now()
	version := opts.Version
	if version <= 0 {
		version = -1
	}

	// Plan: the snapshot and the metadata table side by side, from the
	// store — what has been indexed is exactly what a cached plan may
	// not know.
	pctx, planSpan := obs.Start(ctx, "index.plan")
	defer planSpan.End()
	snap, entries, err := c.PlanInputs(pctx, version)
	if snap == nil {
		return nil, err
	}
	ci, col, kerr := kindForColumn(snap.Schema, column, kind)
	if kerr != nil {
		return nil, kerr
	}
	if err != nil {
		return nil, err
	}
	covered := make(map[string]bool)
	for _, e := range meta.EntriesFor(entries, column, kind) {
		for _, f := range e.Files {
			covered[f] = true
		}
	}
	var only map[string]bool
	if opts.Only != nil {
		only = make(map[string]bool, len(opts.Only))
		for _, p := range opts.Only {
			only[p] = true
		}
	}
	var newFiles []ManifestFile
	for _, f := range snap.Files {
		if covered[f.Path] || (only != nil && !only[f.Path]) {
			continue
		}
		newFiles = append(newFiles, ManifestFile{Path: f.Path, Rows: f.Rows})
	}
	planSpan.SetAttr("column", column)
	planSpan.SetAttr("kind", kind.String())
	planSpan.SetAttr("new_files", len(newFiles))
	planSpan.End() // idempotent: the defer covers the error returns above
	if len(newFiles) == 0 {
		return nil, nil
	}

	// Index: scan the new files (internally parallel, as the paper
	// notes the index API is) and build. Scanning is IO-bound and input
	// assembly is CPU-bound, so the two are pipelined: a consumer
	// goroutine flattens each file's values into the builder inputs —
	// in file order, keeping the assembled inputs (and hence the index
	// bytes) deterministic — as soon as that file's scan lands, while
	// later scans are still in flight. Each file's column is released
	// right after assembly, bounding peak memory to in-flight scans
	// plus the growing input.
	columns := make([]parquet.ColumnValues, len(newFiles))
	scanned := make([]chan struct{}, len(newFiles))
	for i := range scanned {
		scanned[i] = make(chan struct{})
	}
	asm := &inputAssembler{kind: kind, vecDim: col.TypeLen / 4}
	asmDone := make(chan struct{})
	go func() {
		defer close(asmDone)
		for i := range newFiles {
			<-scanned[i]
			// A failed scan left no pages and no values, so it adds
			// nothing; its error discards the inputs below.
			asm.addFile(i, newFiles[i], columns[i])
			columns[i] = parquet.ColumnValues{} // release the scanned values
		}
	}()
	scanCtx, scanSpan := obs.Start(ctx, "index.scan")
	scanSpan.SetAttr("files", len(newFiles))
	err = simtime.Fan(scanCtx, len(newFiles), c.cfg.SearchWidth, func(ctx context.Context, i int) error {
		defer close(scanned[i])
		vals, pages, _, err := parquet.ScanColumn(ctx, c.store, c.table.Root()+newFiles[i].Path, ci)
		if errors.Is(err, objectstore.ErrNotFound) {
			return fmt.Errorf("core: input %s vanished during indexing: %w", newFiles[i].Path, ErrAborted)
		}
		if err != nil {
			return err
		}
		newFiles[i].Pages = pages
		newFiles[i].Rows = pages.TotalRows()
		columns[i] = vals
		return nil
	})
	<-asmDone
	scanSpan.End()
	if err != nil {
		return nil, err
	}
	var totalRows int64
	for i := range newFiles {
		totalRows += newFiles[i].Rows
	}
	if kind == component.KindIVFPQ && totalRows < c.cfg.MinVectorRows {
		return nil, fmt.Errorf("core: %d new rows < %d: %w", totalRows, c.cfg.MinVectorRows, ErrBelowMinRows)
	}

	manifest := &Manifest{Column: column, Kind: kind, Files: newFiles}
	return c.publish(ctx, "index", start, manifest, func(_ context.Context, b *component.Builder) error {
		// The assembled inputs are the build's to drop: nothing of them
		// is held through the upload and commit that follow.
		in := *asm
		*asm = inputAssembler{}
		switch kind {
		case component.KindTrie:
			return trie.BuildInto(b, in.keys, in.pageRefs, c.cfg.Trie)
		case component.KindFM:
			return fmindex.BuildTerminatedInto(b, append(in.text, fmindex.Sentinel), in.starts, in.pageRefs, c.cfg.FM)
		default:
			ivfOpts := c.cfg.IVF
			if opts.IVF != nil {
				ivfOpts = *opts.IVF
			}
			return ivfpq.BuildInto(b, in.vecs, in.rowRefs, ivfOpts)
		}
	}, nil)
}

// inputAssembler incrementally flattens scanned columns into the
// kind-specific builder inputs, one file at a time in file order —
// the same flattening the old batch helpers performed over the full
// column set, so the assembled inputs (and the index bytes derived
// from them) are unchanged.
type inputAssembler struct {
	kind   component.Kind
	vecDim int

	keys     [][16]byte         // trie: row keys
	text     []byte             // fm: separator-joined values
	starts   []int64            // fm: page-boundary offsets
	pageRefs []postings.PageRef // trie + fm: page refs
	vecs     [][]float32        // ivfpq: decoded vectors
	rowRefs  []postings.RowRef  // ivfpq: row refs
}

// addFile appends file fi's scanned column to the inputs. For trie,
// each row's ref is the page containing it. For fm, sentinel bytes
// inside values are rewritten to the separator so the FM-index build
// constraint holds; in-situ probing re-checks against the raw value,
// so this cannot cause wrong results, only (vanishingly rare) false
// negatives for patterns containing 0x00, which fall back to scans.
func (a *inputAssembler) addFile(fi int, f ManifestFile, col parquet.ColumnValues) {
	switch a.kind {
	case component.KindTrie:
		vals := col.Bytes
		for _, p := range f.Pages {
			for r := 0; r < p.NumValues; r++ {
				row := p.FirstRow + int64(r)
				var k [16]byte
				copy(k[:], vals[row])
				a.keys = append(a.keys, k)
				a.pageRefs = append(a.pageRefs, postings.PageRef{File: uint32(fi), Page: uint32(p.Ordinal)})
			}
		}
	case component.KindFM:
		vals := col.Bytes
		// One growth per file, to what its values, their separators and
		// the build's sentinel need.
		size := len(vals) + 1
		for _, v := range vals {
			size += len(v)
		}
		a.text = slices.Grow(a.text, size)
		for _, p := range f.Pages {
			a.starts = append(a.starts, int64(len(a.text)))
			a.pageRefs = append(a.pageRefs, postings.PageRef{File: uint32(fi), Page: uint32(p.Ordinal)})
			for r := 0; r < p.NumValues; r++ {
				v := vals[p.FirstRow+int64(r)]
				if bytes.IndexByte(v, fmindex.Sentinel) >= 0 {
					v = bytes.ReplaceAll(v, []byte{fmindex.Sentinel}, []byte{fmindex.Separator})
				}
				a.text = append(a.text, v...)
				a.text = append(a.text, fmindex.Separator)
			}
		}
	case component.KindIVFPQ:
		// One slab per file, sub-sliced per row.
		slab := make([]float32, len(col.Bytes)*a.vecDim)
		a.vecs = slices.Grow(a.vecs, len(col.Bytes))
		a.rowRefs = slices.Grow(a.rowRefs, len(col.Bytes))
		for row, v := range col.Bytes {
			a.vecs = append(a.vecs, decodeVectorInto(slab[row*a.vecDim:][:a.vecDim:a.vecDim], v))
			a.rowRefs = append(a.rowRefs, postings.RowRef{File: uint32(fi), Row: int64(row)})
		}
	}
}

// decodeVector unpacks a little-endian float32 column value.
func decodeVector(v []byte, dim int) []float32 {
	return decodeVectorInto(make([]float32, dim), v)
}

// decodeVectorInto is decodeVector into out, cut to the floats v holds.
func decodeVectorInto(out []float32, v []byte) []float32 {
	out = out[:min(len(out), len(v)/4)]
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(v[4*i:]))
	}
	return out
}
