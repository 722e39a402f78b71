package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

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
// Version <= 0 means latest.
func (c *Client) IndexAt(ctx context.Context, column string, kind component.Kind, version int64) (*meta.IndexEntry, error) {
	return c.indexOne(ctx, version, IndexSpec{Column: column, Kind: kind}, IndexOptions{})
}

// IndexOptions parameterizes one index job beyond the (column, kind)
// pair, so a maintenance policy can shape what gets indexed and how
// deep. The snapshot a job indexes is its Plan's.
type IndexOptions struct {
	// Only restricts each spec it names to the uncovered files in its
	// list — an adaptive policy uses it to index hot partitions first,
	// leaving the cold tail for later jobs. Files outside the snapshot
	// or already covered are ignored; a spec not named indexes its
	// whole backlog.
	Only map[IndexSpec][]string
	// IVF, when non-nil, replaces the default IVF-PQ build options for
	// this job — e.g. a coarse low-nlist first pass for fast
	// time-to-searchable, refined later from probe traffic.
	IVF *ivfpq.BuildOptions
}

// IndexWithOptions is Index with per-job options; see IndexOptions.
// It reads a plan of the latest snapshot and runs IndexSpecs over the
// one spec.
func (c *Client) IndexWithOptions(ctx context.Context, column string, kind component.Kind, opts IndexOptions) (*meta.IndexEntry, error) {
	return c.indexOne(ctx, -1, IndexSpec{Column: column, Kind: kind}, opts)
}

// indexOne plans against the snapshot at version (<= 0: latest) — the
// snapshot and the metadata table side by side, from the store: what
// has been indexed is exactly what a cached plan may not know — and
// runs the one spec's index job from that plan.
func (c *Client) indexOne(ctx context.Context, version int64, spec IndexSpec, opts IndexOptions) (*meta.IndexEntry, error) {
	if version <= 0 {
		version = -1
	}
	pctx, planSpan := obs.Start(ctx, "index.plan")
	plan, err := c.PlanInputs(pctx, version)
	planSpan.End()
	if err != nil {
		if plan.Snapshot != nil {
			// The listing failed: a schema error comes first.
			if _, _, kerr := kindForColumn(plan.Snapshot.Schema, spec.Column, spec.Kind); kerr != nil {
				return nil, kerr
			}
		}
		return nil, err
	}
	results, err := c.IndexSpecs(ctx, plan, []IndexSpec{spec}, opts)
	if err != nil {
		return nil, err
	}
	return results[0].Entry, results[0].Err
}

// IndexResult is what one index job did for one of its specs.
type IndexResult struct {
	// Entry is the spec's new metadata row, or nil when every snapshot
	// file was already covered or the spec was skipped.
	Entry *meta.IndexEntry
	// Err, when set, wraps ErrBelowMinRows: the spec's new rows were
	// too few for an index file, and the job skipped it.
	Err error
}

// IndexSpecs is Index over several (column, kind) indexes in one job,
// planned from plan (PlanInputs): every spec's uncovered files come
// from that one read, then one fan of every spec's column scans, one
// build per spec, and one publish that uploads the new index files
// side by side and lands their rows in one metadata commit. It reads
// no log: the maintenance scheduler hands it the plan its step
// observed, and Index reads one first. results[i] is specs[i]'s. A
// vector spec whose new rows are below MinVectorRows is skipped and
// reported in its result; the other specs still commit. An error that
// aborts the job — a failed scan, a vanished input (ErrAborted), a
// timeout — commits no row.
func (c *Client) IndexSpecs(ctx context.Context, plan Plan, specs []IndexSpec, opts IndexOptions) ([]IndexResult, error) {
	start := c.clock.Now()
	snap := plan.Snapshot
	if snap == nil {
		return nil, errors.New("core: index job without a planned snapshot")
	}
	jobs := make([]specJob, len(specs))
	for i, spec := range specs {
		ci, col, err := kindForColumn(snap.Schema, spec.Column, spec.Kind)
		if err != nil {
			return nil, err
		}
		jobs[i] = specJob{spec: spec, column: ci, asm: &inputAssembler{kind: spec.Kind, vecDim: col.TypeLen / 4}}
	}
	// Plan: scans names every (spec, file) column to read — each
	// spec's snapshot files that none of its planned entries covers.
	var scans []struct{ spec, file int }
	for i := range jobs {
		j := &jobs[i]
		covered := make(map[string]bool)
		for _, e := range meta.EntriesFor(plan.Entries, j.spec.Column, j.spec.Kind) {
			for _, f := range e.Files {
				covered[f] = true
			}
		}
		only, named := opts.Only[j.spec]
		for _, f := range snap.Files {
			if covered[f.Path] || (named && !slices.Contains(only, f.Path)) {
				continue
			}
			scans = append(scans, struct{ spec, file int }{i, len(j.files)})
			j.files = append(j.files, ManifestFile{Path: f.Path, Rows: f.Rows})
		}
	}
	results := make([]IndexResult, len(specs))
	if len(scans) == 0 {
		return results, nil
	}

	// Index: scan the new files (internally parallel, as the paper
	// notes the index API is) and build. Scanning is IO-bound and input
	// assembly is CPU-bound, so the two are pipelined: one consumer
	// goroutine per spec flattens each file's values into that spec's
	// builder inputs — in file order, keeping the assembled inputs (and
	// hence the index bytes) deterministic — as soon as that file's
	// scan lands, while later scans are still in flight. Each file's
	// column is released right after assembly, bounding peak memory to
	// in-flight scans plus the growing inputs.
	var assembled sync.WaitGroup
	for i := range jobs {
		j := &jobs[i]
		j.columns = make([]parquet.ColumnValues, len(j.files))
		j.scanned = make([]chan struct{}, len(j.files))
		for f := range j.scanned {
			j.scanned[f] = make(chan struct{})
		}
		assembled.Add(1)
		go func() {
			defer assembled.Done()
			for f := range j.files {
				<-j.scanned[f]
				// A failed scan left no pages and no values, so it adds
				// nothing; its error discards the inputs below.
				j.asm.addFile(f, j.files[f], j.columns[f])
				j.columns[f] = parquet.ColumnValues{} // release the scanned values
			}
		}()
	}
	scanCtx, scanSpan := obs.Start(ctx, "index.scan")
	scanSpan.SetAttr("specs", len(specs))
	scanSpan.SetAttr("files", len(scans))
	err := simtime.Fan(scanCtx, len(scans), c.cfg.SearchWidth, func(ctx context.Context, s int) error {
		j, f := &jobs[scans[s].spec], scans[s].file
		defer close(j.scanned[f])
		file := &j.files[f]
		vals, pages, _, err := parquet.ScanColumn(ctx, c.store, c.table.Root()+file.Path, j.column)
		if errors.Is(err, objectstore.ErrNotFound) {
			return fmt.Errorf("core: input %s vanished during indexing: %w", file.Path, ErrAborted)
		}
		if err != nil {
			return err
		}
		file.Pages = pages
		file.Rows = pages.TotalRows()
		j.columns[f] = vals
		return nil
	})
	assembled.Wait()
	scanSpan.End()
	if err != nil {
		return nil, err
	}

	var outs []output
	var outSpec []int // outs[k] is specs[outSpec[k]]'s
	for i := range jobs {
		j := &jobs[i]
		if len(j.files) == 0 {
			continue
		}
		var totalRows int64
		for _, f := range j.files {
			totalRows += f.Rows
		}
		if j.spec.Kind == component.KindIVFPQ && totalRows < c.cfg.MinVectorRows {
			results[i].Err = fmt.Errorf("core: %d new rows < %d: %w", totalRows, c.cfg.MinVectorRows, ErrBelowMinRows)
			continue
		}
		asm := j.asm
		outs = append(outs, output{
			manifest: &Manifest{Column: j.spec.Column, Kind: j.spec.Kind, Files: j.files},
			build: func(_ context.Context, b *component.Builder) error {
				// The assembled inputs are the build's to drop: nothing of
				// them is held through the upload and commit that follow.
				in := *asm
				*asm = inputAssembler{}
				return in.build(b, opts.IVF)
			},
		})
		outSpec = append(outSpec, i)
	}
	if len(outs) == 0 {
		return results, nil
	}
	published, err := c.publish(ctx, "index", start, plan.MetaVersion, outs...)
	if err != nil {
		return nil, err
	}
	for k := range published {
		results[outSpec[k]].Entry = &published[k]
	}
	return results, nil
}

// specJob is one spec's share of an index job: the column it reads,
// its uncovered files and their scans, and its builder inputs.
type specJob struct {
	spec    IndexSpec
	column  int
	files   []ManifestFile
	columns []parquet.ColumnValues
	scanned []chan struct{}
	asm     *inputAssembler
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

// build writes the index file of the assembled inputs into b; ivf,
// when non-nil, replaces the default IVF-PQ build options.
func (a *inputAssembler) build(b *component.Builder, ivf *ivfpq.BuildOptions) error {
	switch a.kind {
	case component.KindTrie:
		return trie.BuildInto(b, a.keys, a.pageRefs, trie.BuildOptions{})
	case component.KindFM:
		return fmindex.BuildTerminatedInto(b, append(a.text, fmindex.Sentinel), a.starts, a.pageRefs, fmindex.BuildOptions{})
	default:
		var opts ivfpq.BuildOptions
		if ivf != nil {
			opts = *ivf
		}
		return ivfpq.BuildInto(b, a.vecs, a.rowRefs, opts)
	}
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

// decodeVectorInto unpacks a little-endian float32 column value into
// out, cut to the floats v holds.
func decodeVectorInto(out []float32, v []byte) []float32 {
	out = out[:min(len(out), len(v)/4)]
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(v[4*i:]))
	}
	return out
}
