package main

import (
	"context"
	"fmt"

	"rottnest/internal/component"
	"rottnest/internal/fmindex"
	"rottnest/internal/ivfpq"
	"rottnest/internal/postings"
	"rottnest/internal/trie"
)

// kindDriver is how the layer drive calls one index kind's public
// functions: open a committed index, probe it for something the
// generator planted in file f, build an index over rows [lo, hi) of f,
// and merge two such indexes.
type kindDriver struct {
	kind   component.Kind
	name   string // layer prefix
	open   func(ctx context.Context, r *component.Reader) (any, error)
	lookup func(ctx context.Context, ix any, f *fileData, rep int) error
	build  func(f *fileData, lo, hi int) (data []byte, rawBytes int, err error)
	merge  func(ctx context.Context, a, b any) error
}

// drivePageRows is the page size the drive's own builds pretend to.
const drivePageRows = 256

// mergeFileMaps renumbers the one file of each merged half.
var mergeFileMaps = []map[uint32]uint32{{0: 0}, {0: 1}}

func found(n int, err error, what string) error {
	if err == nil && n == 0 {
		return fmt.Errorf("%s not found", what)
	}
	return err
}

var kindDrivers = []kindDriver{
	{
		kind: component.KindTrie, name: "trie",
		open: func(ctx context.Context, r *component.Reader) (any, error) { return trie.Open(ctx, r) },
		lookup: func(ctx context.Context, ix any, f *fileData, rep int) error {
			refs, err := ix.(*trie.Index).Lookup(ctx, f.keys[rep*7%len(f.keys)])
			return found(len(refs), err, "key")
		},
		build: func(f *fileData, lo, hi int) ([]byte, int, error) {
			refs := make([]postings.PageRef, hi-lo)
			for i := range refs {
				refs[i] = postings.PageRef{Page: uint32(i / drivePageRows)}
			}
			data, err := trie.Build(f.keys[lo:hi], refs, trie.BuildOptions{})
			return data, trie.KeyLen * (hi - lo), err
		},
		merge: func(ctx context.Context, a, b any) error {
			_, err := trie.Merge(ctx, []*trie.Index{a.(*trie.Index), b.(*trie.Index)}, mergeFileMaps, trie.BuildOptions{})
			return err
		},
	},
	{
		kind: component.KindFM, name: "fmindex",
		open: func(ctx context.Context, r *component.Reader) (any, error) { return fmindex.Open(ctx, r) },
		lookup: func(ctx context.Context, ix any, f *fileData, _ int) error {
			refs, _, err := ix.(*fmindex.Index).LookupBounded(ctx, []byte(f.needle), topK)
			return found(len(refs), err, "needle")
		},
		build: func(f *fileData, lo, hi int) ([]byte, int, error) {
			var (
				text   []byte
				starts []int64
				refs   []postings.PageRef
			)
			for i, doc := range f.batch.Cols[1].Bytes[lo:hi] {
				if i%drivePageRows == 0 {
					starts = append(starts, int64(len(text)))
					refs = append(refs, postings.PageRef{Page: uint32(i / drivePageRows)})
				}
				text = append(append(text, doc...), fmindex.Separator)
			}
			data, err := fmindex.Build(text, starts, refs, fmindex.BuildOptions{})
			return data, len(text), err
		},
		merge: func(ctx context.Context, a, b any) error {
			_, err := fmindex.Merge(ctx, []*fmindex.Index{a.(*fmindex.Index), b.(*fmindex.Index)}, mergeFileMaps, fmindex.BuildOptions{})
			return err
		},
	},
	{
		kind: component.KindIVFPQ, name: "ivfpq",
		open: func(ctx context.Context, r *component.Reader) (any, error) { return ivfpq.Open(ctx, r) },
		lookup: func(ctx context.Context, ix any, f *fileData, rep int) error {
			cands, err := ix.(*ivfpq.Index).Search(ctx, f.vecs[rep*7%len(f.vecs)], nProbe, refine)
			return found(len(cands), err, "neighbour")
		},
		build: func(f *fileData, lo, hi int) ([]byte, int, error) {
			refs := make([]postings.RowRef, hi-lo)
			for i := range refs {
				refs[i] = postings.RowRef{Row: int64(i)}
			}
			data, err := ivfpq.Build(f.vecs[lo:hi], refs, ivfpq.BuildOptions{Seed: 1})
			return data, 4 * vecDim * (hi - lo), err
		},
		merge: func(ctx context.Context, a, b any) error {
			_, err := ivfpq.Merge(ctx, []*ivfpq.Index{a.(*ivfpq.Index), b.(*ivfpq.Index)}, mergeFileMaps, ivfpq.BuildOptions{Seed: 1})
			return err
		},
	},
}
