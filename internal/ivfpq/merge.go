package ivfpq

import (
	"context"
	"fmt"

	"rottnest/internal/component"
	"rottnest/internal/postings"
	"rottnest/internal/simtime"
)

// decodeAll reconstructs every (ref, approximate vector) pair of the
// index by decoding PQ codes against the coarse centroids.
func (ix *Index) decodeAll(ctx context.Context) ([]postings.RowRef, [][]float32, error) {
	lists, err := ix.decodeLists(ctx)
	if err != nil {
		return nil, nil, err
	}
	n := 0
	for _, members := range lists {
		n += len(members)
	}
	refs := make([]postings.RowRef, 0, n)
	vecs := make([][]float32, 0, n)
	slab := make([]float32, n*ix.dim)
	for li, members := range lists {
		for _, mb := range members {
			v := slab[len(vecs)*ix.dim : (len(vecs)+1)*ix.dim]
			ix.reconstruct(v, li, mb.code)
			refs = append(refs, mb.ref)
			vecs = append(vecs, v)
		}
	}
	return refs, vecs, nil
}

// Merge combines several IVF-PQ indices into one file. Because source
// Parquet files may already have been compacted away by the lake,
// merging does not read raw data: it decodes each source's PQ-encoded
// vectors (an approximation) and rebuilds. fileMaps[i] rebases source
// i's file numbers into the merged file table; refs to unmapped files
// are dropped. The second quantization costs a little recall, which
// in-situ refinement recovers at query time.
func Merge(ctx context.Context, sources []*Index, fileMaps []map[uint32]uint32, opts BuildOptions) ([]byte, error) {
	b := component.NewBuilder(component.KindIVFPQ)
	if err := MergeInto(ctx, b, sources, fileMaps, opts); err != nil {
		return nil, err
	}
	return b.Finish()
}

// MergeInto is Merge appending to an existing builder, mirroring
// BuildInto.
func MergeInto(ctx context.Context, b *component.Builder, sources []*Index, fileMaps []map[uint32]uint32, opts BuildOptions) error {
	if len(sources) != len(fileMaps) {
		return fmt.Errorf("ivfpq: %d sources but %d file maps", len(sources), len(fileMaps))
	}
	for i, src := range sources {
		if src.dim != sources[0].dim {
			return fmt.Errorf("ivfpq: source %d has dim %d, want %d", i, src.dim, sources[0].dim)
		}
	}
	// The sources are independent files: read them side by side.
	refs := make([][]postings.RowRef, len(sources))
	vecs := make([][][]float32, len(sources))
	err := simtime.Fan(ctx, len(sources), 0, func(ctx context.Context, i int) (err error) {
		refs[i], vecs[i], err = sources[i].decodeAll(ctx)
		return err
	})
	if err != nil {
		return err
	}
	var allRefs []postings.RowRef
	var allVecs [][]float32
	for i := range sources {
		for j, r := range refs[i] {
			mapped, ok := fileMaps[i][r.File]
			if !ok {
				continue
			}
			allRefs = append(allRefs, postings.RowRef{File: mapped, Row: r.Row})
			allVecs = append(allVecs, vecs[i][j])
		}
	}
	if len(allRefs) == 0 {
		return fmt.Errorf("ivfpq: merge produced no vectors")
	}
	return BuildInto(b, allVecs, allRefs, opts)
}
