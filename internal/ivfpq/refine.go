package ivfpq

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"

	"rottnest/internal/component"
	"rottnest/internal/postings"
)

// RefineOptions tune progressive refinement of an opened index.
type RefineOptions struct {
	// SplitFactor is how many sub-centroids each refined (hot) cell is
	// re-clustered into. Defaults to 4.
	SplitFactor int
	// MaxCells bounds how many cells one refine pass splits.
	// Defaults to 8.
	MaxCells int
	// KMeansIters bounds Lloyd iterations per split. Defaults to 8.
	KMeansIters int
	// TargetComponentBytes bounds each rewritten list component's
	// size. Defaults to 256 KiB.
	TargetComponentBytes int
	// Seed makes re-clustering deterministic.
	Seed int64
}

// WithDefaults returns o with every unset field at its default.
func (o RefineOptions) WithDefaults() RefineOptions {
	if o.SplitFactor <= 1 {
		o.SplitFactor = 4
	}
	if o.MaxCells <= 0 {
		o.MaxCells = 8
	}
	if o.KMeansIters <= 0 {
		o.KMeansIters = 8
	}
	if o.TargetComponentBytes <= 0 {
		o.TargetComponentBytes = 256 << 10
	}
	return o
}

// NearestLists returns the nprobe list indices a query for q would
// probe, nearest centroid first, with a deterministic tie-break.
func (ix *Index) NearestLists(q []float32, nprobe int) []int {
	if len(q) != ix.dim || len(ix.lists) == 0 {
		return nil
	}
	if nprobe <= 0 {
		nprobe = 1
	}
	if nprobe > len(ix.lists) {
		nprobe = len(ix.lists)
	}
	type cd struct {
		list int
		dist float32
	}
	cds := make([]cd, len(ix.centroids))
	for i, c := range ix.centroids {
		cds[i] = cd{list: i, dist: l2sq(c, q)}
	}
	sort.Slice(cds, func(a, b int) bool {
		if cds[a].dist != cds[b].dist {
			return cds[a].dist < cds[b].dist
		}
		return cds[a].list < cds[b].list
	})
	out := make([]int, nprobe)
	for i := range out {
		out[i] = cds[i].list
	}
	return out
}

// HotCells ranks the index's cells by how often the observed probe
// traffic would touch them and returns the up-to-max hottest non-empty
// ones, hottest first (ties broken by list index, ascending).
func HotCells(ix *Index, probes [][]float32, nprobe, max int) []int {
	if max <= 0 || len(probes) == 0 {
		return nil
	}
	hits := make(map[int]int)
	for _, q := range probes {
		for _, li := range ix.NearestLists(q, nprobe) {
			hits[li]++
		}
	}
	type hc struct{ list, n int }
	ranked := make([]hc, 0, len(hits))
	for li, n := range hits {
		if ix.lists[li].Count > 1 { // splitting a 0/1-member cell is a no-op
			ranked = append(ranked, hc{list: li, n: n})
		}
	}
	sort.Slice(ranked, func(a, b int) bool {
		if ranked[a].n != ranked[b].n {
			return ranked[a].n > ranked[b].n
		}
		return ranked[a].list < ranked[b].list
	})
	if len(ranked) > max {
		ranked = ranked[:max]
	}
	out := make([]int, len(ranked))
	for i, h := range ranked {
		out[i] = h.list
	}
	return out
}

// listMember is one inverted-list entry: its row ref plus its PQ code
// string, a sub-slice of the build's code array or of the decoded
// component.
type listMember struct {
	ref  postings.RowRef
	code []byte
}

// listComponents fetches the components holding the given lists in
// one fan, keyed by component id, so a component shared by several
// lists is read and inflated once.
func (ix *Index) listComponents(ctx context.Context, lists []int) (map[int][]byte, error) {
	comps := make(map[int][]byte)
	var ids []int
	for _, li := range lists {
		d := ix.lists[li]
		if _, ok := comps[d.ComponentID]; !ok && d.Count > 0 {
			comps[d.ComponentID] = nil
			ids = append(ids, d.ComponentID)
		}
	}
	data, err := ix.r.Components(ctx, ids)
	if err != nil {
		return nil, err
	}
	for i, id := range ids {
		comps[id] = data[i]
	}
	return comps, nil
}

// decodeLists decodes every inverted list of the index.
func (ix *Index) decodeLists(ctx context.Context) ([][]listMember, error) {
	all := make([]int, len(ix.lists))
	for li := range all {
		all[li] = li
	}
	comps, err := ix.listComponents(ctx, all)
	if err != nil {
		return nil, err
	}
	lists := make([][]listMember, len(ix.lists))
	for li, d := range ix.lists {
		if lists[li], err = ix.decodeList(comps[d.ComponentID], li); err != nil {
			return nil, err
		}
	}
	return lists, nil
}

// decodeList decodes every member of list li out of its component's
// bytes — the one decoder of the list format besides the ADC scan in
// Search, which scores codes in place.
func (ix *Index) decodeList(comp []byte, li int) ([]listMember, error) {
	d := ix.lists[li]
	if d.Count == 0 {
		return nil, nil
	}
	listData, err := listBytes(comp, d)
	if err != nil {
		return nil, fmt.Errorf("ivfpq: list %d: %w", li, err)
	}
	count, n := binary.Uvarint(listData)
	if n <= 0 || int(count) != d.Count {
		return nil, fmt.Errorf("ivfpq: corrupt list %d header", li)
	}
	lpos := n
	members := make([]listMember, 0, d.Count)
	for i := 0; i < d.Count; i++ {
		file, n := binary.Uvarint(listData[lpos:])
		if n <= 0 {
			return nil, fmt.Errorf("ivfpq: corrupt list %d", li)
		}
		lpos += n
		row, n := binary.Varint(listData[lpos:])
		if n <= 0 {
			return nil, fmt.Errorf("ivfpq: corrupt list %d", li)
		}
		lpos += n
		if lpos+ix.m > len(listData) {
			return nil, fmt.Errorf("ivfpq: corrupt list %d codes", li)
		}
		members = append(members, listMember{ref: postings.RowRef{File: uint32(file), Row: row}, code: listData[lpos : lpos+ix.m : lpos+ix.m]})
		lpos += ix.m
	}
	return members, nil
}

// reconstruct writes the member's approximate vector — its cell
// centroid plus the PQ-decoded residual — into v.
func (ix *Index) reconstruct(v []float32, li int, code []byte) {
	copy(v, ix.centroids[li])
	for m := 0; m < ix.m; m++ {
		cw := ix.codebooks[m][code[m]]
		for j, x := range cw {
			v[m*ix.subdim+j] += x
		}
	}
}

// RefineInto rewrites ix with the cells in split re-clustered into
// SplitFactor sub-cells each, appending the refined index's components
// (root last) to b. The PQ codebooks are retained; only the coarse
// partition changes, so splitting sharpens the residuals ADC scores
// are computed from. Recall for queries landing in a split cell
// improves at equal nprobe because each probe now covers a tighter
// region. Cells not in split are carried over unchanged.
func RefineInto(ctx context.Context, b *component.Builder, ix *Index, split []int, opts RefineOptions) error {
	opts = opts.WithDefaults()
	splitSet := make(map[int]bool, len(split))
	for _, li := range split {
		if li < 0 || li >= len(ix.lists) {
			return fmt.Errorf("ivfpq: split cell %d out of range [0,%d)", li, len(ix.lists))
		}
		splitSet[li] = true
	}
	rng := rand.New(rand.NewSource(opts.Seed))

	// New coarse partition: walk lists in order; unsplit cells carry
	// over verbatim, split cells fan out into sub-centroids trained on
	// their members' reconstructed vectors, with residual codes
	// recomputed against the new centers using the existing codebooks.
	lists, err := ix.decodeLists(ctx)
	if err != nil {
		return err
	}
	var t assigner
	var centroids [][]float32
	var newLists [][]listMember
	total := 0
	for li, members := range lists {
		total += len(members)
		if !splitSet[li] || len(members) < 2 {
			centroids = append(centroids, ix.centroids[li])
			newLists = append(newLists, members)
			continue
		}
		n := len(members)
		vecs := make([]float32, n*ix.dim)
		approx := make([][]float32, n)
		for i, mb := range members {
			approx[i] = vecs[i*ix.dim : (i+1)*ix.dim]
			ix.reconstruct(approx[i], li, mb.code)
		}
		cell := make([]int32, n)
		subCents := t.kmeans(approx, opts.SplitFactor, opts.KMeansIters, rng, cell)
		t.assign(approx, subCents, cell)
		// Residuals against the new centers (in place), re-encoded with
		// the existing codebooks from each member's old code as reference.
		for i, v := range approx {
			for j, x := range subCents[cell[i]] {
				v[j] -= x
			}
		}
		codes := make([]byte, n*ix.m)
		sub, code := make([][]float32, n), make([]int32, n)
		for m := 0; m < ix.m; m++ {
			for i, mb := range members {
				sub[i], code[i] = approx[i][m*ix.subdim:(m+1)*ix.subdim], int32(mb.code[m])
			}
			t.assign(sub, ix.codebooks[m], code)
			for i, c := range code {
				codes[i*ix.m+m] = byte(c)
			}
		}
		subMembers := make([][]listMember, len(subCents))
		for i, mb := range members {
			subMembers[cell[i]] = append(subMembers[cell[i]], listMember{ref: mb.ref, code: codes[i*ix.m : (i+1)*ix.m]})
		}
		centroids = append(centroids, subCents...)
		newLists = append(newLists, subMembers...)
	}

	descs := writeLists(b, newLists, opts.TargetComponentBytes)
	b.Add(encodeRoot(ix.dim, ix.m, ix.subdim, centroids, ix.codebooks, descs, total))
	return nil
}
