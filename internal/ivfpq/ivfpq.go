// Package ivfpq implements Rottnest's vector ANN index (Section V-C3
// of the paper): an IVF-PQ index chosen over graph indices because its
// centroid-probe access pattern is wide (one parallel fan of list
// reads) rather than deep (a chain of dependent graph hops) — the
// right trade for high-latency object storage.
//
// Layout (a component file of kind KindIVFPQ):
//
//   - list components: the inverted lists (row refs + PQ codes of the
//     residuals), packed several lists per component;
//   - root component (appended last): dimensions, coarse centroids,
//     PQ codebooks, and the list directory.
//
// A query probes the nprobe nearest centroids, fetches their list
// components in one fan, scores candidates with asymmetric distance
// computation (ADC), and returns the best candidates; the caller then
// refines by fetching full-precision vectors in situ from the lake
// (the paper's refine parameter).
package ivfpq

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"rottnest/internal/component"
	"rottnest/internal/parallel"
	"rottnest/internal/postings"
)

// BuildOptions tune index construction.
type BuildOptions struct {
	// NList is the number of coarse centroids. Defaults to
	// ~sqrt(n) clamped to [16, 1024].
	NList int
	// M is the number of PQ subquantizers; the dimension is reduced
	// to the nearest divisor. Defaults to 8.
	M int
	// KMeansIters bounds Lloyd iterations. Defaults to 12.
	KMeansIters int
	// TrainSample caps the number of vectors used for training.
	// Defaults to 20000.
	TrainSample int
	// TargetComponentBytes bounds each list component's serialized
	// size. Defaults to 256 KiB.
	TargetComponentBytes int
	// Seed makes training deterministic.
	Seed int64
}

func (o BuildOptions) withDefaults(n, dim int) BuildOptions {
	if o.NList <= 0 {
		o.NList = int(math.Sqrt(float64(n)))
		if o.NList < 16 {
			o.NList = 16
		}
		if o.NList > 1024 {
			o.NList = 1024
		}
	}
	if o.M <= 0 {
		o.M = 8
	}
	for dim%o.M != 0 && o.M > 1 {
		o.M--
	}
	if o.KMeansIters <= 0 {
		o.KMeansIters = 12
	}
	if o.TrainSample <= 0 {
		o.TrainSample = 20000
	}
	if o.TargetComponentBytes <= 0 {
		o.TargetComponentBytes = 256 << 10
	}
	return o
}

// pqCodebookSize is the number of centroids per subquantizer (8-bit
// codes).
const pqCodebookSize = 256

// Build constructs an IVF-PQ index file over parallel slices of
// vectors and row refs.
func Build(vectors [][]float32, refs []postings.RowRef, opts BuildOptions) ([]byte, error) {
	b := component.NewBuilder(component.KindIVFPQ)
	if err := BuildInto(b, vectors, refs, opts); err != nil {
		return nil, err
	}
	return b.Finish()
}

// BuildInto appends the index's components (root last) to an existing
// builder, letting callers prepend their own components — Rottnest's
// client stores its file-table manifest as component 0 of every index
// file.
func BuildInto(b *component.Builder, vectors [][]float32, refs []postings.RowRef, opts BuildOptions) error {
	if len(vectors) != len(refs) {
		return fmt.Errorf("ivfpq: %d vectors but %d refs", len(vectors), len(refs))
	}
	if len(vectors) == 0 {
		return fmt.Errorf("ivfpq: no vectors")
	}
	dim := len(vectors[0])
	for i, v := range vectors {
		if len(v) != dim {
			return fmt.Errorf("ivfpq: vector %d has dim %d, want %d", i, len(v), dim)
		}
	}
	opts = opts.withDefaults(len(vectors), dim)
	rng := rand.New(rand.NewSource(opts.Seed))
	n := len(vectors)
	var t assigner

	// Coarse quantizer, trained on a sample; every vector is then
	// assigned from the reference training left it.
	sampled := func() []int {
		if n <= opts.TrainSample {
			return nil
		}
		return rng.Perm(n)[:opts.TrainSample]
	}
	assign := make([]int32, n)
	centroids := t.train(vectors, sampled(), opts.NList, opts.KMeansIters, rng, assign)
	nlist := len(centroids)
	t.assign(vectors, centroids, assign)

	// Residuals, in one array.
	resData := make([]float32, n*dim)
	for i, v := range vectors {
		r, c := resData[i*dim:(i+1)*dim], centroids[assign[i]]
		for j, x := range v {
			r[j] = x - c[j]
		}
	}

	// PQ codebooks per subspace, trained on (a sample of) the
	// residuals; each subspace is encoded as soon as it is trained.
	subdim := dim / opts.M
	picks := sampled()
	codebooks := make([][][]float32, opts.M)
	codes := make([]byte, n*opts.M)
	sub := make([][]float32, n)
	code := make([]int32, n)
	for m := 0; m < opts.M; m++ {
		for i := range sub {
			sub[i] = resData[i*dim+m*subdim : i*dim+(m+1)*subdim]
		}
		cb := t.train(sub, picks, pqCodebookSize, opts.KMeansIters, rng, code)
		// Pad to exactly 256 entries so codes are always one byte; a
		// duplicate never wins the lowest-index tie-break.
		for len(cb) < pqCodebookSize {
			cb = append(cb, cb[0])
		}
		codebooks[m] = cb
		t.assign(sub, cb, code)
		for i, c := range code {
			codes[i*opts.M+m] = byte(c)
		}
	}

	// Inverted lists: a counting sort of the members by cell.
	ends := make([]int, nlist+1)
	for _, c := range assign {
		ends[c+1]++
	}
	for c := 0; c < nlist; c++ {
		ends[c+1] += ends[c]
	}
	members := make([]listMember, n)
	lists := make([][]listMember, nlist)
	for c := range lists {
		lists[c] = members[ends[c]:ends[c]:ends[c+1]]
	}
	for i, c := range assign {
		lists[c] = append(lists[c], listMember{ref: refs[i], code: codes[i*opts.M : (i+1)*opts.M]})
	}

	descs := writeLists(b, lists, opts.TargetComponentBytes)
	b.Add(encodeRoot(dim, opts.M, subdim, centroids, codebooks, descs, n))
	return nil
}

// writeLists serialises inverted lists into components and returns
// their directory. Each list's payload is encoded independently in
// parallel, then lists are grouped into components under the serial
// flush rule (close a component once it reaches target bytes after a
// list completes) and the groups are deflated in parallel by AddAll.
func writeLists(b *component.Builder, lists [][]listMember, target int) []listDesc {
	nlist := len(lists)
	listBufs := make([][]byte, nlist)
	parallel.ForEach(nlist, func(li int) {
		// One allocation per list, sized for the count and per member a
		// file varint, a row varint and the code string.
		members := lists[li]
		entry := binary.MaxVarintLen32 + binary.MaxVarintLen64
		if len(members) > 0 {
			entry += len(members[0].code)
		}
		buf := make([]byte, 0, binary.MaxVarintLen64+len(members)*entry)
		buf = binary.AppendUvarint(buf, uint64(len(members)))
		for _, mb := range members {
			buf = binary.AppendUvarint(buf, uint64(mb.ref.File))
			buf = binary.AppendVarint(buf, mb.ref.Row)
			buf = append(buf, mb.code...)
		}
		listBufs[li] = buf
	})

	descs := make([]listDesc, nlist)
	type group struct{ first, end int }
	var groups []group
	var payloads [][]byte
	curFirst, curLen := 0, 0
	closeGroup := func(end int) {
		if end == curFirst {
			return
		}
		payload := make([]byte, 0, curLen)
		for li := curFirst; li < end; li++ {
			payload = append(payload, listBufs[li]...)
		}
		groups = append(groups, group{first: curFirst, end: end})
		payloads = append(payloads, payload)
		curFirst, curLen = end, 0
	}
	for li := 0; li < nlist; li++ {
		descs[li] = listDesc{ByteOffset: curLen, ByteLen: len(listBufs[li]), Count: len(lists[li])}
		curLen += len(listBufs[li])
		if curLen >= target {
			closeGroup(li + 1)
		}
	}
	closeGroup(nlist)
	firstID := b.AddAll(payloads)
	for gi, g := range groups {
		for li := g.first; li < g.end; li++ {
			descs[li].ComponentID = firstID + gi
		}
	}
	return descs
}

type listDesc struct {
	ComponentID int
	ByteOffset  int
	ByteLen     int
	Count       int
}

// listBytes bounds-checks a list's extent within its component.
func listBytes(data []byte, d listDesc) ([]byte, error) {
	if d.ByteOffset < 0 || d.ByteLen < 0 || d.ByteOffset+d.ByteLen > len(data) {
		return nil, fmt.Errorf("ivfpq: list extent [%d,%d) outside component of %d bytes",
			d.ByteOffset, d.ByteOffset+d.ByteLen, len(data))
	}
	return data[d.ByteOffset : d.ByteOffset+d.ByteLen], nil
}

func appendF32s(dst []byte, v []float32) []byte {
	for _, x := range v {
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(x))
	}
	return dst
}

func encodeRoot(dim, m, subdim int, centroids [][]float32, codebooks [][][]float32, descs []listDesc, total int) []byte {
	root := binary.AppendUvarint(nil, uint64(dim))
	root = binary.AppendUvarint(root, uint64(m))
	root = binary.AppendUvarint(root, uint64(subdim))
	root = binary.AppendUvarint(root, uint64(len(centroids)))
	root = binary.AppendUvarint(root, uint64(total))
	for _, c := range centroids {
		root = appendF32s(root, c)
	}
	for mi := 0; mi < m; mi++ {
		for _, cb := range codebooks[mi] {
			root = appendF32s(root, cb)
		}
	}
	for _, d := range descs {
		root = binary.AppendUvarint(root, uint64(d.ComponentID))
		root = binary.AppendUvarint(root, uint64(d.ByteOffset))
		root = binary.AppendUvarint(root, uint64(d.ByteLen))
		root = binary.AppendUvarint(root, uint64(d.Count))
	}
	return root
}

// Candidate is one ANN candidate scored by ADC distance.
type Candidate struct {
	Ref postings.RowRef
	// Dist is the approximate squared L2 distance.
	Dist float32
}

// Index is an opened IVF-PQ index ready for queries.
type Index struct {
	r         *component.Reader
	dim       int
	m         int
	subdim    int
	total     int
	centroids [][]float32
	codebooks [][][]float32
	lists     []listDesc
}

// Footprint estimates the decoded index's resident bytes — coarse
// centroids, PQ codebooks, and list descriptors — for cache cost
// accounting. Posting lists are fetched lazily per probe and are not
// part of the open result.
func (ix *Index) Footprint() int64 {
	return 4*int64(len(ix.centroids))*int64(ix.dim) +
		4*int64(ix.m)*256*int64(ix.subdim) +
		32*int64(len(ix.lists)) + 128
}

// Open parses the root component of the index behind r.
func Open(ctx context.Context, r *component.Reader) (*Index, error) {
	if r.Kind() != component.KindIVFPQ {
		return nil, fmt.Errorf("ivfpq: %s is not an IVF-PQ index (kind %d)", r.Key(), r.Kind())
	}
	root, err := r.Component(ctx, r.NumComponents()-1)
	if err != nil {
		return nil, err
	}
	ix := &Index{r: r}
	pos := 0
	next := func() (uint64, error) {
		v, n := binary.Uvarint(root[pos:])
		if n <= 0 {
			return 0, fmt.Errorf("ivfpq: corrupt root")
		}
		pos += n
		return v, nil
	}
	hdr := make([]uint64, 5)
	for i := range hdr {
		v, err := next()
		if err != nil {
			return nil, err
		}
		hdr[i] = v
	}
	ix.dim, ix.m, ix.subdim = int(hdr[0]), int(hdr[1]), int(hdr[2])
	nlist := int(hdr[3])
	ix.total = int(hdr[4])
	// Sanity bounds: the centroid and codebook float payloads must
	// fit inside the root. A corrupted root must not drive
	// allocations.
	if ix.dim <= 0 || ix.m <= 0 || ix.subdim <= 0 || nlist < 0 || ix.total < 0 ||
		ix.m*ix.subdim != ix.dim {
		return nil, fmt.Errorf("ivfpq: corrupt root geometry")
	}
	need := int64(nlist)*int64(ix.dim)*4 + int64(ix.m)*pqCodebookSize*int64(ix.subdim)*4
	if need > int64(len(root)) {
		return nil, fmt.Errorf("ivfpq: root claims %d float bytes in %d bytes", need, len(root))
	}
	readF32s := func(n int) ([]float32, error) {
		if pos+4*n > len(root) {
			return nil, fmt.Errorf("ivfpq: corrupt root floats")
		}
		out := make([]float32, n)
		for i := range out {
			out[i] = math.Float32frombits(binary.LittleEndian.Uint32(root[pos:]))
			pos += 4
		}
		return out, nil
	}
	ix.centroids = make([][]float32, nlist)
	for i := range ix.centroids {
		c, err := readF32s(ix.dim)
		if err != nil {
			return nil, err
		}
		ix.centroids[i] = c
	}
	ix.codebooks = make([][][]float32, ix.m)
	for m := range ix.codebooks {
		ix.codebooks[m] = make([][]float32, pqCodebookSize)
		for j := range ix.codebooks[m] {
			cb, err := readF32s(ix.subdim)
			if err != nil {
				return nil, err
			}
			ix.codebooks[m][j] = cb
		}
	}
	ix.lists = make([]listDesc, nlist)
	for i := range ix.lists {
		vals := make([]uint64, 4)
		for j := range vals {
			v, err := next()
			if err != nil {
				return nil, err
			}
			vals[j] = v
		}
		ix.lists[i] = listDesc{
			ComponentID: int(vals[0]),
			ByteOffset:  int(vals[1]),
			ByteLen:     int(vals[2]),
			Count:       int(vals[3]),
		}
	}
	return ix, nil
}

// Dim returns the vector dimensionality.
func (ix *Index) Dim() int { return ix.dim }

// NumVectors returns the number of indexed vectors.
func (ix *Index) NumVectors() int { return ix.total }

// NumLists returns the number of coarse lists.
func (ix *Index) NumLists() int { return len(ix.lists) }

// Search probes the nprobe nearest coarse lists and returns the
// maxCandidates best candidates by ADC distance, ascending. The
// caller refines the top candidates against full-precision vectors.
func (ix *Index) Search(ctx context.Context, q []float32, nprobe, maxCandidates int) ([]Candidate, error) {
	if len(q) != ix.dim {
		return nil, fmt.Errorf("ivfpq: query dim %d, want %d", len(q), ix.dim)
	}
	if nprobe <= 0 {
		nprobe = 1
	}
	if nprobe > len(ix.lists) {
		nprobe = len(ix.lists)
	}
	// Rank centroids by distance to q.
	type cd struct {
		list int
		dist float32
	}
	cds := make([]cd, len(ix.centroids))
	for i, c := range ix.centroids {
		cds[i] = cd{list: i, dist: l2sq(c, q)}
	}
	sort.Slice(cds, func(a, b int) bool { return cds[a].dist < cds[b].dist })
	probes := cds[:nprobe]

	// Fetch the probed lists' components in one fan.
	lists := make([]int, len(probes))
	for i, p := range probes {
		lists[i] = p.list
	}
	comps, err := ix.listComponents(ctx, lists)
	if err != nil {
		return nil, err
	}

	var cands []Candidate
	table := make([]float32, ix.m*pqCodebookSize)
	res := make([]float32, ix.dim)
	// kb tracks the maxCandidates-th best distance seen so far; code
	// strings whose partial ADC sum exceeds it are abandoned mid-gather.
	// Abandonment cannot change the returned top-maxCandidates set: the
	// bound only shrinks, so every candidate at or below the final k-th
	// distance completes its gather (its monotone partials never exceed
	// the bound in effect while it scans), and the tie-break sort below
	// makes the cut deterministic.
	kb := adcBound{k: maxCandidates}
	if adcAbandonDisabled {
		kb.k = 0
	}
	for _, p := range probes {
		d := ix.lists[p.list]
		if d.Count == 0 {
			continue
		}
		// ADC tables on the residual q - centroid.
		cent := ix.centroids[p.list]
		for j := range res {
			res[j] = q[j] - cent[j]
		}
		adcTables(table, res, ix.codebooks, ix.subdim)
		data := comps[d.ComponentID]
		listData, err := listBytes(data, d)
		if err != nil {
			return nil, err
		}
		count, n := binary.Uvarint(listData)
		if n <= 0 || int(count) != d.Count {
			return nil, fmt.Errorf("ivfpq: corrupt list header")
		}
		lpos := n
		for i := 0; i < d.Count; i++ {
			file, n := binary.Uvarint(listData[lpos:])
			if n <= 0 {
				return nil, fmt.Errorf("ivfpq: corrupt list entry")
			}
			lpos += n
			row, n := binary.Varint(listData[lpos:])
			if n <= 0 {
				return nil, fmt.Errorf("ivfpq: corrupt list entry")
			}
			lpos += n
			if lpos+ix.m > len(listData) {
				return nil, fmt.Errorf("ivfpq: corrupt list codes")
			}
			bound := kb.bound()
			dist := adcDist(table, listData[lpos:lpos+ix.m], bound)
			lpos += ix.m
			if dist > bound {
				// Abandoned mid-gather, or completed strictly worse
				// than the current k-th best — either way it cannot
				// make the final cut.
				continue
			}
			cands = append(cands, Candidate{Ref: postings.RowRef{File: uint32(file), Row: row}, Dist: dist})
			kb.add(dist)
		}
	}
	sortCandidates(cands)
	if maxCandidates > 0 && len(cands) > maxCandidates {
		cands = cands[:maxCandidates]
	}
	return cands, nil
}

// adcAbandonDisabled forces every ADC gather to completion (tests
// flip it to pin abandon-on results against the exhaustive scan).
var adcAbandonDisabled bool

// sortCandidates orders candidates by ascending ADC distance with a
// deterministic (file, row) tie-break, so the top-maxCandidates cut
// among equal distances does not depend on scan or abandonment order.
func sortCandidates(cands []Candidate) {
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].Dist != cands[b].Dist {
			return cands[a].Dist < cands[b].Dist
		}
		if cands[a].Ref.File != cands[b].Ref.File {
			return cands[a].Ref.File < cands[b].Ref.File
		}
		return cands[a].Ref.Row < cands[b].Ref.Row
	})
}

// ExactRerank reorders candidate refs by exact distance to q given
// their full-precision vectors (fetched by the caller from the lake)
// and returns the k best. vectors[i] corresponds to cands[i].
func ExactRerank(q []float32, cands []Candidate, vectors [][]float32, k int) []Candidate {
	out := make([]Candidate, len(cands))
	for i := range cands {
		out[i] = Candidate{Ref: cands[i].Ref, Dist: l2sq(q, vectors[i])}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Dist < out[b].Dist })
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}
