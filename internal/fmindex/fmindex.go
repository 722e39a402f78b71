// Package fmindex implements Rottnest's exact-substring index
// (Section V-C2 of the paper): an FM-index over the Burrows-Wheeler
// transform of the indexed text, componentized for object storage.
//
// Layout (a component file of kind KindFM):
//
//   - BWT blocks: the BWT split into fixed-size blocks, one compressed
//     component each. occ(c, i) ranks are answered from per-block
//     checkpoint counters held in the root plus a scan of one block.
//   - Page-map blocks: a page-granular sampled suffix array — for each
//     BWT row i, the data page containing text position SA[i]. This is
//     what lets matches resolve to (file, page) posting refs without
//     storing the raw suffix array.
//   - Root component (appended last, so the open's suffix read usually
//     captures it): text length, symbol counts, the page table (text
//     start offset and PageRef of every indexed page), per-block
//     checkpoint deltas, and a sparse bigram table — how often every
//     adjacent symbol pair occurs in the text.
//
// Backward search reads one BWT block per bound per pattern character,
// and each step's blocks depend on the step before — the depth-bound
// access pattern that lands substring search at a few seconds of
// object-store latency in the paper. Here the first two steps need no
// block at all: suffixes sort by their first two symbols, so the rows
// matching a pattern's last two characters are a running sum over the
// root's bigram table. The rest are predicted: the root's per-block
// checkpoints bound every later step's rows, so a step that fetches
// also fetches the blocks the next steps can read, and the page-map
// blocks of the matches, a few blocks per pattern at a time
// (superwalk.go).
package fmindex

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"

	"rottnest/internal/component"
	"rottnest/internal/postings"
	"rottnest/internal/simtime"
)

// Sentinel is the terminator byte appended to the indexed text. Text
// handed to Build must not contain it.
const Sentinel = 0x00

// Separator is the conventional byte used by callers to join
// documents before indexing; patterns containing it cannot match
// within a document.
const Separator = 0x01

// BuildOptions tune index construction.
type BuildOptions struct {
	// BlockSize is the BWT bytes per block. Defaults to 64 KiB: well
	// inside the flat region of the object-store latency curve while
	// keeping checkpoint overhead ~3%.
	BlockSize int
	// PageMapBlock is the number of page-map entries per component.
	// Defaults to 64Ki entries.
	PageMapBlock int
}

func (o BuildOptions) withDefaults() BuildOptions {
	if o.BlockSize <= 0 {
		o.BlockSize = 64 << 10
	}
	if o.PageMapBlock <= 0 {
		o.PageMapBlock = 64 << 10
	}
	return o
}

// Build constructs an FM-index file over text. pageStarts[i] is the
// text offset at which indexed page i begins (pageStarts[0] must be
// 0, strictly increasing), and refs[i] is the page's physical
// location. Matches at positions within page i resolve to refs[i].
// An empty text may have no pages: the index over it matches nothing.
func Build(text []byte, pageStarts []int64, refs []postings.PageRef, opts BuildOptions) ([]byte, error) {
	b := component.NewBuilder(component.KindFM)
	if err := BuildInto(b, text, pageStarts, refs, opts); err != nil {
		return nil, err
	}
	return b.Finish()
}

// BuildInto appends the FM-index's components (root last) to an
// existing builder, letting callers prepend their own components —
// Rottnest's client stores its file-table manifest as component 0 of
// every index file. text is copied; a caller that assembles the text
// itself appends the sentinel and calls BuildTerminatedInto.
func BuildInto(b *component.Builder, text []byte, pageStarts []int64, refs []postings.PageRef, opts BuildOptions) error {
	full := make([]byte, len(text)+1) // full[len(text)] is the Sentinel
	copy(full, text)
	return BuildTerminatedInto(b, full, pageStarts, refs, opts)
}

// BuildTerminatedInto is BuildInto over text that already ends with
// its Sentinel, which is read in place: a build keeps that buffer, its
// suffix array (4 bytes per text byte) and the builder's output, and
// nothing else that grows with the text.
func BuildTerminatedInto(b *component.Builder, full []byte, pageStarts []int64, refs []postings.PageRef, opts BuildOptions) error {
	return build(b, full, make([]int32, len(full)), pageStarts, refs, opts)
}

// build is the one build path: full is the text with its sentinel and
// sa the len(full) zeroed slots its suffix array is computed into.
func build(b *component.Builder, full []byte, sa []int32, pageStarts []int64, refs []postings.PageRef, opts BuildOptions) error {
	opts = opts.withDefaults()
	if len(full) == 0 || full[len(full)-1] != Sentinel {
		return fmt.Errorf("fmindex: text does not end with the sentinel byte 0x%02x", Sentinel)
	}
	if err := validateBuildInput(full[:len(full)-1], pageStarts, refs); err != nil {
		return err
	}
	sortSuffixes(full, sa)
	appendIndexComponents(b, full, sa, pageStarts, refs, opts)
	return nil
}

// validateBuildInput checks the Build contract shared by the
// production and reference builders: parallel page tables, strictly
// increasing starts from 0 (none for an empty text), and sentinel-free
// text.
func validateBuildInput(text []byte, pageStarts []int64, refs []postings.PageRef) error {
	if len(pageStarts) != len(refs) {
		return fmt.Errorf("fmindex: %d page starts but %d refs", len(pageStarts), len(refs))
	}
	if len(pageStarts) == 0 && len(text) == 0 {
		return nil
	}
	if len(pageStarts) == 0 || pageStarts[0] != 0 {
		return fmt.Errorf("fmindex: pageStarts must begin at 0")
	}
	for i := 1; i < len(pageStarts); i++ {
		if pageStarts[i] <= pageStarts[i-1] {
			return fmt.Errorf("fmindex: pageStarts must be strictly increasing")
		}
	}
	if bytes.IndexByte(text, Sentinel) >= 0 {
		return fmt.Errorf("fmindex: text contains the sentinel byte 0x%02x", Sentinel)
	}
	return nil
}

// appendIndexComponents encodes the FM-index from a precomputed
// suffix array: BWT blocks, page-map blocks, and the root. Blocks are
// derived from the suffix array a batch at a time on the worker pool,
// into the builder's per-slot scratch (neither the BWT nor the page
// map exists whole), and appended in block order, so the emitted file
// is byte-identical to a serial build.
func appendIndexComponents(b *component.Builder, full []byte, sa []int32, pageStarts []int64, refs []postings.PageRef, opts BuildOptions) {
	n := len(full)

	// base is the component ID of the first BWT block; components
	// added by earlier callers (e.g. the client's manifest) shift it.
	base := b.NumComponents()

	// BWT blocks — bwt[i] = text[sa[i]-1], wrapping to the sentinel —
	// and the symbol counts within each block.
	numBlocks := (n + opts.BlockSize - 1) / opts.BlockSize
	checkDeltas := make([][256]uint32, numBlocks)
	b.AddEach(numBlocks, func(blk int, buf []byte) []byte {
		lo := blk * opts.BlockSize
		rows := sa[lo:min(lo+opts.BlockSize, n)]
		buf = slices.Grow(buf, len(rows))[:len(rows)]
		for i, pos := range rows {
			c := byte(Sentinel)
			if pos > 0 {
				c = full[pos-1]
			}
			buf[i] = c
			checkDeltas[blk][c]++
		}
		return buf
	})

	// Page-map blocks: page ordinal of SA[i], bit-packed. The sentinel
	// row maps to page 0 (harmless; patterns never match the
	// sentinel).
	pages := newPageTable(n, pageStarts)
	numPMBlocks := (n + opts.PageMapBlock - 1) / opts.PageMapBlock
	bits := bitsFor(uint32(len(pageStarts)))
	b.AddEach(numPMBlocks, func(blk int, buf []byte) []byte {
		lo := blk * opts.PageMapBlock
		rows := sa[lo:min(lo+opts.PageMapBlock, n)]
		return packBits(buf, len(rows), bits, func(i int) uint32 {
			if int(rows[i]) == n-1 {
				return 0 // sentinel row; never queried
			}
			return pages.pageOf(rows[i])
		})
	})

	b.Add(encodeRoot(n, base, opts, numBlocks, numPMBlocks, checkDeltas, pageStarts, refs, countPairs(full)))
}

// countPairs counts every adjacent symbol pair of the sentinel-
// terminated text, indexed x<<8|y. The sentinel only ever appears as
// the final y.
func countPairs(full []byte) []uint32 {
	pairs := make([]uint32, 1<<16)
	for i := 1; i < len(full); i++ {
		pairs[int(full[i-1])<<8|int(full[i])]++
	}
	return pairs
}

// pageBucketShift sizes the position→page table's buckets: one entry
// per KiB of text keeps the table cache-resident (4 KB per MB of text)
// where one entry per position was four times the text.
const pageBucketShift = 10

// pageTable maps a text position to the page containing it — the
// largest j with starts[j] <= pos. coarse[k] is the page containing
// position k<<pageBucketShift, so a position's page lies between its
// bucket's entry and the next: the same entry for data pages, which
// span many buckets, and a short binary search when pages are tiny.
type pageTable struct {
	starts []int64
	coarse []uint32
}

// newPageTable builds the table for positions [0, n), n >= 1, in one
// O(n>>pageBucketShift + pages) walk. starts is validated (strictly
// increasing from 0); entries beyond n cover no positions.
func newPageTable(n int, starts []int64) pageTable {
	coarse := make([]uint32, (n-1)>>pageBucketShift+2)
	j := 0
	for k := range coarse {
		for j+1 < len(starts) && starts[j+1] <= int64(k)<<pageBucketShift {
			j++
		}
		coarse[k] = uint32(j)
	}
	return pageTable{starts: starts, coarse: coarse}
}

func (t pageTable) pageOf(pos int32) uint32 {
	lo, hi := t.coarse[pos>>pageBucketShift], t.coarse[pos>>pageBucketShift+1]
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if t.starts[mid] <= int64(pos) {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// encodeRoot serializes the root component. The bigram section comes
// last, so a root that ends after the checkpoint deltas is a root
// written before the section existed.
func encodeRoot(n, base int, opts BuildOptions, numBlocks, numPMBlocks int, checkDeltas [][256]uint32, pageStarts []int64, refs []postings.PageRef, pairs []uint32) []byte {
	root := binary.AppendUvarint(nil, uint64(base))
	root = binary.AppendUvarint(root, uint64(n))
	root = binary.AppendUvarint(root, uint64(opts.BlockSize))
	root = binary.AppendUvarint(root, uint64(numBlocks))
	root = binary.AppendUvarint(root, uint64(opts.PageMapBlock))
	root = binary.AppendUvarint(root, uint64(numPMBlocks))
	root = binary.AppendUvarint(root, uint64(len(pageStarts)))
	prev := int64(0)
	for _, s := range pageStarts {
		root = binary.AppendUvarint(root, uint64(s-prev))
		prev = s
	}
	for _, r := range refs {
		root = binary.AppendUvarint(root, uint64(r.File))
		root = binary.AppendUvarint(root, uint64(r.Page))
	}
	for blk := 0; blk < numBlocks; blk++ {
		for c := 0; c < 256; c++ {
			root = binary.AppendUvarint(root, uint64(checkDeltas[blk][c]))
		}
	}
	return appendPairs(root, pairs)
}

// appendPairs encodes the bigram section: the number of non-zero
// pairs, then each as (key delta, count), keys ascending from -1.
func appendPairs(root []byte, pairs []uint32) []byte {
	nonZero := 0
	for _, cnt := range pairs {
		if cnt != 0 {
			nonZero++
		}
	}
	root = binary.AppendUvarint(root, uint64(nonZero))
	prevKey := -1
	for key, cnt := range pairs {
		if cnt != 0 {
			root = binary.AppendUvarint(root, uint64(key-prevKey))
			root = binary.AppendUvarint(root, uint64(cnt))
			prevKey = key
		}
	}
	return root
}

// Index is an opened FM-index ready for queries.
type Index struct {
	r            *component.Reader
	base         int // component ID of the first BWT block
	n            int
	blockSize    int
	numBlocks    int
	pmBlock      int
	numPMBlocks  int
	pageStarts   []int64
	refs         []postings.PageRef
	c            [257]int64   // c[b] = rows whose first symbol < b
	checkpoints  [][256]int64 // occ at each block start
	totalSymbols [256]int64
	// The bigram table: pairKeys holds the text's adjacent symbol
	// pairs x<<8|y in ascending order and pairRows[i] the first BWT row
	// whose suffix starts with pair i, with one closing entry (n). Rows
	// sort by their first two symbols, so pair i owns exactly
	// [pairRows[i], pairRows[i+1]). pairRows is nil for a root written
	// without the table.
	pairKeys []uint16
	pairRows []int64
}

// Footprint estimates the decoded index's resident bytes — page
// starts, page refs, per-block occ checkpoints, and the fixed count
// tables — for cache cost accounting. BWT block payloads are fetched
// lazily per lookup and are not part of the open result.
func (ix *Index) Footprint() int64 {
	return 8*int64(len(ix.pageStarts)) +
		48*int64(len(ix.refs)) +
		256*8*int64(len(ix.checkpoints)) +
		2*int64(len(ix.pairKeys)) + 8*int64(len(ix.pairRows)) +
		257*8 + 256*8 + 128
}

// Open parses the root component of the FM-index behind r.
func Open(ctx context.Context, r *component.Reader) (*Index, error) {
	if r.Kind() != component.KindFM {
		return nil, fmt.Errorf("fmindex: %s is not an FM-index (kind %d)", r.Key(), r.Kind())
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
			return 0, fmt.Errorf("fmindex: corrupt root")
		}
		pos += n
		return v, nil
	}
	vals := make([]uint64, 7)
	for i := range vals {
		v, err := next()
		if err != nil {
			return nil, err
		}
		vals[i] = v
	}
	ix.base = int(vals[0])
	ix.n = int(vals[1])
	ix.blockSize = int(vals[2])
	ix.numBlocks = int(vals[3])
	ix.pmBlock = int(vals[4])
	ix.numPMBlocks = int(vals[5])
	numPages := int(vals[6])
	// Sanity bounds: block counts must fit the file's component
	// count and the page table must fit the root. A corrupted root
	// must not drive allocations.
	if ix.base < 0 || ix.numBlocks < 0 || ix.numPMBlocks < 0 ||
		ix.base+ix.numBlocks+ix.numPMBlocks+1 > r.NumComponents() {
		return nil, fmt.Errorf("fmindex: root block counts exceed file components")
	}
	if ix.n < 1 || ix.blockSize <= 0 || ix.pmBlock <= 0 { // the sentinel is always indexed
		return nil, fmt.Errorf("fmindex: corrupt root geometry")
	}
	// Every BWT position must land in a checkpointed block, or occ
	// would index past the checkpoint table.
	if ix.n > 0 && (ix.n-1)/ix.blockSize+1 > ix.numBlocks {
		return nil, fmt.Errorf("fmindex: root text length %d exceeds %d blocks of %d",
			ix.n, ix.numBlocks, ix.blockSize)
	}
	if ix.n > 0 && (ix.n-1)/ix.pmBlock+1 > ix.numPMBlocks {
		return nil, fmt.Errorf("fmindex: root text length %d exceeds %d page-map blocks of %d",
			ix.n, ix.numPMBlocks, ix.pmBlock)
	}
	if numPages < 0 || numPages > len(root) {
		return nil, fmt.Errorf("fmindex: root claims %d pages in %d bytes", numPages, len(root))
	}
	ix.pageStarts = make([]int64, numPages)
	var prev int64
	for i := range ix.pageStarts {
		d, err := next()
		if err != nil {
			return nil, err
		}
		prev += int64(d)
		ix.pageStarts[i] = prev
	}
	ix.refs = make([]postings.PageRef, numPages)
	for i := range ix.refs {
		f, err := next()
		if err != nil {
			return nil, err
		}
		p, err := next()
		if err != nil {
			return nil, err
		}
		ix.refs[i] = postings.PageRef{File: uint32(f), Page: uint32(p)}
	}
	ix.checkpoints = make([][256]int64, ix.numBlocks)
	var running [256]int64
	for blk := 0; blk < ix.numBlocks; blk++ {
		ix.checkpoints[blk] = running
		for c := 0; c < 256; c++ {
			d, err := next()
			if err != nil {
				return nil, err
			}
			running[c] += int64(d)
		}
	}
	ix.totalSymbols = running
	var sum int64
	for c := 0; c < 256; c++ {
		ix.c[c] = sum
		sum += running[c]
	}
	ix.c[256] = sum
	if sum != int64(ix.n) {
		return nil, fmt.Errorf("fmindex: root symbol counts sum to %d, want %d", sum, ix.n)
	}
	if pos == len(root) {
		return ix, nil // written before the bigram table existed
	}
	numPairs, err := next()
	if err != nil {
		return nil, err
	}
	if numPairs > 1<<16 || numPairs > uint64(len(root)-pos) {
		return nil, fmt.Errorf("fmindex: root claims %d bigrams in %d bytes", numPairs, len(root)-pos)
	}
	// A pair's rows follow the sentinel row and every smaller pair's,
	// which is only true of counts that add up: each symbol is followed
	// by something exactly as often as it occurs.
	ix.pairKeys = make([]uint16, numPairs)
	ix.pairRows = make([]int64, numPairs+1)
	var rowSums [256]int64
	key, row := int64(-1), int64(1)
	for i := range ix.pairKeys {
		d, err := next()
		if err != nil {
			return nil, err
		}
		cnt, err := next()
		if err != nil {
			return nil, err
		}
		if d == 0 || d > 1<<16 || key+int64(d) >= 1<<16 || cnt > uint64(ix.n) {
			return nil, fmt.Errorf("fmindex: corrupt root bigram %d", i)
		}
		key += int64(d)
		ix.pairKeys[i], ix.pairRows[i] = uint16(key), row
		rowSums[key>>8] += int64(cnt)
		row += int64(cnt)
	}
	ix.pairRows[numPairs] = row
	rowSums[Sentinel] += ix.totalSymbols[Sentinel] // the sentinel is followed by nothing
	if rowSums != ix.totalSymbols || row != int64(ix.n) || pos != len(root) {
		return nil, fmt.Errorf("fmindex: root bigram counts do not match the symbol counts")
	}
	return ix, nil
}

// pairRange returns the BWT rows whose suffixes start with xy, from
// the root's bigram table alone; an absent pair is the empty range.
func (ix *Index) pairRange(x, y byte) (sp, ep int64) {
	key := uint16(x)<<8 | uint16(y)
	i := sort.Search(len(ix.pairKeys), func(i int) bool { return ix.pairKeys[i] >= key })
	if i == len(ix.pairKeys) || ix.pairKeys[i] != key {
		return 0, 0
	}
	return ix.pairRows[i], ix.pairRows[i+1]
}

// NumPages returns the number of indexed pages.
func (ix *Index) NumPages() int { return len(ix.refs) }

// PageStartsAndRefs exposes the page table, used by merging.
func (ix *Index) PageStartsAndRefs() ([]int64, []postings.PageRef) {
	return ix.pageStarts, ix.refs
}

// Count performs backward search and returns the number of
// occurrences of pattern in the indexed text.
func (ix *Index) Count(ctx context.Context, pattern []byte) (int64, error) {
	counts, _, err := ix.CountMany(ctx, [][]byte{pattern})
	if err != nil {
		return 0, err
	}
	return counts[0], nil
}

// Lookup returns the distinct pages containing occurrences of
// pattern, reading at most maxRows page-map entries (0 means all).
// False positives across document boundaries are possible when the
// pattern spans a separator; in-situ probing filters them.
func (ix *Index) Lookup(ctx context.Context, pattern []byte, maxRows int) ([]postings.PageRef, error) {
	refs, _, err := ix.LookupBounded(ctx, pattern, maxRows)
	return refs, err
}

// LookupBounded is Lookup that also reports whether the maxRows bound
// truncated the match set — callers implementing exact top-K must
// retry unbounded when a truncated result under-fills K (deleted rows
// or page-level false positives may have eaten the bounded sample).
func (ix *Index) LookupBounded(ctx context.Context, pattern []byte, maxRows int) ([]postings.PageRef, bool, error) {
	refs, truncated, _, err := ix.LookupManyBounded(ctx, [][]byte{pattern}, []int{maxRows})
	if err != nil {
		return nil, false, err
	}
	return refs[0], truncated[0], nil
}

// ReconstructText inverts the BWT to recover the indexed text
// (without the sentinel). MergeInto does the same per source, into
// its own buffers; queries never do.
func (ix *Index) ReconstructText(ctx context.Context) ([]byte, error) {
	full := make([]byte, ix.n)
	if err := ix.reconstructInto(ctx, full, make([]int32, ix.n)); err != nil {
		return nil, err
	}
	return full[:ix.n-1], nil
}

// reconstructInto fetches every BWT block in one fan, inflating each
// into place, and inverts the transform into full — TextLen bytes,
// the sentinel last — with lf as scratch of the same length.
func (ix *Index) reconstructInto(ctx context.Context, full []byte, lf []int32) error {
	ids := make([]int, ix.numBlocks)
	for blk := range ids {
		ids[blk] = ix.base + blk
	}
	bwt := make([]byte, ix.n)
	if err := ix.r.ComponentsInto(ctx, ids, bwt); err != nil {
		return err
	}
	if err := invertBWT(full, bwt, lf); err != nil {
		return fmt.Errorf("fmindex: %s: %w", ix.r.Key(), err)
	}
	return nil
}

// noRef is the file number of a page-table entry that resolves to no
// ref: text a merge kept but whose file it dropped. Lookups skip it.
const noRef = ^uint32(0)

// Merge combines several FM-indices into one file by reconstructing
// each source text from its BWT, concatenating, and rebuilding — the
// compute-heavy compaction step of Section IV-C. fileMaps[i] rebases
// source i's file numbers into the merged file table; pages of
// unmapped files are dropped from the page table (their text spans
// remain but resolve to no ref).
func Merge(ctx context.Context, sources []*Index, fileMaps []map[uint32]uint32, opts BuildOptions) ([]byte, error) {
	b := component.NewBuilder(component.KindFM)
	if err := MergeInto(ctx, b, sources, fileMaps, opts); err != nil {
		return nil, err
	}
	return b.Finish()
}

// MergeInto is Merge appending to an existing builder, mirroring
// BuildInto.
func MergeInto(ctx context.Context, b *component.Builder, sources []*Index, fileMaps []map[uint32]uint32, opts BuildOptions) error {
	if len(sources) != len(fileMaps) {
		return fmt.Errorf("fmindex: %d sources but %d file maps", len(sources), len(fileMaps))
	}
	// The merged text is the sources' texts, each one's sentinel slot
	// taken by the separator that keeps patterns from spanning two
	// sources, and the last one's by the merged sentinel. Every source
	// is fetched and inverted side by side, straight into its span,
	// with its span of the suffix array to come as the inversion's
	// scratch: a merge holds nothing a build of its text would not,
	// but each source's BWT while it is inverted.
	offs := make([]int, len(sources)+1)
	for i, src := range sources {
		offs[i+1] = offs[i] + src.n
	}
	n := max(offs[len(sources)], 1)
	full, sa := make([]byte, n), make([]int32, n)
	err := simtime.Fan(ctx, len(sources), 0, func(ctx context.Context, i int) error {
		return sources[i].reconstructInto(ctx, full[offs[i]:offs[i+1]], sa[offs[i]:offs[i+1]])
	})
	if err != nil {
		return err
	}
	clear(sa) // the inversions' scratch; the suffix sort wants it zeroed
	var pageStarts []int64
	var refs []postings.PageRef
	for i, src := range sources {
		starts, srcRefs := src.PageStartsAndRefs()
		for j, s := range starts {
			ref := postings.PageRef{File: noRef}
			if mapped, ok := fileMaps[i][srcRefs[j].File]; ok {
				ref = postings.PageRef{File: mapped, Page: srcRefs[j].Page}
			} else if len(refs) > 0 && refs[len(refs)-1].File == noRef {
				continue // the previous entry already resolves to no ref
			}
			pageStarts = append(pageStarts, int64(offs[i])+s)
			refs = append(refs, ref)
		}
		full[offs[i+1]-1] = Separator
	}
	full[n-1] = Sentinel
	if len(pageStarts) == 0 || pageStarts[0] != 0 {
		// Ensure a leading page entry so every position maps somewhere.
		pageStarts = append([]int64{0}, pageStarts...)
		refs = append([]postings.PageRef{{File: noRef}}, refs...)
	}
	return build(b, full, sa, pageStarts, refs, opts)
}
