// Package trie implements Rottnest's high-cardinality UUID index
// (Section V-C1 of the paper): a binary trie over 128-bit keys in
// which each key is indexed only up to its longest common prefix plus
// eight extra bits, so the index stays far smaller than the keys
// themselves while remaining exact up to harmless false positives
// (which in-situ probing filters out).
//
// The trie is componentized for object storage (Section V-B): the
// first eight trie levels are replaced by a 256-entry lookup table
// stored in the root component, and the subtries below are serialized
// as their sorted leaf paths, packed into leaf components of bounded
// size. A lookup therefore costs one suffix read (directory + root,
// performed at open) plus one leaf-component read — the two-request
// pattern of Figure 6.
package trie

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"sort"

	"rottnest/internal/component"
	"rottnest/internal/parallel"
	"rottnest/internal/postings"
	"rottnest/internal/simtime"
)

// KeyLen is the fixed key width in bytes.
const KeyLen = 16

// keyBits is the fixed key width in bits.
const keyBits = KeyLen * 8

// Entry is one leaf of the trie: a truncated key path and the pages
// containing the full keys below it.
type Entry struct {
	// Bits holds the truncated key path, packed MSB-first.
	Bits []byte
	// BitLen is the number of meaningful bits in Bits.
	BitLen int
	// Refs are the pages containing matching keys.
	Refs []postings.PageRef
}

// matches reports whether the entry's path is a prefix of key.
func (e *Entry) matches(key []byte) bool {
	return prefixMatches(e.Bits, e.BitLen, key)
}

func prefixMatches(bits []byte, bitLen int, key []byte) bool {
	full := bitLen / 8
	if !bytes.Equal(bits[:full], key[:full]) {
		return false
	}
	rem := bitLen % 8
	if rem == 0 {
		return true
	}
	mask := byte(0xFF << (8 - rem))
	return bits[full]&mask == key[full]&mask
}

// compareEntries orders entries by their bit paths (lexicographic,
// with a shorter path ordering before any longer path it prefixes).
func compareEntries(a, b *Entry) int {
	minLen := a.BitLen
	if b.BitLen < minLen {
		minLen = b.BitLen
	}
	full := minLen / 8
	if c := bytes.Compare(a.Bits[:full], b.Bits[:full]); c != 0 {
		return c
	}
	if rem := minLen % 8; rem != 0 {
		mask := byte(0xFF << (8 - rem))
		av, bv := a.Bits[full]&mask, b.Bits[full]&mask
		if av != bv {
			if av < bv {
				return -1
			}
			return 1
		}
	}
	return a.BitLen - b.BitLen
}

// extraBits is the number of bits indexed beyond each key's unique
// prefix. The paper uses 8.
const extraBits = 8

// minBits floors the truncated path length so every path covers at
// least the root lookup-table depth.
const minBits = 16

// BuildOptions tune trie construction.
type BuildOptions struct {
	// TargetComponentBytes bounds the serialized size of each leaf
	// component. Defaults to 128 KiB — squarely in the flat region of
	// the object-store latency curve.
	TargetComponentBytes int
}

func (o BuildOptions) withDefaults() BuildOptions {
	if o.TargetComponentBytes <= 0 {
		o.TargetComponentBytes = 128 << 10
	}
	return o
}

// lcpBits returns the length in bits of the longest common prefix of
// a and b.
func lcpBits(a, b []byte) int {
	n := 0
	for i := 0; i < KeyLen; i++ {
		if a[i] == b[i] {
			n += 8
			continue
		}
		x := a[i] ^ b[i]
		for x&0x80 == 0 {
			n++
			x <<= 1
		}
		return n
	}
	return n
}

// Build constructs a componentized trie file over parallel slices of
// keys and page refs (keys[i] is found on refs[i]).
func Build(keys [][16]byte, refs []postings.PageRef, opts BuildOptions) ([]byte, error) {
	b := component.NewBuilder(component.KindTrie)
	if err := BuildInto(b, keys, refs, opts); err != nil {
		return nil, err
	}
	return b.Finish()
}

// BuildInto appends the trie's components (root last) to an existing
// builder, letting callers prepend their own components — Rottnest's
// client stores its file-table manifest as component 0 of every index
// file.
func BuildInto(b *component.Builder, keys [][16]byte, refs []postings.PageRef, opts BuildOptions) error {
	if len(keys) != len(refs) {
		return fmt.Errorf("trie: %d keys but %d refs", len(keys), len(refs))
	}
	opts = opts.withDefaults()

	// Sort (key, ref) pairs: partition indices by first key byte in one
	// counting pass, then sort the 256 partitions in parallel. The
	// partition order equals the global sorted order, so this matches
	// one full sort. Duplicate keys may land in any relative order
	// across workers, which is harmless: their refs are folded into a
	// single entry below and Dedup sorts them.
	idx := make([]int, len(keys))
	var counts [257]int
	for i := range keys {
		counts[int(keys[i][0])+1]++
	}
	for c := 1; c < 257; c++ {
		counts[c] += counts[c-1]
	}
	place := counts
	for i := range keys {
		c := keys[i][0]
		idx[place[c]] = i
		place[c]++
	}
	parallel.ForEach(256, func(c int) {
		part := idx[counts[c]:counts[c+1]]
		sort.Slice(part, func(a, b int) bool {
			return bytes.Compare(keys[part[a]][:], keys[part[b]][:]) < 0
		})
	})

	type flat struct {
		key  [16]byte
		refs []postings.PageRef
	}
	var flats []flat
	for _, i := range idx {
		if n := len(flats); n > 0 && flats[n-1].key == keys[i] {
			flats[n-1].refs = append(flats[n-1].refs, refs[i])
			continue
		}
		flats = append(flats, flat{key: keys[i], refs: []postings.PageRef{refs[i]}})
	}

	// Truncate each key to LCP+1+extraBits. Each entry reads only its
	// immediate neighbours, so the pass parallelizes cleanly.
	entries := make([]*Entry, len(flats))
	parallel.ForEach(len(flats), func(i int) {
		f := flats[i]
		lcp := 0
		if i > 0 {
			lcp = lcpBits(f.key[:], flats[i-1].key[:])
		}
		if i+1 < len(flats) {
			if l := lcpBits(f.key[:], flats[i+1].key[:]); l > lcp {
				lcp = l
			}
		}
		bitLen := min(max(lcp+1+extraBits, minBits), keyBits)
		entries[i] = truncate(f.key, bitLen, f.refs)
	})
	serializeInto(b, entries, opts)
	return nil
}

// truncate returns an entry holding the first bitLen bits of key.
func truncate(key [16]byte, bitLen int, refs []postings.PageRef) *Entry {
	nbytes := (bitLen + 7) / 8
	bits := make([]byte, nbytes)
	copy(bits, key[:nbytes])
	if rem := bitLen % 8; rem != 0 {
		bits[nbytes-1] &= 0xFF << (8 - rem)
	}
	refs = postings.Dedup(refs)
	return &Entry{Bits: bits, BitLen: bitLen, Refs: refs}
}

// bucketDesc locates one root-table bucket inside a leaf component.
type bucketDesc struct {
	ComponentID int
	ByteOffset  int
	ByteLen     int
	Count       int
}

// serializeInto packs sorted entries into leaf components bucketed by
// their first byte, then appends the root lookup table. Buckets are
// encoded in parallel and the resulting components compressed in
// parallel; the grouping below reproduces the serial flush rule
// exactly, so the emitted bytes are unchanged.
func serializeInto(b *component.Builder, entries []*Entry, opts BuildOptions) {
	var buckets [256]bucketDesc

	// Partition the sorted entries into the 256 root buckets.
	var bStart, bEnd [256]int
	pos := 0
	for bk := 0; bk < 256; bk++ {
		bStart[bk] = pos
		for pos < len(entries) && int(entries[pos].Bits[0]) == bk {
			pos++
		}
		bEnd[bk] = pos
	}

	// Encode each bucket independently; entries within a bucket are
	// already in final order, so concatenating the buckets yields the
	// same stream the serial single-buffer encode produced.
	var bufs [256][]byte
	parallel.ForEach(256, func(bk int) {
		var buf []byte
		for _, e := range entries[bStart[bk]:bEnd[bk]] {
			buf = appendEntry(buf, e)
		}
		bufs[bk] = buf
	})

	// Group buckets into leaf components under the serial flush rule: a
	// component closes as soon as it reaches TargetComponentBytes after
	// a bucket completes. Empty trailing buckets keep ComponentID 0,
	// matching the old builder (their Count is 0, so it is never read).
	type group struct{ firstBucket, endBucket int }
	var groups []group
	var payloads [][]byte
	curFirst, curLen := 0, 0
	closeGroup := func(endBucket int) {
		if curLen == 0 {
			return
		}
		payload := make([]byte, 0, curLen)
		for bk := curFirst; bk < endBucket; bk++ {
			payload = append(payload, bufs[bk]...)
		}
		groups = append(groups, group{firstBucket: curFirst, endBucket: endBucket})
		payloads = append(payloads, payload)
		curLen = 0
	}
	for bk := 0; bk < 256; bk++ {
		buckets[bk] = bucketDesc{
			ByteOffset: curLen,
			ByteLen:    len(bufs[bk]),
			Count:      bEnd[bk] - bStart[bk],
		}
		curLen += len(bufs[bk])
		if curLen >= opts.TargetComponentBytes {
			closeGroup(bk + 1)
			curFirst = bk + 1
		}
	}
	closeGroup(256)

	first := b.AddAll(payloads)
	for gi, g := range groups {
		for bk := g.firstBucket; bk < g.endBucket; bk++ {
			buckets[bk].ComponentID = first + gi
		}
	}

	// Root component: total entry count + 256 bucket descriptors.
	root := binary.AppendUvarint(nil, uint64(len(entries)))
	for _, bd := range buckets {
		root = binary.AppendUvarint(root, uint64(bd.ComponentID))
		root = binary.AppendUvarint(root, uint64(bd.ByteOffset))
		root = binary.AppendUvarint(root, uint64(bd.ByteLen))
		root = binary.AppendUvarint(root, uint64(bd.Count))
	}
	b.Add(root)
}

// appendEntry serializes one entry: [u8 bitLen][path bytes][postings].
func appendEntry(dst []byte, e *Entry) []byte {
	dst = append(dst, byte(e.BitLen))
	dst = append(dst, e.Bits[:(e.BitLen+7)/8]...)
	return postings.AppendList(dst, e.Refs)
}

// decodeEntry parses one entry, returning it and the bytes consumed.
func decodeEntry(data []byte) (*Entry, int, error) {
	if len(data) < 1 {
		return nil, 0, fmt.Errorf("trie: truncated entry")
	}
	bitLen := int(data[0])
	if bitLen == 0 || bitLen > keyBits {
		return nil, 0, fmt.Errorf("trie: bad entry bit length %d", bitLen)
	}
	nbytes := (bitLen + 7) / 8
	if len(data) < 1+nbytes {
		return nil, 0, fmt.Errorf("trie: truncated entry path")
	}
	bits := append([]byte(nil), data[1:1+nbytes]...)
	refs, n, err := postings.DecodeList(data[1+nbytes:])
	if err != nil {
		return nil, 0, err
	}
	return &Entry{Bits: bits, BitLen: bitLen, Refs: refs}, 1 + nbytes + n, nil
}

// parseRoot decodes the root component.
func parseRoot(data []byte) (total int, buckets [256]bucketDesc, err error) {
	v, n := binary.Uvarint(data)
	if n <= 0 {
		return 0, buckets, fmt.Errorf("trie: corrupt root")
	}
	total = int(v)
	pos := n
	for i := range buckets {
		var vals [4]uint64
		for j := range vals {
			v, n := binary.Uvarint(data[pos:])
			if n <= 0 {
				return 0, buckets, fmt.Errorf("trie: corrupt root bucket %d", i)
			}
			vals[j] = v
			pos += n
		}
		buckets[i] = bucketDesc{
			ComponentID: int(vals[0]),
			ByteOffset:  int(vals[1]),
			ByteLen:     int(vals[2]),
			Count:       int(vals[3]),
		}
	}
	return total, buckets, nil
}

// Index is an opened trie ready for queries.
type Index struct {
	r       *component.Reader
	total   int
	buckets [256]bucketDesc
}

// Footprint estimates the decoded index's resident bytes (the root
// bucket table; node payloads are fetched lazily per lookup) for
// cache cost accounting.
func (ix *Index) Footprint() int64 {
	return 256*32 + 64
}

// Open prepares the trie at key for querying. The component open's
// suffix read captures the directory and root lookup table in one
// request.
func Open(ctx context.Context, r *component.Reader) (*Index, error) {
	if r.Kind() != component.KindTrie {
		return nil, fmt.Errorf("trie: %s is not a trie index (kind %d)", r.Key(), r.Kind())
	}
	root, err := r.Component(ctx, r.NumComponents()-1)
	if err != nil {
		return nil, err
	}
	total, buckets, err := parseRoot(root)
	if err != nil {
		return nil, err
	}
	return &Index{r: r, total: total, buckets: buckets}, nil
}

// NumEntries returns the total number of trie leaves.
func (ix *Index) NumEntries() int { return ix.total }

// Lookup returns the pages that may contain key: every leaf whose
// path is a prefix of key. False positives are possible (paths are
// truncated); false negatives are not.
func (ix *Index) Lookup(ctx context.Context, key [16]byte) ([]postings.PageRef, error) {
	bd := ix.buckets[key[0]]
	if bd.Count == 0 {
		return nil, nil
	}
	comp, err := ix.r.Component(ctx, bd.ComponentID)
	if err != nil {
		return nil, err
	}
	if bd.ByteOffset < 0 || bd.ByteLen < 0 || bd.ByteOffset+bd.ByteLen > len(comp) {
		return nil, fmt.Errorf("trie: bucket extent out of range")
	}
	data := comp[bd.ByteOffset : bd.ByteOffset+bd.ByteLen]
	var out []postings.PageRef
	for i := 0; i < bd.Count; i++ {
		e, n, err := decodeEntry(data)
		if err != nil {
			return nil, err
		}
		data = data[n:]
		if e.matches(key[:]) {
			out = append(out, e.Refs...)
		}
	}
	return postings.Dedup(out), nil
}

// Entries decodes every leaf of the trie. Merging uses it; queries
// never do. The leaf components are read in one fan and each is
// inflated once, however many buckets it holds.
func (ix *Index) Entries(ctx context.Context) ([]*Entry, error) {
	var ids []int
	slot := make(map[int]int) // component id -> position in ids
	for _, bd := range ix.buckets {
		if _, ok := slot[bd.ComponentID]; !ok && bd.Count > 0 {
			slot[bd.ComponentID] = len(ids)
			ids = append(ids, bd.ComponentID)
		}
	}
	comps, err := ix.r.Components(ctx, ids)
	if err != nil {
		return nil, err
	}
	var out []*Entry
	for bk, bd := range ix.buckets {
		if bd.Count == 0 {
			continue
		}
		comp := comps[slot[bd.ComponentID]]
		if bd.ByteOffset < 0 || bd.ByteLen < 0 || bd.ByteOffset+bd.ByteLen > len(comp) {
			return nil, fmt.Errorf("trie: bucket %d extent out of range", bk)
		}
		data := comp[bd.ByteOffset : bd.ByteOffset+bd.ByteLen]
		for i := 0; i < bd.Count; i++ {
			e, n, err := decodeEntry(data)
			if err != nil {
				return nil, err
			}
			data = data[n:]
			out = append(out, e)
		}
	}
	return out, nil
}

// Merge combines several tries into one file. fileMaps[i] rewrites
// source i's file numbers into the merged file table (refs to files
// absent from the map are dropped). Leaves with identical paths are
// folded; a leaf that is a prefix of another is kept as-is — queries
// match all prefix leaves, so this only admits the false positives
// the paper's design already tolerates.
func Merge(ctx context.Context, sources []*Index, fileMaps []map[uint32]uint32, opts BuildOptions) ([]byte, error) {
	b := component.NewBuilder(component.KindTrie)
	if err := MergeInto(ctx, b, sources, fileMaps, opts); err != nil {
		return nil, err
	}
	return b.Finish()
}

// MergeInto is Merge appending to an existing builder, mirroring
// BuildInto.
func MergeInto(ctx context.Context, b *component.Builder, sources []*Index, fileMaps []map[uint32]uint32, opts BuildOptions) error {
	if len(sources) != len(fileMaps) {
		return fmt.Errorf("trie: %d sources but %d file maps", len(sources), len(fileMaps))
	}
	opts = opts.withDefaults()
	// The sources are independent files: read them side by side.
	perSource := make([][]*Entry, len(sources))
	err := simtime.Fan(ctx, len(sources), 0, func(ctx context.Context, i int) (err error) {
		perSource[i], err = sources[i].Entries(ctx)
		return err
	})
	if err != nil {
		return err
	}
	var all []*Entry
	for i, entries := range perSource {
		for _, e := range entries {
			refs := postings.Remap(append([]postings.PageRef(nil), e.Refs...), fileMaps[i])
			if len(refs) == 0 {
				continue
			}
			all = append(all, &Entry{Bits: e.Bits, BitLen: e.BitLen, Refs: refs})
		}
	}
	sort.Slice(all, func(a, b int) bool { return compareEntries(all[a], all[b]) < 0 })
	// Fold identical paths.
	var merged []*Entry
	for _, e := range all {
		if n := len(merged); n > 0 && merged[n-1].BitLen == e.BitLen && bytes.Equal(merged[n-1].Bits, e.Bits) {
			merged[n-1].Refs = postings.Dedup(append(merged[n-1].Refs, e.Refs...))
			continue
		}
		e.Refs = postings.Dedup(e.Refs)
		merged = append(merged, e)
	}
	serializeInto(b, merged, opts)
	return nil
}
