// Package component implements Rottnest's componentization strategy
// for object-storage-resident index files (Section V-B of the paper).
//
// An index data structure is broken into independently compressed
// components concatenated into a single object, followed by a
// directory of component offsets. A reader opens the file with one
// suffix-range GET that captures the directory (and, by convention,
// the "root" component that builders append last), then fetches only
// the components a query touches — turning long chains of dependent
// small reads into a small number of ranged GETs, while keeping the
// compression benefits of serialize-the-whole-structure designs.
//
// File layout:
//
//	[data of component 0][data of component 1]...[data of component n-1]
//	[directory: n * 3 x uvarint (offset, size, rawSize)][u8 kind]
//	[u32 directory length][u64 file size][magic "RCF1"]
//
// The trailer carries the total file size so a reader can anchor its
// suffix read without a HEAD request: opening costs exactly one GET.
package component

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"

	"rottnest/internal/deflate"
	"rottnest/internal/objectstore"
	"rottnest/internal/parallel"
)

var magic = []byte("RCF1")

// Kind tags the index type stored in a component file, so readers can
// reject files of the wrong type.
type Kind uint8

// Index kinds.
const (
	// KindTrie is the UUID binary-trie index.
	KindTrie Kind = iota + 1
	// KindFM is the FM-index substring index.
	KindFM
	// KindIVFPQ is the IVF-PQ vector index.
	KindIVFPQ
)

// String names the kind for logs and trace attributes.
func (k Kind) String() string {
	switch k {
	case KindTrie:
		return "trie"
	case KindFM:
		return "fm"
	case KindIVFPQ:
		return "ivfpq"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Builder assembles a component file. Add components in access-cost
// order: components added later sit nearer the directory and are
// captured by the reader's single suffix read, so builders append the
// root component last.
//
// The builder holds each component's compressed bytes once and nothing
// else of it: the file is allocated in Finish, at its final size.
type Builder struct {
	kind   Kind
	chunks [][]byte // compressed components in file order, one slice per batch
	size   int64    // bytes in chunks
	dir    []dirEntry
	err    error
}

type dirEntry struct {
	offset  int64
	size    int64
	rawSize int64
}

// NewBuilder returns a builder for a file of the given kind.
func NewBuilder(kind Kind) *Builder {
	return &Builder{kind: kind}
}

// Add compresses data and appends it as the next component, returning
// its component ID. Errors are deferred to Finish.
func (b *Builder) Add(data []byte) int {
	return b.AddEach(1, func(int, []byte) []byte { return data })
}

// AddAll is AddEach over components the caller already holds.
func (b *Builder) AddAll(datas [][]byte) int {
	return b.AddEach(len(datas), func(i int, _ []byte) []byte { return datas[i] })
}

// slotsPerWorker sizes AddEach's batches: enough blocks per worker to
// even out their compression times, few enough that a batch's raw and
// compressed blocks stay a small multiple of GOMAXPROCS blocks.
const slotsPerWorker = 4

// AddEach appends n components, compressing them on all cores, and
// returns the ID of the first (IDs are consecutive, exactly as if Add
// had been called for each). produce(i, buf) returns component i's
// bytes: it may append them to buf — empty, with the capacity an
// earlier call on the same slot left it — or return a slice of its
// own, which is only read; one producer does not mix the two. produce
// runs concurrently for different i. Components are produced and
// compressed a batch at a time and each batch is appended in index
// order, so no more than a batch of raw or compressed blocks is live
// beside the output; deflate is deterministic for a given input, so
// the file is byte-identical to one built with serial Add calls — the
// index build pipelines depend on this. Errors are deferred to Finish.
func (b *Builder) AddEach(n int, produce func(i int, buf []byte) []byte) int {
	first := len(b.dir)
	if b.err != nil {
		return first
	}
	type slot struct {
		raw []byte
		out bytes.Buffer
		err error
	}
	slots := make([]slot, min(n, slotsPerWorker*runtime.GOMAXPROCS(0)))
	for lo := 0; lo < n; lo += len(slots) {
		batch := slots[:min(len(slots), n-lo)]
		parallel.ForEach(len(batch), func(j int) {
			s := &batch[j]
			s.raw = produce(lo+j, s.raw[:0])
			s.out.Reset()
			s.err = deflate.CompressTo(&s.out, s.raw)
		})
		total := 0
		for j := range batch {
			if batch[j].err != nil {
				b.err = batch[j].err
				return first
			}
			total += batch[j].out.Len()
		}
		chunk := make([]byte, 0, total)
		for j := range batch {
			b.dir = append(b.dir, dirEntry{
				offset:  b.size + int64(len(chunk)),
				size:    int64(batch[j].out.Len()),
				rawSize: int64(len(batch[j].raw)),
			})
			chunk = append(chunk, batch[j].out.Bytes()...)
		}
		b.chunks = append(b.chunks, chunk)
		b.size += int64(total)
	}
	return first
}

// Finish appends the directory and trailer and returns the complete
// file bytes; the builder is spent.
func (b *Builder) Finish() ([]byte, error) {
	if b.err != nil {
		return nil, b.err
	}
	var dir []byte
	for _, e := range b.dir {
		dir = binary.AppendUvarint(dir, uint64(e.offset))
		dir = binary.AppendUvarint(dir, uint64(e.size))
		dir = binary.AppendUvarint(dir, uint64(e.rawSize))
	}
	dir = append(dir, byte(b.kind))
	// Total size: components, directory, then the trailer's 4 (dirLen)
	// + 8 (size) + 4 (magic).
	total := b.size + int64(len(dir)) + 4 + 8 + 4
	out := make([]byte, 0, total)
	for i, chunk := range b.chunks {
		out = append(out, chunk...)
		b.chunks[i] = nil
	}
	out = append(out, dir...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(dir)))
	out = binary.LittleEndian.AppendUint64(out, uint64(total))
	return append(out, magic...), nil
}

// NumComponents returns the number of components added so far.
func (b *Builder) NumComponents() int { return len(b.dir) }

// Reader provides lazy access to a component file on an object store.
// Opening performs one suffix-range GET; each Component call fetches
// (and caches) only the requested component, satisfied from the
// already-fetched tail when possible.
type Reader struct {
	store objectstore.Store
	key   string
	kind  Kind
	dir   []dirEntry
	size  int64

	// tail caches the suffix read performed at open; components whose
	// extent lies within it cost no extra request.
	tail    []byte
	tailOff int64

	retain bool

	mu    sync.Mutex
	cache map[int][]byte
}

// OpenOptions tune the reader.
type OpenOptions struct {
	// TailBytes is the size of the speculative suffix read at open.
	// Defaults to 256 KiB, sized to capture the directory plus a
	// typical root component in one request.
	TailBytes int64

	// NoRetain stops the reader from accumulating fetched component
	// bytes in its per-reader cache: only the open-time tail and the
	// parsed directory stay resident. Set it when the reader itself is
	// cached across queries (objcache) so that posting payloads read
	// through it do not grow without bound; repeat-read savings for
	// those payloads belong to the byte-level CachedStore below.
	NoRetain bool
}

// Open fetches the file's directory (one suffix-range GET) and returns
// a lazy reader.
func Open(ctx context.Context, store objectstore.Store, key string, opts OpenOptions) (*Reader, error) {
	tailBytes := opts.TailBytes
	if tailBytes <= 0 {
		tailBytes = 256 << 10
	}
	tail, err := store.GetRange(ctx, key, -tailBytes, 0)
	if err != nil {
		return nil, fmt.Errorf("component: open %s: %w", key, err)
	}
	const trailerLen = 4 + 8 + 4 // dirLen + file size + magic
	if len(tail) < trailerLen || !bytes.Equal(tail[len(tail)-4:], magic) {
		return nil, fmt.Errorf("component: %s: bad magic", key)
	}
	size := int64(binary.LittleEndian.Uint64(tail[len(tail)-12:]))
	dirLen := int(binary.LittleEndian.Uint32(tail[len(tail)-16:]))
	if dirLen+trailerLen > len(tail) {
		// Directory exceeds the speculative read; fetch it exactly.
		tail, err = store.GetRange(ctx, key, -int64(dirLen+trailerLen), 0)
		if err != nil {
			return nil, fmt.Errorf("component: open %s directory: %w", key, err)
		}
	}
	// A corrupt dirLen can exceed the whole file (suffix reads clamp at
	// the start) or claim an empty directory with no kind byte.
	if dirLen < 1 || dirLen+trailerLen > len(tail) {
		return nil, fmt.Errorf("component: %s: corrupt directory length %d", key, dirLen)
	}
	dirBytes := tail[len(tail)-trailerLen-dirLen : len(tail)-trailerLen]
	kind := Kind(dirBytes[dirLen-1])
	dirBytes = dirBytes[:dirLen-1]
	var dir []dirEntry
	for len(dirBytes) > 0 {
		var e dirEntry
		var n int
		var v uint64
		v, n = binary.Uvarint(dirBytes)
		if n <= 0 {
			return nil, fmt.Errorf("component: %s: corrupt directory", key)
		}
		e.offset = int64(v)
		dirBytes = dirBytes[n:]
		v, n = binary.Uvarint(dirBytes)
		if n <= 0 {
			return nil, fmt.Errorf("component: %s: corrupt directory", key)
		}
		e.size = int64(v)
		dirBytes = dirBytes[n:]
		v, n = binary.Uvarint(dirBytes)
		if n <= 0 {
			return nil, fmt.Errorf("component: %s: corrupt directory", key)
		}
		e.rawSize = int64(v)
		dirBytes = dirBytes[n:]
		dir = append(dir, e)
	}
	return &Reader{
		store:   store,
		key:     key,
		kind:    kind,
		dir:     dir,
		size:    size,
		tail:    tail,
		tailOff: size - int64(len(tail)),
		retain:  !opts.NoRetain,
		cache:   make(map[int][]byte),
	}, nil
}

// Kind returns the file's index kind.
func (r *Reader) Kind() Kind { return r.kind }

// Key returns the object key the reader was opened on.
func (r *Reader) Key() string { return r.key }

// NumComponents returns the number of components in the file.
func (r *Reader) NumComponents() int { return len(r.dir) }

// Size returns the file's total byte size.
func (r *Reader) Size() int64 { return r.size }

// Footprint estimates the reader's resident memory in bytes — the
// retained tail plus the parsed directory — for cache cost accounting.
// The per-reader component cache is excluded: readers held across
// queries are opened with NoRetain, so it stays empty.
func (r *Reader) Footprint() int64 {
	return int64(len(r.tail)) + 24*int64(len(r.dir)) + 64
}

// Component returns the decompressed bytes of component id, fetching
// it with a ranged GET unless it lies within the cached tail or was
// read before.
func (r *Reader) Component(ctx context.Context, id int) ([]byte, error) {
	raw, err := r.rawComponent(ctx, id)
	if err != nil {
		return nil, err
	}
	return r.inflate(id, raw)
}

// inflate decompresses component id's stored bytes; the directory's
// rawSize bounds the result, so a corrupt entry cannot inflate without
// limit.
func (r *Reader) inflate(id int, raw []byte) ([]byte, error) {
	data, err := deflate.Decompress(raw, r.dir[id].rawSize)
	if err != nil {
		return nil, fmt.Errorf("component: %s: component %d: %w", r.key, id, err)
	}
	return data, nil
}

// entry returns component id's directory entry once its extent is
// known to lie inside the file; the directory is not trusted.
func (r *Reader) entry(id int) (dirEntry, error) {
	if id < 0 || id >= len(r.dir) {
		return dirEntry{}, fmt.Errorf("component: %s: component %d out of range", r.key, id)
	}
	e := r.dir[id]
	if e.offset < 0 || e.size < 0 || e.offset+e.size < 0 || e.offset+e.size > r.size {
		return dirEntry{}, fmt.Errorf("component: %s: component %d extent [%d,%d) outside file of %d bytes",
			r.key, id, e.offset, e.offset+e.size, r.size)
	}
	return e, nil
}

// local returns component id's stored bytes when they need no request:
// read before and retained, or inside the open-time tail.
func (r *Reader) local(id int, e dirEntry) ([]byte, bool, error) {
	r.mu.Lock()
	cached, ok := r.cache[id]
	r.mu.Unlock()
	if ok || e.offset < r.tailOff {
		return cached, ok, nil
	}
	lo := e.offset - r.tailOff
	if lo+e.size > int64(len(r.tail)) {
		return nil, false, fmt.Errorf("component: %s: component %d extent exceeds cached tail", r.key, id)
	}
	return r.tail[lo : lo+e.size], true, nil
}

func (r *Reader) rawComponent(ctx context.Context, id int) ([]byte, error) {
	e, err := r.entry(id)
	if err != nil {
		return nil, err
	}
	raw, ok, err := r.local(id, e)
	if ok || err != nil {
		return raw, err
	}
	raw, err = r.store.GetRange(ctx, r.key, e.offset, e.size)
	if err != nil {
		return nil, fmt.Errorf("component: %s: read component %d: %w", r.key, id, err)
	}
	if r.retain {
		r.mu.Lock()
		r.cache[id] = raw
		r.mu.Unlock()
	}
	return raw, nil
}

// rawComponents returns the stored bytes of several components, in
// the order of ids, fetching those not held locally in one parallel
// request fan.
func (r *Reader) rawComponents(ctx context.Context, ids []int) ([][]byte, error) {
	out := make([][]byte, len(ids))
	var reqs []objectstore.RangeRequest
	var fetchIdx []int
	for i, id := range ids {
		e, err := r.entry(id)
		if err != nil {
			return nil, err
		}
		raw, ok, err := r.local(id, e)
		if err != nil {
			return nil, err
		}
		if ok {
			out[i] = raw
			continue
		}
		reqs = append(reqs, objectstore.RangeRequest{Key: r.key, Offset: e.offset, Length: e.size})
		fetchIdx = append(fetchIdx, i)
	}
	if len(reqs) == 0 {
		return out, nil
	}
	raws, err := objectstore.FanGet(ctx, r.store, reqs)
	if err != nil {
		return nil, fmt.Errorf("component: %s: read %d components: %w", r.key, len(reqs), err)
	}
	for j, raw := range raws {
		out[fetchIdx[j]] = raw
	}
	if r.retain {
		r.mu.Lock()
		for j, raw := range raws {
			r.cache[ids[fetchIdx[j]]] = raw
		}
		r.mu.Unlock()
	}
	return out, nil
}

// Components fetches several components concurrently (one parallel
// request fan) and returns them decompressed, in the order of ids.
func (r *Reader) Components(ctx context.Context, ids []int) ([][]byte, error) {
	raws, err := r.rawComponents(ctx, ids)
	if err != nil {
		return nil, err
	}
	for i, id := range ids {
		if raws[i], err = r.inflate(id, raws[i]); err != nil {
			return nil, err
		}
	}
	return raws, nil
}

// ComponentsInto is Components inflating straight into dst, one
// component after the other; together they must fill it exactly.
func (r *Reader) ComponentsInto(ctx context.Context, ids []int, dst []byte) error {
	raws, err := r.rawComponents(ctx, ids)
	if err != nil {
		return err
	}
	want := len(dst)
	for i, id := range ids {
		size := r.dir[id].rawSize
		if size < 0 || size > int64(len(dst)) {
			return fmt.Errorf("component: %s: components %v hold more than %d bytes", r.key, ids, want)
		}
		if err := deflate.DecompressInto(dst[:size], raws[i]); err != nil {
			return fmt.Errorf("component: %s: component %d: %w", r.key, id, err)
		}
		dst = dst[size:]
	}
	if len(dst) != 0 {
		return fmt.Errorf("component: %s: components %v hold %d bytes, want %d", r.key, ids, want-len(dst), want)
	}
	return nil
}

// ReadKind returns the kind of the component file at key with a single
// small suffix read (used to sanity-check index files).
func ReadKind(ctx context.Context, store objectstore.Store, key string) (Kind, error) {
	tail, err := store.GetRange(ctx, key, -24, 0)
	if err != nil {
		return 0, err
	}
	if len(tail) < 16 || !bytes.Equal(tail[len(tail)-4:], magic) {
		return 0, fmt.Errorf("component: %s: bad magic", key)
	}
	// The kind byte is the last byte of the directory, just before
	// the 16-byte (dirLen + size) trailer fields.
	if len(tail) < 17 {
		return 0, fmt.Errorf("component: %s: truncated", key)
	}
	return Kind(tail[len(tail)-17]), nil
}
