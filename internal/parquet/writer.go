package parquet

import (
	"context"
	"fmt"

	"rottnest/internal/objectstore"
)

// WriterOptions configure a FileWriter.
type WriterOptions struct {
	// RowGroupRows is the number of rows per row group. Defaults to
	// 65536. Large row groups make whole-chunk reads expensive, which
	// is the Parquet design property Section V-A discusses.
	RowGroupRows int
	// PageBytes is the target uncompressed size of a data page.
	// Defaults to 1 MiB, matching typical Parquet writers ("the
	// physical size of a data page is equal to the compressed size
	// of 1MB of raw data").
	PageBytes int
	// Codec selects page compression. Defaults to CodecFlate.
	Codec Codec
	// DisableStats suppresses min/max statistics.
	DisableStats bool
	// DisableDict forces plain encoding for byte-array columns.
	DisableDict bool
}

func (o WriterOptions) withDefaults() WriterOptions {
	if o.RowGroupRows <= 0 {
		o.RowGroupRows = 65536
	}
	if o.PageBytes <= 0 {
		o.PageBytes = 1 << 20
	}
	if o.Codec == 0 {
		o.Codec = CodecFlate
	}
	return o
}

// FileWriter builds one columnar file in memory. Append rows in
// batches, then Close to obtain the encoded file. After Close,
// PageTables exposes the per-column page locations — the structure
// Rottnest embeds in its indices for footer-free page access.
type FileWriter struct {
	schema  *Schema
	opts    WriterOptions
	pending []ColumnValues
	buf     []byte
	groups  []RowGroupMeta
	tables  []PageTable
	// ordinals tracks the next file-global page ordinal per column.
	ordinals []int
	rows     int64
	closed   bool
}

// NewFileWriter returns a writer for the schema.
func NewFileWriter(schema *Schema, opts WriterOptions) *FileWriter {
	w := &FileWriter{
		schema:   schema,
		opts:     opts.withDefaults(),
		pending:  make([]ColumnValues, len(schema.Columns)),
		buf:      append([]byte(nil), magic...),
		tables:   make([]PageTable, len(schema.Columns)),
		ordinals: make([]int, len(schema.Columns)),
	}
	return w
}

// Append adds a batch of rows, flushing complete row groups.
func (w *FileWriter) Append(b *Batch) error {
	if w.closed {
		return fmt.Errorf("parquet: append after close")
	}
	if !b.Schema.Equal(w.schema) {
		return fmt.Errorf("parquet: batch schema mismatch")
	}
	if err := b.Validate(); err != nil {
		return err
	}
	for i := range w.pending {
		w.pending[i] = w.pending[i].Append(b.Cols[i])
	}
	for w.pendingRows() >= w.opts.RowGroupRows {
		if err := w.flushGroup(w.opts.RowGroupRows); err != nil {
			return err
		}
	}
	return nil
}

func (w *FileWriter) pendingRows() int {
	if len(w.pending) == 0 {
		return 0
	}
	return w.pending[0].Len()
}

// flushGroup writes the first n pending rows as one row group.
func (w *FileWriter) flushGroup(n int) error {
	group := RowGroupMeta{NumRows: int64(n)}
	groupStartRow := w.rows
	for ci, col := range w.schema.Columns {
		vals := w.pending[ci].Slice(0, n)
		chunk, err := w.writeChunk(ci, col, vals, groupStartRow)
		if err != nil {
			return err
		}
		group.Chunks = append(group.Chunks, chunk)
		w.pending[ci] = w.pending[ci].Slice(n, w.pending[ci].Len())
	}
	w.groups = append(w.groups, group)
	w.rows += int64(n)
	return nil
}

// writeChunk encodes one column chunk, splitting values into pages of
// roughly PageBytes uncompressed size.
func (w *FileWriter) writeChunk(ci int, col Column, vals ColumnValues, groupStartRow int64) (ChunkMeta, error) {
	chunk := ChunkMeta{Column: ci, Offset: int64(len(w.buf))}
	var stats statAcc
	n := vals.Len()
	rowInGroup := 0
	for start := 0; start < n || (n == 0 && start == 0); {
		end := w.pageEnd(col, vals, start)
		page := vals.Slice(start, end)
		if err := w.writePage(ci, col, page, groupStartRow+int64(rowInGroup), &stats); err != nil {
			return ChunkMeta{}, err
		}
		chunk.NumPages++
		rowInGroup += end - start
		start = end
		if n == 0 {
			break
		}
	}
	chunk.Size = int64(len(w.buf)) - chunk.Offset
	if !w.opts.DisableStats && stats.set {
		chunk.Min, chunk.Max = stats.min, stats.max
	}
	return chunk, nil
}

// pageEnd returns the exclusive end index of the page starting at
// start, targeting PageBytes of uncompressed data.
func (w *FileWriter) pageEnd(col Column, vals ColumnValues, start int) int {
	n := vals.Len()
	budget := w.opts.PageBytes
	size := 0
	i := start
	for ; i < n; i++ {
		switch col.Type {
		case TypeBool:
			size++ // conservative
		case TypeInt64, TypeDouble:
			size += 8
		case TypeByteArray:
			size += 4 + len(vals.Bytes[i])
		case TypeFixedLenByteArray:
			size += col.TypeLen
		}
		if size >= budget && i > start {
			return i + 1
		}
	}
	return n
}

// writePage encodes, compresses, and appends one page.
func (w *FileWriter) writePage(ci int, col Column, vals ColumnValues, firstRow int64, chunkStats *statAcc) error {
	enc := w.chooseEncoding(col, vals)
	body, err := encodeValues(nil, col, enc, vals)
	if err != nil {
		return err
	}
	codec := w.opts.Codec
	compressed, err := compressPage(codec, body)
	if err != nil {
		return err
	}
	// A page the codec cannot shrink by an eighth is stored as is: the
	// few bytes saved are not worth inflating it on every read. The
	// header carries the codec per page, so readers need no change.
	if len(compressed) > len(body)-len(body)/8 {
		codec, compressed = CodecNone, body
	}
	h := pageHeader{
		NumValues:        uint32(vals.Len()),
		UncompressedSize: uint32(len(body)),
		CompressedSize:   uint32(len(compressed)),
		Encoding:         enc,
		Codec:            codec,
	}
	if !w.opts.DisableStats {
		var ps statAcc
		ps.update(col, vals)
		if ps.set {
			h.Min, h.Max = ps.min, ps.max
		}
		chunkStats.merge(ps)
	}
	offset := int64(len(w.buf))
	w.buf = h.append(w.buf)
	w.buf = append(w.buf, compressed...)
	w.tables[ci] = append(w.tables[ci], PageInfo{
		Ordinal:   w.ordinals[ci],
		Offset:    offset,
		Size:      int64(len(w.buf)) - offset,
		NumValues: vals.Len(),
		FirstRow:  firstRow,
	})
	w.ordinals[ci]++
	return nil
}

// chooseEncoding picks the page encoding: delta for int64, dictionary
// for repetitive byte arrays, plain otherwise.
func (w *FileWriter) chooseEncoding(col Column, vals ColumnValues) Encoding {
	switch col.Type {
	case TypeInt64:
		return EncodingDelta
	case TypeByteArray:
		if w.opts.DisableDict {
			return EncodingPlain
		}
		sample := len(vals.Bytes)
		if sample > 1000 {
			sample = 1000
		}
		if sample == 0 {
			return EncodingPlain
		}
		distinct := make(map[string]struct{}, sample)
		for _, v := range vals.Bytes[:sample] {
			distinct[string(v)] = struct{}{}
		}
		if float64(len(distinct)) < 0.5*float64(sample) {
			return EncodingDict
		}
		return EncodingPlain
	default:
		return EncodingPlain
	}
}

// Close flushes remaining rows and the footer, returning the complete
// file bytes and its metadata.
func (w *FileWriter) Close() ([]byte, *FileMeta, error) {
	if w.closed {
		return nil, nil, fmt.Errorf("parquet: double close")
	}
	if n := w.pendingRows(); n > 0 {
		if err := w.flushGroup(n); err != nil {
			return nil, nil, err
		}
	}
	w.closed = true
	meta := &FileMeta{Version: 1, Schema: w.schema, NumRows: w.rows, RowGroups: w.groups}
	buf, err := encodeFooter(w.buf, meta)
	if err != nil {
		return nil, nil, err
	}
	w.buf = buf
	return w.buf, meta, nil
}

// PageTables returns the per-column page tables. Valid after Close.
func (w *FileWriter) PageTables() []PageTable { return w.tables }

// WriteFile encodes a single batch as a file and stores it at key,
// returning the metadata and per-column page tables.
func WriteFile(ctx context.Context, store objectstore.Store, key string, b *Batch, opts WriterOptions) (*FileMeta, []PageTable, error) {
	w := NewFileWriter(b.Schema, opts)
	if err := w.Append(b); err != nil {
		return nil, nil, err
	}
	data, meta, err := w.Close()
	if err != nil {
		return nil, nil, err
	}
	if err := store.Put(ctx, key, data); err != nil {
		return nil, nil, err
	}
	return meta, w.PageTables(), nil
}
