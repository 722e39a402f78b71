package parquet

import (
	"context"
	"fmt"

	"rottnest/internal/objectstore"
)

// ReadColumnChunk is the traditional read path: it downloads the named
// row group's entire column chunk in one ranged GET and decodes every
// page in it. For wide columns this transfers tens to hundreds of MB
// to answer even single-row lookups — the read-granularity problem of
// Section II-B.
func ReadColumnChunk(ctx context.Context, store objectstore.Store, key string, meta *FileMeta, rowGroup, column int) (ColumnValues, error) {
	if rowGroup < 0 || rowGroup >= len(meta.RowGroups) {
		return ColumnValues{}, fmt.Errorf("parquet: row group %d out of range", rowGroup)
	}
	group := meta.RowGroups[rowGroup]
	if column < 0 || column >= len(group.Chunks) {
		return ColumnValues{}, fmt.Errorf("parquet: column %d out of range", column)
	}
	chunk := group.Chunks[column]
	raw, err := store.GetRange(ctx, key, chunk.Offset, chunk.Size)
	if err != nil {
		return ColumnValues{}, fmt.Errorf("parquet: read chunk %s[%d][%d]: %w", key, rowGroup, column, err)
	}
	return decodeChunk(meta.Schema.Columns[column], raw, chunk.NumPages)
}

// decodeChunk parses the concatenated pages of one chunk.
func decodeChunk(col Column, raw []byte, numPages int) (ColumnValues, error) {
	var out ColumnValues
	pos := 0
	for p := 0; p < numPages; p++ {
		h, n, err := parsePageHeader(raw[pos:])
		if err != nil {
			return ColumnValues{}, err
		}
		total := n + int(h.CompressedSize)
		if pos+total > len(raw) {
			return ColumnValues{}, fmt.Errorf("parquet: chunk truncated at page %d", p)
		}
		vals, err := decodePage(col, raw[pos:pos+total])
		if err != nil {
			return ColumnValues{}, err
		}
		out = out.Append(vals)
		pos += total
	}
	return out, nil
}

// Page is one decoded data page plus its location info.
type Page struct {
	Info   PageInfo
	Values ColumnValues
}

// ReadPages is the Rottnest optimized read path (Section V-A): given
// page locations from an externally stored PageTable, it fetches
// exactly those pages with parallel ranged GETs — no footer read, no
// chunk read — and decodes them. Pages are returned in the order of
// the infos argument. Byte-array values are read-only views of the
// page bodies (see decodeValues), as are those of ScanColumn and
// ReadColumnChunk.
func ReadPages(ctx context.Context, store objectstore.Store, key string, col Column, infos []PageInfo) ([]Page, error) {
	if len(infos) == 0 {
		return nil, nil
	}
	reqs := make([]objectstore.RangeRequest, len(infos))
	for i, info := range infos {
		reqs[i] = objectstore.RangeRequest{Key: key, Offset: info.Offset, Length: info.Size}
	}
	raws, err := objectstore.FanGet(ctx, store, reqs)
	if err != nil {
		return nil, fmt.Errorf("parquet: read pages of %s: %w", key, err)
	}
	pages := make([]Page, len(infos))
	for i, raw := range raws {
		vals, err := decodePage(col, raw)
		if err != nil {
			return nil, fmt.Errorf("parquet: decode page %d of %s: %w", infos[i].Ordinal, key, err)
		}
		pages[i] = Page{Info: infos[i], Values: vals}
	}
	return pages, nil
}

// ScanColumn reads one full column of a file — every chunk of every
// row group — returning the concatenated values and the reconstructed
// PageTable. Indexers use it: building an index requires reading all
// the data anyway, and recording page boundaries along the way is how
// Rottnest obtains the page table it stores in the index.
func ScanColumn(ctx context.Context, store objectstore.Store, key string, column int) (ColumnValues, PageTable, *FileMeta, error) {
	meta, err := ReadFileMeta(ctx, store, key)
	if err != nil {
		return ColumnValues{}, nil, nil, err
	}
	if column < 0 || column >= len(meta.Schema.Columns) {
		return ColumnValues{}, nil, nil, fmt.Errorf("parquet: column %d out of range", column)
	}
	col := meta.Schema.Columns[column]
	var out ColumnValues
	var table PageTable
	var fileRow int64
	ordinal := 0
	// The footer names every row group's chunk, so they are one fan.
	reqs := make([]objectstore.RangeRequest, len(meta.RowGroups))
	for gi, group := range meta.RowGroups {
		reqs[gi] = objectstore.RangeRequest{Key: key, Offset: group.Chunks[column].Offset, Length: group.Chunks[column].Size}
	}
	raws, err := objectstore.FanGet(ctx, store, reqs)
	if err != nil {
		return ColumnValues{}, nil, nil, fmt.Errorf("parquet: scan %s: %w", key, err)
	}
	for gi, group := range meta.RowGroups {
		chunk, raw := group.Chunks[column], raws[gi]
		raws[gi] = nil
		pos := 0
		for p := 0; p < chunk.NumPages; p++ {
			h, n, err := parsePageHeader(raw[pos:])
			if err != nil {
				return ColumnValues{}, nil, nil, err
			}
			total := n + int(h.CompressedSize)
			if pos+total > len(raw) {
				return ColumnValues{}, nil, nil, fmt.Errorf("parquet: chunk truncated at page %d", p)
			}
			vals, err := decodePage(col, raw[pos:pos+total])
			if err != nil {
				return ColumnValues{}, nil, nil, err
			}
			table = append(table, PageInfo{
				Ordinal:   ordinal,
				Offset:    chunk.Offset + int64(pos),
				Size:      int64(total),
				NumValues: vals.Len(),
				FirstRow:  fileRow,
			})
			out = out.Append(vals)
			fileRow += int64(vals.Len())
			ordinal++
			pos += total
		}
	}
	return out, table, meta, nil
}

// ChunkForColumn returns the column chunks of the given column across
// all row groups, for brute-force planning.
func ChunkForColumn(meta *FileMeta, column int) []ChunkMeta {
	chunks := make([]ChunkMeta, 0, len(meta.RowGroups))
	for _, g := range meta.RowGroups {
		chunks = append(chunks, g.Chunks[column])
	}
	return chunks
}
