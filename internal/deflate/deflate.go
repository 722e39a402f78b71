// Package deflate is the one place Rottnest compresses and inflates:
// data pages (internal/parquet) and index components
// (internal/component) both store raw DEFLATE streams written at
// flate.BestSpeed next to their uncompressed length. Readers and
// writers are pooled and Reset per call — a fresh flate.Reader is
// ~40 KB and a fresh BestSpeed flate.Writer ~600 KB — and a Reset
// writer emits exactly the bytes a new one would, so file bytes do not
// depend on pooling.
package deflate

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
	"sync"
)

// maxPrealloc caps the buffer allocated on the word of a declared
// size alone; a stream that really is longer is read in steps of it.
const maxPrealloc = 64 << 20

var writers = sync.Pool{New: func() any {
	w, err := flate.NewWriter(nil, flate.BestSpeed)
	if err != nil {
		panic(err) // BestSpeed is a valid level
	}
	return w
}}

var readers = sync.Pool{New: func() any { return flate.NewReader(nil) }}

// Compress returns data as a DEFLATE stream.
func Compress(data []byte) ([]byte, error) {
	var buf bytes.Buffer
	w := writers.Get().(*flate.Writer)
	defer writers.Put(w)
	w.Reset(&buf)
	if _, err := w.Write(data); err != nil {
		return nil, fmt.Errorf("deflate: %w", err)
	}
	if err := w.Close(); err != nil {
		return nil, fmt.Errorf("deflate: %w", err)
	}
	return buf.Bytes(), nil
}

// Decompress inflates a stream that its container declares to be size
// bytes long, into a buffer of exactly that length. The declared size
// comes from a file and is not trusted: a stream that ends before it,
// runs past it (a bomb), or fails where it should end is an error, and
// no more than maxPrealloc bytes are allocated ahead of the stream
// actually producing them.
func Decompress(data []byte, size int64) ([]byte, error) {
	if size < 0 {
		return nil, fmt.Errorf("inflate: declared size %d", size)
	}
	r := readers.Get().(io.ReadCloser)
	defer readers.Put(r)
	if err := r.(flate.Resetter).Reset(bytes.NewReader(data), nil); err != nil {
		return nil, fmt.Errorf("inflate: %w", err)
	}
	buf := make([]byte, min(size, maxPrealloc))
	n, err := io.ReadFull(r, buf)
	for err == nil && int64(n) < size {
		buf = append(buf, make([]byte, min(size-int64(n), maxPrealloc))...)
		var m int
		m, err = io.ReadFull(r, buf[n:])
		n += m
	}
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return nil, fmt.Errorf("inflate: stream ends at %d of declared %d bytes", n, size)
	}
	if err != nil {
		return nil, fmt.Errorf("inflate: %w", err)
	}
	// The stream must end exactly here.
	var past [1]byte
	if m, err := io.ReadFull(r, past[:]); m > 0 {
		return nil, fmt.Errorf("inflate: stream runs past declared size %d", size)
	} else if err != io.EOF {
		return nil, fmt.Errorf("inflate: %w", err)
	}
	return buf, nil
}
