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
	if err := CompressTo(&buf, data); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// CompressTo appends data's DEFLATE stream to buf, growing it at most
// once when the stream is no longer than half the input plus 1 KiB
// (text and packed integers are; a longer stream grows it again).
func CompressTo(buf *bytes.Buffer, data []byte) error {
	buf.Grow(len(data)/2 + 1<<10)
	w := writers.Get().(*flate.Writer)
	defer writers.Put(w)
	w.Reset(buf)
	if _, err := w.Write(data); err != nil {
		return fmt.Errorf("deflate: %w", err)
	}
	if err := w.Close(); err != nil {
		return fmt.Errorf("deflate: %w", err)
	}
	return nil
}

// Decompress inflates a stream that its container declares to be size
// bytes long, into a buffer of exactly that length. The declared size
// comes from a file and is not trusted: a stream that ends before it,
// runs past it (a bomb), or fails where it should end is an error, and
// no more than maxPrealloc bytes, or than the stream could produce, are
// allocated ahead of it actually producing them.
func Decompress(data []byte, size int64) ([]byte, error) {
	// No DEFLATE stream inflates past 1032 times its length (258 bytes
	// from two bits), so a larger claim is refused before it allocates.
	if size < 0 || size/1032 > int64(len(data)) {
		return nil, fmt.Errorf("inflate: declared size %d for a stream of %d bytes", size, len(data))
	}
	return inflate(data, size, make([]byte, min(size, maxPrealloc)))
}

// DecompressInto is Decompress into the caller's buffer: the stream
// must inflate to exactly len(dst) bytes.
func DecompressInto(dst, data []byte) error {
	_, err := inflate(data, int64(len(dst)), dst)
	return err
}

// inflate reads a stream of size bytes into buf, which holds its first
// min(size, maxPrealloc) bytes and is grown for the rest.
func inflate(data []byte, size int64, buf []byte) ([]byte, error) {
	r := readers.Get().(io.ReadCloser)
	defer readers.Put(r)
	if err := r.(flate.Resetter).Reset(bytes.NewReader(data), nil); err != nil {
		return nil, fmt.Errorf("inflate: %w", err)
	}
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
