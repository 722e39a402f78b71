// Package objectstore provides the cloud object storage substrate that
// Rottnest runs on: a key/value blob store with strong read-after-write
// consistency, byte-range reads, prefix listing, and conditional
// creation (put-if-absent), matching the primitives available on all
// major cloud object stores (Section II-A and IV of the paper).
//
// Two backends are provided: MemStore, an in-memory store for tests and
// simulations, and DirStore, a directory-backed store for the CLI and
// examples. The Instrumented wrapper layers a latency model, request
// throttling, and request/byte/cost metering on top of any Store so
// that simulated experiments reproduce the access-latency shape of S3
// (Figure 10a of the paper).
package objectstore

import (
	"context"
	"errors"
	"time"

	"rottnest/internal/simtime"
)

// Errors returned by Store implementations.
var (
	// ErrNotFound reports that the requested key does not exist.
	ErrNotFound = errors.New("objectstore: key not found")
	// ErrExists reports that a conditional create found the key
	// already present.
	ErrExists = errors.New("objectstore: key already exists")
	// ErrInvalidRange reports a byte range outside the object.
	ErrInvalidRange = errors.New("objectstore: invalid byte range")
)

// ObjectInfo describes one stored object.
type ObjectInfo struct {
	// Key is the full object key.
	Key string
	// Size is the object length in bytes.
	Size int64
	// Created is the object creation time according to the store's
	// global clock. Rottnest's vacuum protocol compares it against
	// the index timeout to detect abandoned uploads.
	Created time.Time
}

// Store is a strongly consistent object store. All operations provide
// read-after-write consistency: a Get or List issued after a Put
// returns observes that Put. Implementations must be safe for
// concurrent use.
//
// No atomic rename is offered, mirroring the paper's portability
// constraint: Rottnest's protocol must work with only these
// primitives.
type Store interface {
	// Put stores data under key, overwriting any existing object.
	Put(ctx context.Context, key string, data []byte) error

	// PutIfAbsent stores data under key only if the key does not
	// exist, returning ErrExists otherwise. This is the conditional
	// write primitive used for optimistic-concurrency log commits.
	PutIfAbsent(ctx context.Context, key string, data []byte) error

	// Get returns the full contents of the object at key.
	Get(ctx context.Context, key string) ([]byte, error)

	// GetRange returns length bytes starting at offset. A negative
	// length means "to the end of the object". A negative offset
	// means a suffix range of -offset bytes (like an HTTP suffix
	// range request), in which case length is ignored.
	GetRange(ctx context.Context, key string, offset, length int64) ([]byte, error)

	// Head returns metadata for the object at key without reading
	// its contents.
	Head(ctx context.Context, key string) (ObjectInfo, error)

	// List returns metadata for every object whose key has the given
	// prefix, in lexicographic key order.
	List(ctx context.Context, prefix string) ([]ObjectInfo, error)

	// Delete removes the object at key. Deleting a missing key is
	// not an error, matching S3 semantics.
	Delete(ctx context.Context, key string) error
}

// ClockOf returns the clock that stamps s's object creation times: the
// world clock, which vacuum compares those stamps against (Section
// IV-C's single global clock). A MemStore has its own, every wrapper
// in this package reports its inner store's, and any other store
// (DirStore, a real bucket) is on the real clock. A wrapper defined
// elsewhere must forward Clock too, or the world above it silently
// falls back to real time.
func ClockOf(s Store) simtime.Clock {
	if c, ok := s.(interface{ Clock() simtime.Clock }); ok {
		return c.Clock()
	}
	return simtime.RealClock{}
}

// resolveRange converts a (possibly negative) offset/length pair into a
// concrete [start, end) window within an object of the given size.
func resolveRange(size, offset, length int64) (start, end int64, err error) {
	switch {
	case offset < 0: // suffix range of -offset bytes
		start = size + offset
		if start < 0 {
			start = 0
		}
		end = size
	case length < 0:
		start, end = offset, size
	default:
		start, end = offset, offset+length
	}
	if start > size || start < 0 {
		return 0, 0, ErrInvalidRange
	}
	if end > size {
		end = size
	}
	if end < start {
		return 0, 0, ErrInvalidRange
	}
	return start, end, nil
}
