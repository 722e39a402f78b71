package main

import (
	"context"
	"errors"
	"sync/atomic"
	"time"

	"rottnest/internal/objectstore"
)

// opKind indexes the per-request-type counters of a delayStore.
type opKind int

const (
	opGet opKind = iota
	opPut
	opList
	opHead
	opDelete
	nOpKinds
)

var opNames = [nOpKinds]string{"get", "put", "list", "head", "delete"}

// count adds one request to a set of counters. The counters are the
// program's own objectstore.Metrics, which the benchmark only uses as a
// struct of atomics: one set per delayStore for the totals, and one per
// operation (or stream of operations), found in the request's context,
// so a count belongs to the operation that issued the request even when
// others run beside it.
func count(m *objectstore.Metrics, kind opKind, size int64) {
	switch kind {
	case opGet:
		m.Gets.Add(1)
		m.BytesRead.Add(size)
	case opPut:
		m.Puts.Add(1)
		m.BytesWritten.Add(size)
	case opList:
		m.Lists.Add(1)
	case opHead:
		m.Heads.Add(1)
	case opDelete:
		m.Deletes.Add(1)
	}
}

// delayStore is the bottom of every stack the benchmark builds: it
// forwards to a real store and then really sleeps what the latency
// model says the request costs on S3. It is the one place requests and
// bytes are counted, and in a traced run every request is a span.
type delayStore struct {
	inner objectstore.Store
	model objectstore.LatencyModel
	// scale multiplies every modelled latency; the smoke test shrinks
	// it so toy runs stay short.
	scale float64
	// sleeping is off while set-up loads data and on for everything
	// measured.
	sleeping atomic.Bool
	total    objectstore.Metrics
	errs     atomic.Int64
}

func newDelayStore(inner objectstore.Store, scale float64) *delayStore {
	return &delayStore{inner: inner, model: objectstore.DefaultS3Model(), scale: scale}
}

func (s *delayStore) setSleeping(on bool) { s.sleeping.Store(on) }

func (s *delayStore) counts() objectstore.Snapshot { return s.total.Snapshot() }

// latency is the modelled cost of one request: GET and HEAD pay the
// time to first byte plus transfer beyond the flat window, PUT and
// DELETE the put latency plus transfer, LIST one page latency per
// thousand keys.
func (s *delayStore) latency(kind opKind, size int64, listed int) time.Duration {
	var d time.Duration
	switch kind {
	case opGet, opHead:
		d = s.model.GetLatency(size)
	case opPut, opDelete:
		d = s.model.PutLatency(size)
	case opList:
		d = s.model.ListLatency(listed)
	}
	return time.Duration(float64(d) * s.scale)
}

// do runs one request against the inner store, sleeps its modelled
// latency, and accounts for it. call returns the payload size and, for
// LIST, the number of keys.
func (s *delayStore) do(ctx context.Context, kind opKind, call func() (size int64, listed int, err error)) error {
	sc := scopeFrom(ctx)
	var start time.Time
	if sc != nil && sc.rec != nil {
		start = time.Now()
	}
	size, listed, err := call()
	if s.sleeping.Load() {
		time.Sleep(s.latency(kind, size, listed))
	}
	count(&s.total, kind, size)
	// Not-found and already-exists are answers the protocol asks for
	// (log probing, conditional commits), not failures.
	if err != nil && !errors.Is(err, objectstore.ErrNotFound) && !errors.Is(err, objectstore.ErrExists) {
		s.errs.Add(1)
	}
	if sc != nil {
		if sc.tally != nil {
			count(sc.tally, kind, size)
		}
		if sc.rec != nil {
			sc.rec.add(span{Parent: sc.parent, Op: sc.op, Name: "store." + opNames[kind], Bytes: size},
				start, time.Now())
		}
	}
	return err
}

func (s *delayStore) Put(ctx context.Context, key string, data []byte) error {
	return s.do(ctx, opPut, func() (int64, int, error) {
		return int64(len(data)), 0, s.inner.Put(ctx, key, data)
	})
}

func (s *delayStore) PutIfAbsent(ctx context.Context, key string, data []byte) error {
	return s.do(ctx, opPut, func() (int64, int, error) {
		return int64(len(data)), 0, s.inner.PutIfAbsent(ctx, key, data)
	})
}

func (s *delayStore) Get(ctx context.Context, key string) (data []byte, err error) {
	err = s.do(ctx, opGet, func() (int64, int, error) {
		data, err = s.inner.Get(ctx, key)
		return int64(len(data)), 0, err
	})
	return data, err
}

func (s *delayStore) GetRange(ctx context.Context, key string, offset, length int64) (data []byte, err error) {
	err = s.do(ctx, opGet, func() (int64, int, error) {
		data, err = s.inner.GetRange(ctx, key, offset, length)
		return int64(len(data)), 0, err
	})
	return data, err
}

func (s *delayStore) Head(ctx context.Context, key string) (info objectstore.ObjectInfo, err error) {
	err = s.do(ctx, opHead, func() (int64, int, error) {
		info, err = s.inner.Head(ctx, key)
		return 0, 0, err
	})
	return info, err
}

func (s *delayStore) List(ctx context.Context, prefix string) (infos []objectstore.ObjectInfo, err error) {
	err = s.do(ctx, opList, func() (int64, int, error) {
		infos, err = s.inner.List(ctx, prefix)
		return 0, len(infos), err
	})
	return infos, err
}

func (s *delayStore) Delete(ctx context.Context, key string) error {
	return s.do(ctx, opDelete, func() (int64, int, error) {
		return 0, 0, s.inner.Delete(ctx, key)
	})
}
