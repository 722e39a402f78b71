package objectstore

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rottnest/internal/obs"
	"rottnest/internal/simtime"
)

// LatencyModel describes the request latency of a cloud object store.
// It reproduces the access shape measured in Figure 10a of the paper:
// byte-range GET latency is flat with respect to read size until about
// 1 MB, after which it grows linearly with size at the per-stream
// bandwidth.
type LatencyModel struct {
	// GetTTFB is the fixed time-to-first-byte of a GET request.
	GetTTFB time.Duration
	// PutTTFB is the fixed latency of a PUT request (before transfer).
	PutTTFB time.Duration
	// ListTTFB is the fixed latency of a LIST request page.
	ListTTFB time.Duration
	// FlatUntil is the transfer size absorbed into the TTFB window;
	// reads at or below this size cost only GetTTFB.
	FlatUntil int64
	// BandwidthBps is the sustained per-stream transfer bandwidth in
	// bytes per second, applied to bytes beyond FlatUntil.
	BandwidthBps float64
	// MaxGetRPSPerPrefix caps GET request throughput against a
	// single key prefix, as S3 does at 5500 GET/s. It is enforced by
	// FanGet for wide request fans (Section VII-D3). Zero disables
	// the cap.
	MaxGetRPSPerPrefix float64
	// ListPageSize is the number of entries returned per LIST page;
	// longer listings pay ListTTFB once per page. Zero means one page.
	ListPageSize int
}

// DefaultS3Model returns latency parameters matching the paper's S3
// measurements: ~30 ms TTFB, ~1 MiB flat window, ~90 MB/s per stream,
// 5500 GET RPS per prefix.
func DefaultS3Model() LatencyModel {
	return LatencyModel{
		GetTTFB:            30 * time.Millisecond,
		PutTTFB:            40 * time.Millisecond,
		ListTTFB:           60 * time.Millisecond,
		FlatUntil:          1 << 20,
		BandwidthBps:       90e6,
		MaxGetRPSPerPrefix: 5500,
		ListPageSize:       1000,
	}
}

// GetLatency returns the modelled latency of a single byte-range GET
// of the given size.
func (m LatencyModel) GetLatency(size int64) time.Duration {
	d := m.GetTTFB
	if size > m.FlatUntil && m.BandwidthBps > 0 {
		d += time.Duration(float64(size-m.FlatUntil) / m.BandwidthBps * float64(time.Second))
	}
	return d
}

// PutLatency returns the modelled latency of a PUT of the given size.
func (m LatencyModel) PutLatency(size int64) time.Duration {
	d := m.PutTTFB
	if m.BandwidthBps > 0 {
		d += time.Duration(float64(size) / m.BandwidthBps * float64(time.Second))
	}
	return d
}

// ListLatency returns the modelled latency of listing n entries.
func (m LatencyModel) ListLatency(n int) time.Duration {
	pages := 1
	if m.ListPageSize > 0 && n > m.ListPageSize {
		pages = (n + m.ListPageSize - 1) / m.ListPageSize
	}
	return time.Duration(pages) * m.ListTTFB
}

// QueueDelay returns the modelled delay of pushing a fan of n parallel
// GETs against one prefix through the MaxGetRPSPerPrefix cap, the
// throughput effect of Section VII-D3 of the paper. A single request,
// or a model without a cap, queues for nothing.
func (m LatencyModel) QueueDelay(n int) time.Duration {
	if n <= 1 || m.MaxGetRPSPerPrefix <= 0 {
		return 0
	}
	return time.Duration(float64(n) / m.MaxGetRPSPerPrefix * float64(time.Second))
}

// Metrics accumulates request counts and byte volumes: the totals of
// an Instrumented store, or one operation's tally (WithTally). All
// fields are updated atomically and may be read while in use.
type Metrics struct {
	Gets         atomic.Int64
	Puts         atomic.Int64
	Lists        atomic.Int64
	Deletes      atomic.Int64
	Heads        atomic.Int64
	BytesRead    atomic.Int64
	BytesWritten atomic.Int64
}

// Snapshot is a point-in-time copy of Metrics counters.
type Snapshot struct {
	Gets, Puts, Lists, Deletes, Heads int64
	BytesRead, BytesWritten           int64
}

// Snapshot returns a copy of the current counter values.
func (m *Metrics) Snapshot() Snapshot {
	return Snapshot{
		Gets:         m.Gets.Load(),
		Puts:         m.Puts.Load(),
		Lists:        m.Lists.Load(),
		Deletes:      m.Deletes.Load(),
		Heads:        m.Heads.Load(),
		BytesRead:    m.BytesRead.Load(),
		BytesWritten: m.BytesWritten.Load(),
	}
}

// Sub returns the counter deltas from an earlier snapshot: the
// requests of a window, whoever issued them. One operation's own
// requests are its tally (WithTally).
func (s Snapshot) Sub(earlier Snapshot) Snapshot {
	return Snapshot{
		Gets:         s.Gets - earlier.Gets,
		Puts:         s.Puts - earlier.Puts,
		Lists:        s.Lists - earlier.Lists,
		Deletes:      s.Deletes - earlier.Deletes,
		Heads:        s.Heads - earlier.Heads,
		BytesRead:    s.BytesRead - earlier.BytesRead,
		BytesWritten: s.BytesWritten - earlier.BytesWritten,
	}
}

// Requests returns the total request count in the snapshot.
func (s Snapshot) Requests() int64 {
	return s.Gets + s.Puts + s.Lists + s.Deletes + s.Heads
}

// add counts one request of class op that moved n bytes.
func (m *Metrics) add(op Op, n int64) {
	switch op {
	case OpGet:
		m.Gets.Add(1)
		m.BytesRead.Add(n)
	case OpPut:
		m.Puts.Add(1)
		m.BytesWritten.Add(n)
	case OpList:
		m.Lists.Add(1)
	case OpHead:
		m.Heads.Add(1)
	case OpDelete:
		m.Deletes.Add(1)
	}
}

// obsSnapshot renders the counts under the "store.*" names of a merged
// metrics snapshot.
func (s Snapshot) obsSnapshot() obs.Snapshot {
	return obs.Snapshot{Counters: map[string]int64{
		"store.gets":          s.Gets,
		"store.puts":          s.Puts,
		"store.lists":         s.Lists,
		"store.deletes":       s.Deletes,
		"store.heads":         s.Heads,
		"store.bytes_read":    s.BytesRead,
		"store.bytes_written": s.BytesWritten,
	}}
}

// tallyKey carries the innermost tally open on a context.
type tallyKey struct{}

// tally is one Metrics opened on a context, linked to the tally that
// was open where it was opened.
type tally struct {
	m     *Metrics
	outer *tally
}

// WithTally returns a context under which every request an Instrumented
// store serves is added to m as well as to every tally already open on
// ctx, so a search inside a maintenance job counts on both. An
// operation's tally holds exactly the requests it issued: a read served
// by a cache, or fetched by another operation's flight it joined, lands
// on none of its tallies.
func WithTally(ctx context.Context, m *Metrics) context.Context {
	outer, _ := ctx.Value(tallyKey{}).(*tally)
	return context.WithValue(ctx, tallyKey{}, &tally{m: m, outer: outer})
}

// Instrumented wraps a Store with a latency model and metrics. Request
// latency is charged to the simtime.Session carried in the operation's
// context, so dependent request chains accumulate virtual time while
// parallel fans overlap. Every request also becomes a "store.*" trace
// span when the context carries a trace. Each request is counted once,
// in the store's Metrics, and added to every tally open on its context
// (WithTally).
type Instrumented struct {
	inner   Store
	model   LatencyModel
	metrics *Metrics
}

// Instrument wraps inner with the given latency model. The returned
// Metrics is shared with the wrapper and accumulates across all
// operations.
func Instrument(inner Store, model LatencyModel) (*Instrumented, *Metrics) {
	m := &Metrics{}
	return &Instrumented{inner: inner, model: model, metrics: m}, m
}

// Model returns the latency model in effect.
func (s *Instrumented) Model() LatencyModel { return s.model }

// Metrics returns the wrapper's shared counters.
func (s *Instrumented) Metrics() *Metrics { return s.metrics }

// count adds one request of class op that moved n bytes to the store's
// Metrics and to every tally open on ctx.
func (s *Instrumented) count(ctx context.Context, op Op, n int64) {
	s.metrics.add(op, n)
	for t, _ := ctx.Value(tallyKey{}).(*tally); t != nil; t = t.outer {
		t.m.add(op, n)
	}
}

// Put implements Store.
func (s *Instrumented) Put(ctx context.Context, key string, data []byte) error {
	ctx, span := obs.Start(ctx, "store.put")
	simtime.Charge(ctx, s.model.PutLatency(int64(len(data))))
	s.count(ctx, OpPut, int64(len(data)))
	err := s.inner.Put(ctx, key, data)
	span.SetAttr("key", key)
	span.SetAttr("bytes", len(data))
	span.End()
	return err
}

// PutIfAbsent implements Store.
func (s *Instrumented) PutIfAbsent(ctx context.Context, key string, data []byte) error {
	ctx, span := obs.Start(ctx, "store.put")
	simtime.Charge(ctx, s.model.PutLatency(int64(len(data))))
	s.count(ctx, OpPut, int64(len(data)))
	err := s.inner.PutIfAbsent(ctx, key, data)
	span.SetAttr("key", key)
	span.SetAttr("bytes", len(data))
	span.SetAttr("conditional", true)
	span.End()
	return err
}

// Get implements Store.
func (s *Instrumented) Get(ctx context.Context, key string) ([]byte, error) {
	ctx, span := obs.Start(ctx, "store.get")
	data, err := s.inner.Get(ctx, key)
	simtime.Charge(ctx, s.model.GetLatency(int64(len(data))))
	s.count(ctx, OpGet, int64(len(data)))
	span.SetAttr("key", key)
	span.SetAttr("bytes", len(data))
	span.End()
	return data, err
}

// GetRange implements Store.
func (s *Instrumented) GetRange(ctx context.Context, key string, offset, length int64) ([]byte, error) {
	ctx, span := obs.Start(ctx, "store.get")
	data, err := s.inner.GetRange(ctx, key, offset, length)
	simtime.Charge(ctx, s.model.GetLatency(int64(len(data))))
	s.count(ctx, OpGet, int64(len(data)))
	span.SetAttr("key", key)
	span.SetAttr("bytes", len(data))
	span.End()
	return data, err
}

// Head implements Store.
func (s *Instrumented) Head(ctx context.Context, key string) (ObjectInfo, error) {
	ctx, span := obs.Start(ctx, "store.head")
	simtime.Charge(ctx, s.model.GetTTFB)
	s.count(ctx, OpHead, 0)
	info, err := s.inner.Head(ctx, key)
	span.SetAttr("key", key)
	span.End()
	return info, err
}

// List implements Store.
func (s *Instrumented) List(ctx context.Context, prefix string) ([]ObjectInfo, error) {
	ctx, span := obs.Start(ctx, "store.list")
	infos, err := s.inner.List(ctx, prefix)
	simtime.Charge(ctx, s.model.ListLatency(len(infos)))
	s.count(ctx, OpList, 0)
	span.SetAttr("prefix", prefix)
	span.SetAttr("entries", len(infos))
	span.End()
	return infos, err
}

// Delete implements Store.
func (s *Instrumented) Delete(ctx context.Context, key string) error {
	ctx, span := obs.Start(ctx, "store.delete")
	simtime.Charge(ctx, s.model.PutTTFB)
	s.count(ctx, OpDelete, 0)
	err := s.inner.Delete(ctx, key)
	span.SetAttr("key", key)
	span.End()
	return err
}

// RangeRequest names one byte range of one object for a parallel fan.
type RangeRequest struct {
	Key    string
	Offset int64
	Length int64
}

// FanGet fetches every requested range concurrently and returns the
// results in request order. Virtual time advances by the slowest
// request in the fan plus, when the store is a Stack with a meter, the
// meter model's QueueDelay for the issued requests.
//
// When the store reads through a cache (a CachedStore, or a Stack with
// one), adjacent ranges of the same object at most 128 KiB apart are
// merged into one ranged GET and sliced back afterwards: below the
// latency model's flat window extra bytes are nearly free, while every
// merged request saves a full TTFB and a unit of the per-prefix RPS
// budget. Any other store fans its requests as given.
//
// The first error encountered is returned, with results for the
// remaining requests still populated where available.
func FanGet(ctx context.Context, store Store, reqs []RangeRequest) ([][]byte, error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	gap := int64(-1)
	var model LatencyModel
	switch s := store.(type) {
	case *Stack:
		if s.Cache != nil {
			gap = coalesceGap
		}
		if s.Instrumented != nil {
			model = s.Instrumented.model
		}
	case *CachedStore:
		gap = coalesceGap
	}
	issued, refs := coalesceRanges(reqs, gap)

	session := simtime.From(ctx)
	fetched := make([][]byte, len(issued))
	errs := make([]error, len(issued))

	run := func(i int, branch *simtime.Session) {
		// Once the fan's context dies, remaining branches short-circuit
		// instead of issuing their GETs.
		if err := ctx.Err(); err != nil {
			errs[i] = err
			return
		}
		bctx := ctx
		if branch != nil {
			bctx = simtime.With(ctx, branch)
		}
		fetched[i], errs[i] = store.GetRange(bctx, issued[i].Key, issued[i].Offset, issued[i].Length)
	}

	if session != nil {
		session.ParallelN(len(issued), len(issued), run)
		session.Add(model.QueueDelay(len(issued)))
	} else {
		var wg sync.WaitGroup
		for i := range issued {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				run(i, nil)
			}(i)
		}
		wg.Wait()
	}
	results := make([][]byte, len(reqs))
	var firstErr error
	for i, ref := range refs {
		if errs[ref.issued] != nil {
			if firstErr == nil {
				firstErr = errs[ref.issued]
			}
			continue
		}
		data := fetched[ref.issued]
		if ref.direct {
			results[i] = data
			continue
		}
		// Slice the original request back out of the merged read,
		// clamping at the object end the way the individual GetRange
		// would have.
		if ref.off >= int64(len(data)) {
			results[i] = nil
			continue
		}
		end := ref.off + ref.length
		if end > int64(len(data)) {
			end = int64(len(data))
		}
		results[i] = data[ref.off:end]
	}
	return results, firstErr
}

// sliceRef maps one original fan request onto the issued request that
// carries its bytes.
type sliceRef struct {
	issued int
	// direct passes the issued result through unsliced (the request
	// was not merged).
	direct bool
	// off/length locate the original range within the merged read.
	off, length int64
}

// coalesceRanges merges same-key requests whose byte gap is at most
// gap into single ranged GETs. Requests with suffix or to-end ranges
// (negative offset or length) are never merged. A negative gap
// disables merging entirely. Overlapping and duplicate ranges also
// collapse into one request.
func coalesceRanges(reqs []RangeRequest, gap int64) ([]RangeRequest, []sliceRef) {
	refs := make([]sliceRef, len(reqs))
	if gap < 0 {
		out := make([]RangeRequest, len(reqs))
		copy(out, reqs)
		for i := range refs {
			refs[i] = sliceRef{issued: i, direct: true}
		}
		return out, refs
	}
	// Indices of mergeable requests per key, insertion-ordered keys.
	byKey := make(map[string][]int)
	var keys []string
	var issued []RangeRequest
	for i, r := range reqs {
		if r.Offset < 0 || r.Length < 0 {
			refs[i] = sliceRef{issued: len(issued), direct: true}
			issued = append(issued, r)
			continue
		}
		if _, ok := byKey[r.Key]; !ok {
			keys = append(keys, r.Key)
		}
		byKey[r.Key] = append(byKey[r.Key], i)
	}
	for _, key := range keys {
		idxs := byKey[key]
		sort.Slice(idxs, func(a, b int) bool {
			ra, rb := reqs[idxs[a]], reqs[idxs[b]]
			if ra.Offset != rb.Offset {
				return ra.Offset < rb.Offset
			}
			return ra.Length < rb.Length
		})
		for run := 0; run < len(idxs); {
			start := reqs[idxs[run]].Offset
			end := start + reqs[idxs[run]].Length
			next := run + 1
			for next < len(idxs) && reqs[idxs[next]].Offset <= end+gap {
				if e := reqs[idxs[next]].Offset + reqs[idxs[next]].Length; e > end {
					end = e
				}
				next++
			}
			mi := len(issued)
			issued = append(issued, RangeRequest{Key: key, Offset: start, Length: end - start})
			for _, i := range idxs[run:next] {
				refs[i] = sliceRef{issued: mi, off: reqs[i].Offset - start, length: reqs[i].Length}
			}
			run = next
		}
	}
	return issued, refs
}
