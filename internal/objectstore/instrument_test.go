package objectstore

import (
	"context"
	"errors"
	"testing"
	"time"

	"rottnest/internal/simtime"
)

func testModel() LatencyModel {
	return LatencyModel{
		GetTTFB:            30 * time.Millisecond,
		PutTTFB:            40 * time.Millisecond,
		ListTTFB:           60 * time.Millisecond,
		FlatUntil:          1 << 20,
		BandwidthBps:       100e6,
		MaxGetRPSPerPrefix: 5500,
		ListPageSize:       1000,
	}
}

func TestLatencyModelShape(t *testing.T) {
	m := testModel()
	// Flat regime: any size <= 1 MiB costs exactly TTFB (Fig 10a).
	for _, size := range []int64{0, 1024, 300 << 10, 1 << 20} {
		if got := m.GetLatency(size); got != m.GetTTFB {
			t.Fatalf("GetLatency(%d) = %v, want flat %v", size, got, m.GetTTFB)
		}
	}
	// Linear regime: 101 MiB read ≈ TTFB + 100MiB/bandwidth.
	size := int64(101 << 20)
	want := m.GetTTFB + time.Duration(float64(size-1<<20)/m.BandwidthBps*float64(time.Second))
	if got := m.GetLatency(size); got != want {
		t.Fatalf("GetLatency(%d) = %v, want %v", size, got, want)
	}
	// Monotonic in the linear regime.
	if m.GetLatency(10<<20) >= m.GetLatency(100<<20) {
		t.Fatal("latency must grow with size beyond the flat window")
	}
}

func TestListLatencyPaging(t *testing.T) {
	m := testModel()
	if got := m.ListLatency(10); got != m.ListTTFB {
		t.Fatalf("ListLatency(10) = %v", got)
	}
	if got := m.ListLatency(2500); got != 3*m.ListTTFB {
		t.Fatalf("ListLatency(2500) = %v, want 3 pages", got)
	}
}

func TestInstrumentedChargesSession(t *testing.T) {
	inner := NewMemStore(nil)
	s, metrics := Instrument(inner, testModel())
	sess := simtime.NewSession()
	ctx := simtime.With(context.Background(), sess)

	payload := make([]byte, 2<<20)
	if err := s.Put(ctx, "k", payload); err != nil {
		t.Fatal(err)
	}
	putCost := testModel().PutLatency(int64(len(payload)))
	if got := sess.Elapsed(); got != putCost {
		t.Fatalf("after Put: elapsed %v, want %v", got, putCost)
	}

	if _, err := s.GetRange(ctx, "k", 0, 1000); err != nil {
		t.Fatal(err)
	}
	want := putCost + testModel().GetTTFB
	if got := sess.Elapsed(); got != want {
		t.Fatalf("after small GetRange: elapsed %v, want %v", got, want)
	}

	snap := metrics.Snapshot()
	if snap.Puts != 1 || snap.Gets != 1 {
		t.Fatalf("metrics %+v", snap)
	}
	if snap.BytesWritten != int64(len(payload)) || snap.BytesRead != 1000 {
		t.Fatalf("byte metrics %+v", snap)
	}
}

func TestInstrumentedNoSessionStillWorks(t *testing.T) {
	s, metrics := Instrument(NewMemStore(nil), testModel())
	ctx := context.Background()
	if err := s.Put(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(ctx, "k")
	if err != nil || string(got) != "v" {
		t.Fatalf("Get = %q, %v", got, err)
	}
	if metrics.Snapshot().Requests() != 2 {
		t.Fatalf("requests = %d", metrics.Snapshot().Requests())
	}
}

func TestSnapshotSub(t *testing.T) {
	s, metrics := Instrument(NewMemStore(nil), testModel())
	ctx := context.Background()
	s.Put(ctx, "a", []byte("1"))
	before := metrics.Snapshot()
	s.Get(ctx, "a")
	s.Get(ctx, "a")
	delta := metrics.Snapshot().Sub(before)
	if delta.Gets != 2 || delta.Puts != 0 || delta.Requests() != 2 {
		t.Fatalf("delta = %+v", delta)
	}
}

// TestWithTallyNests pins the per-operation tally: a request lands once
// on the store's totals and once on every tally open on its context,
// tallies opened under another count on both, requests outside a tally
// land on none, and a cache hit lands nowhere.
func TestWithTallyNests(t *testing.T) {
	inst, total := Instrument(NewMemStore(nil), testModel())
	cached := NewCachedStore(inst, CacheOptions{})
	var outer, inner, other Metrics
	octx := WithTally(context.Background(), &outer)
	ictx := WithTally(octx, &inner)
	if err := cached.Put(octx, "a", []byte("abcdef")); err != nil {
		t.Fatal(err)
	}
	if _, err := cached.GetRange(ictx, "a", 0, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := cached.GetRange(ictx, "a", 0, 4); err != nil { // hit
		t.Fatal(err)
	}
	if _, err := inst.List(WithTally(context.Background(), &other), ""); err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Head(context.Background(), "a"); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		got  Snapshot
		want Snapshot
	}{
		{"inner", inner.Snapshot(), Snapshot{Gets: 1, BytesRead: 4}},
		{"outer", outer.Snapshot(), Snapshot{Gets: 1, BytesRead: 4, Puts: 1, BytesWritten: 6}},
		{"other", other.Snapshot(), Snapshot{Lists: 1}},
		{"total", total.Snapshot(), Snapshot{Gets: 1, BytesRead: 4, Puts: 1, BytesWritten: 6, Lists: 1, Heads: 1}},
	} {
		if c.got != c.want {
			t.Fatalf("%s tally = %+v, want %+v", c.name, c.got, c.want)
		}
	}
}

func TestFanGetParallelLatency(t *testing.T) {
	model := testModel()
	s := NewStack(NewMemStore(nil), StackOptions{Latency: &model, CacheBytes: -1})
	ctx := context.Background()
	for _, k := range []string{"a", "b", "c"} {
		if err := s.Put(ctx, k, make([]byte, 1000)); err != nil {
			t.Fatal(err)
		}
	}
	sess := simtime.NewSession()
	sctx := simtime.With(ctx, sess)
	reqs := []RangeRequest{
		{Key: "a", Offset: 0, Length: 100},
		{Key: "b", Offset: 0, Length: 100},
		{Key: "c", Offset: 0, Length: 100},
	}
	results, err := FanGet(sctx, s, reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if len(r) != 100 {
			t.Fatalf("result %d has %d bytes", i, len(r))
		}
	}
	// 3 parallel small GETs: one TTFB plus the tiny RPS queue charge,
	// far less than 3 sequential TTFBs.
	queueSecs := 3.0 / 5500.0
	queue := time.Duration(queueSecs * float64(time.Second))
	want := testModel().GetTTFB + queue
	if got := sess.Elapsed(); got != want {
		t.Fatalf("fan latency %v, want %v", got, want)
	}
}

func TestFanGetThrottleQueueing(t *testing.T) {
	model := testModel()
	s := NewStack(NewMemStore(nil), StackOptions{Latency: &model, CacheBytes: -1})
	ctx := context.Background()
	if err := s.Put(ctx, "k", make([]byte, 10000)); err != nil {
		t.Fatal(err)
	}
	const n = 11000 // 2 seconds worth of queue at 5500 RPS
	reqs := make([]RangeRequest, n)
	for i := range reqs {
		reqs[i] = RangeRequest{Key: "k", Offset: 0, Length: 10}
	}
	sess := simtime.NewSession()
	if _, err := FanGet(simtime.With(ctx, sess), s, reqs); err != nil {
		t.Fatal(err)
	}
	elapsed := sess.Elapsed()
	if elapsed < 2*time.Second {
		t.Fatalf("throttled fan of %d requests took only %v", n, elapsed)
	}
}

func TestFanGetErrorPropagates(t *testing.T) {
	s, _ := Instrument(NewMemStore(nil), testModel())
	ctx := context.Background()
	s.Put(ctx, "exists", []byte("x"))
	_, err := FanGet(ctx, s, []RangeRequest{
		{Key: "exists", Offset: 0, Length: 1},
		{Key: "missing", Offset: 0, Length: 1},
	})
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestFanGetEmpty(t *testing.T) {
	s, _ := Instrument(NewMemStore(nil), testModel())
	res, err := FanGet(context.Background(), s, nil)
	if err != nil || res != nil {
		t.Fatalf("FanGet(nil) = %v, %v", res, err)
	}
}

func TestFaultStoreInjection(t *testing.T) {
	inner := NewMemStore(nil)
	fs := NewFaultStore(inner, FailNth(OpPut, 2))
	ctx := context.Background()
	if err := fs.Put(ctx, "a", []byte("1")); err != nil {
		t.Fatalf("first put should succeed: %v", err)
	}
	if err := fs.Put(ctx, "b", []byte("2")); !errors.Is(err, ErrInjected) {
		t.Fatalf("second put err = %v, want ErrInjected", err)
	}
	if err := fs.Put(ctx, "c", []byte("3")); err != nil {
		t.Fatalf("third put should succeed: %v", err)
	}
	// The failed put must not have landed.
	if _, err := inner.Get(ctx, "b"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("failed put landed anyway: %v", err)
	}
}

func TestFaultStoreNilPredicate(t *testing.T) {
	fs := NewFaultStore(NewMemStore(nil), nil)
	ctx := context.Background()
	if err := fs.Put(ctx, "a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Get(ctx, "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.List(ctx, ""); err != nil {
		t.Fatal(err)
	}
	if err := fs.Delete(ctx, "a"); err != nil {
		t.Fatal(err)
	}
}
