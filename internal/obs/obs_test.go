package obs

import (
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"rottnest/internal/simtime"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("store.gets")
	c.Inc()
	c.Add(4)
	c.Add(-7) // ignored: counters are monotonic
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("store.gets") != c {
		t.Fatal("second lookup returned a different counter")
	}
	g := r.Gauge("cache.bytes")
	g.Set(100)
	g.Add(-30)
	if got := g.Value(); got != 70 {
		t.Fatalf("gauge = %d, want 70", got)
	}
	// nil receivers must be inert, not panic.
	var nc *Counter
	nc.Inc()
	var ng *Gauge
	ng.Set(1)
	var nh *Histogram
	nh.Observe(1)
	var nr *Registry
	nr.Counter("x").Inc()
	if nr.Snapshot().Counter("x") != 0 {
		t.Fatal("nil registry snapshot not empty")
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := &Histogram{}
	for _, v := range []int64{0, 1, 1, 3, 1000} {
		h.Observe(v)
	}
	s := h.snapshot()
	if s.Count != 5 || s.Sum != 1005 || s.Min != 0 || s.Max != 1000 {
		t.Fatalf("snapshot = %+v", s)
	}
	// 0 → bucket bound 1; 1,1 → bound 2 (bit length 1... wait 1 has
	// bit length 1 → bucket 1 → bound 2); 3 → bound 4; 1000 → bound 1024.
	if s.Buckets[1] != 1 || s.Buckets[2] != 2 || s.Buckets[4] != 1 || s.Buckets[1024] != 1 {
		t.Fatalf("buckets = %v", s.Buckets)
	}
	if got := s.Mean(); got != 201 {
		t.Fatalf("mean = %v, want 201", got)
	}
}

func TestQuantileNearestRank(t *testing.T) {
	sample := []time.Duration{50, 10, 40, 20, 30}
	for _, c := range []struct {
		p    float64
		want time.Duration
	}{{0, 10}, {0.25, 20}, {0.5, 30}, {0.74, 30}, {0.75, 40}, {0.99, 40}, {1, 50}} {
		if got := Quantile(sample, c.p); got != c.want {
			t.Errorf("Quantile(p=%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if sample[0] != 50 {
		t.Fatal("Quantile sorted its argument")
	}
	if got := Quantile([]int64(nil), 0.5); got != 0 {
		t.Fatalf("empty sample: %d, want 0", got)
	}
}

func TestSnapshotSubAndMerge(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Add(10)
	r.Gauge("g").Set(5)
	r.Histogram("h").Observe(8)
	before := r.Snapshot()
	r.Counter("a").Add(7)
	r.Gauge("g").Set(9)
	r.Histogram("h").Observe(8)
	delta := r.Snapshot().Sub(before)
	if delta.Counter("a") != 7 {
		t.Fatalf("counter delta = %d, want 7", delta.Counter("a"))
	}
	if delta.Gauge("g") != 9 {
		t.Fatalf("gauge after sub = %d, want 9 (latest value)", delta.Gauge("g"))
	}
	if h := delta.Histograms["h"]; h.Count != 1 || h.Sum != 8 {
		t.Fatalf("histogram delta = %+v", h)
	}

	other := NewRegistry()
	other.Counter("b").Add(3)
	merged := Merge(r.Snapshot(), other.Snapshot())
	if merged.Counter("a") != 17 || merged.Counter("b") != 3 {
		t.Fatalf("merged counters = %v", merged.Counters)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("store.gets").Add(12)
	r.Gauge("cache.bytes").Set(64)
	r.Histogram("search.latency_ns").Observe(100)
	var sb strings.Builder
	if err := r.Snapshot().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE store_gets_total counter",
		"store_gets_total 12",
		"# TYPE cache_bytes gauge",
		"cache_bytes 64",
		"# TYPE search_latency_ns histogram",
		"search_latency_ns_bucket{le=\"128\"} 1",
		"search_latency_ns_bucket{le=\"+Inf\"} 1",
		"search_latency_ns_sum 100",
		"search_latency_ns_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus dump missing %q:\n%s", want, out)
		}
	}
}

// TestRegistryConcurrent exercises get-or-create and updates from many
// goroutines; run under -race via make check.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("shared").Inc()
				r.Gauge("g").Add(1)
				r.Histogram("h").Observe(int64(j))
			}
		}()
	}
	wg.Wait()
	s := r.Snapshot()
	if s.Counter("shared") != 8000 {
		t.Fatalf("shared counter = %d, want 8000", s.Counter("shared"))
	}
	if s.Histograms["h"].Count != 8000 {
		t.Fatalf("histogram count = %d, want 8000", s.Histograms["h"].Count)
	}
}

func TestStartWithoutTraceIsNil(t *testing.T) {
	ctx := context.Background()
	ctx2, span := Start(ctx, "anything")
	if span != nil {
		t.Fatal("Start without a trace returned a live span")
	}
	if ctx2 != ctx {
		t.Fatal("Start without a trace derived a new context")
	}
	// All methods on the nil span must be inert.
	span.SetAttr("k", "v")
	span.End()
	if span.Tree() != nil {
		t.Fatal("nil span has a tree")
	}
}

// TestSpanVirtualDurations proves span virtual time is driven by the
// session in the span's context: phases that Charge the session get
// exactly that much virtual time, and sibling phases sum to the
// session's total elapsed.
func TestSpanVirtualDurations(t *testing.T) {
	sess := simtime.NewSession()
	ctx := simtime.With(context.Background(), sess)
	ctx, root := WithTrace(ctx, "op")

	pctx, plan := Start(ctx, "op.plan")
	simtime.Charge(pctx, 30*time.Millisecond)
	plan.End()

	rctx, read := Start(ctx, "op.read")
	simtime.Charge(rctx, 70*time.Millisecond)
	read.SetAttr("bytes", 1024)
	read.End()

	root.End()
	tree := root.Tree()
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := tree.Find("op.plan").Virtual; got != 30*time.Millisecond {
		t.Fatalf("plan virtual = %v, want 30ms", got)
	}
	if got := tree.Find("op.read").Virtual; got != 70*time.Millisecond {
		t.Fatalf("read virtual = %v, want 70ms", got)
	}
	if tree.Virtual != sess.Elapsed() || tree.Virtual != 100*time.Millisecond {
		t.Fatalf("root virtual = %v, session = %v, want 100ms", tree.Virtual, sess.Elapsed())
	}
	if sum := tree.Children[0].Virtual + tree.Children[1].Virtual; sum != tree.Virtual {
		t.Fatalf("phase sum %v != root %v", sum, tree.Virtual)
	}
	if got := tree.Find("op.read").Attrs["bytes"]; got != 1024 {
		t.Fatalf("attr bytes = %v", got)
	}
}

// TestSpanParallelBranches mirrors the protocol's fan-out: children
// opened on parallel branch sessions measure their own branch's
// virtual time, while the parent measures the merged maximum.
func TestSpanParallelBranches(t *testing.T) {
	sess := simtime.NewSession()
	ctx := simtime.With(context.Background(), sess)
	ctx, root := WithTrace(ctx, "fan")

	durations := []time.Duration{10 * time.Millisecond, 40 * time.Millisecond}
	_ = simtime.Fan(ctx, len(durations), 0, func(bctx context.Context, i int) error {
		bctx, span := Start(bctx, "fan.branch")
		simtime.Charge(bctx, durations[i])
		span.End()
		return nil
	})

	root.End()
	tree := root.Tree()
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(tree.Children) != 2 {
		t.Fatalf("children = %d, want 2", len(tree.Children))
	}
	seen := map[time.Duration]bool{}
	for _, c := range tree.Children {
		seen[c.Virtual] = true
	}
	if !seen[10*time.Millisecond] || !seen[40*time.Millisecond] {
		t.Fatalf("branch virtuals = %v", tree.Children)
	}
	if tree.Virtual != 40*time.Millisecond {
		t.Fatalf("root virtual = %v, want 40ms (parallel max)", tree.Virtual)
	}
}

func TestEndIdempotentAndValidate(t *testing.T) {
	sess := simtime.NewSession()
	ctx := simtime.With(context.Background(), sess)
	ctx, root := WithTrace(ctx, "op")
	_, child := Start(ctx, "op.phase")
	child.End()
	simtime.Charge(ctx, time.Second) // after End: must not leak into the span
	child.End()
	root.End()
	tree := root.Tree()
	if got := tree.Children[0].Virtual; got != 0 {
		t.Fatalf("re-End extended the span: virtual = %v", got)
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}

	// An unfinished child must fail validation.
	_, root2 := WithTrace(context.Background(), "op2")
	Start(context.WithValue(context.Background(), ctxKey{}, root2), "dangling")
	root2.End()
	if err := root2.Tree().Validate(); err == nil {
		t.Fatal("Validate accepted an unfinished child")
	}
}

func TestRenderTextAndJSON(t *testing.T) {
	sess := simtime.NewSession()
	ctx := simtime.With(context.Background(), sess)
	ctx, root := WithTrace(ctx, "search")
	pctx, plan := Start(ctx, "search.plan")
	simtime.Charge(pctx, 30*time.Millisecond)
	plan.SetAttr("files", 3)
	plan.End()
	root.End()

	var sb strings.Builder
	if err := RenderText(&sb, root.Tree()); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "search.plan") || !strings.Contains(out, "files=3") || !strings.Contains(out, "virtual=30ms") {
		t.Fatalf("render output:\n%s", out)
	}

	data, err := root.Tree().MarshalJSONIndent()
	if err != nil {
		t.Fatal(err)
	}
	var back Node
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Name != "search" || len(back.Children) != 1 || back.Children[0].Virtual != 30*time.Millisecond {
		t.Fatalf("roundtrip = %+v", back)
	}
}
