package core

import (
	"context"
	"testing"
	"time"

	"rottnest/internal/component"
	"rottnest/internal/simtime"
	"rottnest/internal/workload"
)

// TestTraceGoldenTree pins the span taxonomy for the canonical
// indexed search: the root's children are exactly the protocol
// phases, in protocol order, and each phase contains the work it is
// responsible for (the index file's open under plan, in the log fan;
// index probes under probe, in-situ page reads under read; store
// requests below the open and the reads).
func TestTraceGoldenTree(t *testing.T) {
	ctx := context.Background()
	e := newEnv(t, uuidSchema, Config{})
	gen := workload.NewUUIDGen(1)
	keys, _ := e.appendUUIDs(t, gen, 300)
	if _, err := e.cli.Index(ctx, "id", component.KindTrie); err != nil {
		t.Fatal(err)
	}

	res, tree, err := e.cli.Trace(ctx, uuidQuery(keys[42]))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 1 {
		t.Fatalf("matches = %d, want 1", len(res.Matches))
	}
	if err := tree.Validate(); err != nil {
		t.Fatalf("malformed tree: %v", err)
	}
	if tree.Name != "search" {
		t.Fatalf("root = %q, want \"search\"", tree.Name)
	}

	// Exact phase ordering: every snapshot file is covered by the
	// index, so there is no search.scan phase.
	var phases []string
	for _, ch := range tree.Children {
		phases = append(phases, ch.Name)
	}
	want := []string{"search.plan", "search.probe", "search.read"}
	if len(phases) != len(want) {
		t.Fatalf("phases = %v, want %v", phases, want)
	}
	for i := range want {
		if phases[i] != want[i] {
			t.Fatalf("phases = %v, want %v", phases, want)
		}
	}

	probe := tree.Children[1]
	if probe.Find("index.probe") == nil {
		t.Fatal("no index.probe span under search.probe")
	}
	if probe.Find("insitu.probe") != nil {
		t.Fatal("insitu.probe leaked into the probe phase")
	}
	read := tree.Children[2]
	if read.Find("insitu.probe") == nil {
		t.Fatal("no insitu.probe span under search.read")
	}
	// The plan opens the index file beside the log records; the small
	// trie is read whole there, so its probe reads nothing more.
	open := tree.Children[0].Find("index.open")
	if open == nil || open.Find("store.get") == nil || read.Find("store.get") == nil {
		t.Fatal("the index open and the read phase did not record store.get spans")
	}
	// The plan phase lists the logs.
	if tree.Children[0].Find("store.list") == nil {
		t.Fatal("plan phase recorded no LIST")
	}
}

// TestTraceScanPhase checks that searching with unindexed files adds
// the search.scan phase with insitu.scan spans beneath it.
func TestTraceScanPhase(t *testing.T) {
	ctx := context.Background()
	e := newEnv(t, uuidSchema, Config{})
	gen := workload.NewUUIDGen(2)
	keys, _ := e.appendUUIDs(t, gen, 100)
	if _, err := e.cli.Index(ctx, "id", component.KindTrie); err != nil {
		t.Fatal(err)
	}
	// A second, never-indexed batch forces the scan fallback.
	e.appendUUIDs(t, gen, 100)

	_, tree, err := e.cli.Trace(ctx, uuidQuery(keys[7]))
	if err != nil {
		t.Fatal(err)
	}
	scan := tree.Find("search.scan")
	if scan == nil {
		t.Fatal("no search.scan phase despite unindexed files")
	}
	if scan.Find("insitu.scan") == nil {
		t.Fatal("no insitu.scan span under search.scan")
	}
}

// TestTraceVirtualMatchesLatency proves the exactness claim: on a
// virtual clock the phase spans' summed virtual duration equals the
// reported Stats.Latency exactly, because the session only advances
// inside phases.
func TestTraceVirtualMatchesLatency(t *testing.T) {
	ctx := context.Background()
	e := newEnv(t, uuidSchema, Config{})
	gen := workload.NewUUIDGen(3)
	keys, _ := e.appendUUIDs(t, gen, 300)
	if _, err := e.cli.Index(ctx, "id", component.KindTrie); err != nil {
		t.Fatal(err)
	}

	res, tree, err := e.cli.Trace(ctx, uuidQuery(keys[0]))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Latency <= 0 {
		t.Fatalf("virtual latency = %v, want > 0", res.Stats.Latency)
	}
	if tree.Virtual != res.Stats.Latency {
		t.Fatalf("root virtual = %v, Stats.Latency = %v", tree.Virtual, res.Stats.Latency)
	}
	var sum time.Duration
	for _, phase := range tree.Children {
		sum += phase.Virtual
	}
	if sum != res.Stats.Latency {
		t.Fatalf("phase virtual sum = %v, Stats.Latency = %v", sum, res.Stats.Latency)
	}
}

// TestTraceSessionReuse runs Trace inside a caller-provided session:
// the root span must measure only the search's share of the session.
func TestTraceSessionReuse(t *testing.T) {
	ctx := context.Background()
	e := newEnv(t, uuidSchema, Config{})
	gen := workload.NewUUIDGen(4)
	keys, _ := e.appendUUIDs(t, gen, 100)
	if _, err := e.cli.Index(ctx, "id", component.KindTrie); err != nil {
		t.Fatal(err)
	}

	sess := simtime.NewSession()
	sess.Add(5 * time.Second) // pre-existing virtual time
	sctx := simtime.With(ctx, sess)
	res, tree, err := e.cli.Trace(sctx, uuidQuery(keys[0]))
	if err != nil {
		t.Fatal(err)
	}
	if tree.Virtual != res.Stats.Latency {
		t.Fatalf("root virtual = %v, Stats.Latency = %v (prior session time leaked in)", tree.Virtual, res.Stats.Latency)
	}
	if sess.Elapsed() != 5*time.Second+res.Stats.Latency {
		t.Fatalf("session elapsed = %v, want %v", sess.Elapsed(), 5*time.Second+res.Stats.Latency)
	}
}

// TestTraceTreeOnError returns the partial tree when the search fails.
func TestTraceTreeOnError(t *testing.T) {
	ctx := context.Background()
	e := newEnv(t, uuidSchema, Config{})
	gen := workload.NewUUIDGen(5)
	e.appendUUIDs(t, gen, 10)

	_, tree, err := e.cli.Trace(ctx, Query{Column: "nope", UUID: &[16]byte{1}, K: 1, Snapshot: -1})
	if err == nil {
		t.Fatal("expected error for unknown column")
	}
	if tree == nil || tree.Name != "search" {
		t.Fatalf("tree = %+v, want a search root even on error", tree)
	}
	if err := tree.Validate(); err != nil {
		t.Fatalf("error-path tree malformed: %v", err)
	}
}

// TestClientMetricsSnapshot checks the unified metrics surface: search
// counters advance, and "store.*" renders the Instrumented layer's one
// count.
func TestClientMetricsSnapshot(t *testing.T) {
	ctx := context.Background()
	e := newEnv(t, uuidSchema, Config{})
	gen := workload.NewUUIDGen(6)
	keys, _ := e.appendUUIDs(t, gen, 100)
	if _, err := e.cli.Index(ctx, "id", component.KindTrie); err != nil {
		t.Fatal(err)
	}
	if _, err := e.cli.Search(ctx, uuidQuery(keys[1])); err != nil {
		t.Fatal(err)
	}

	snap := e.cli.Metrics()
	if got := snap.Counter("search.queries"); got != 1 {
		t.Fatalf("search.queries = %d, want 1", got)
	}
	if snap.Counter("search.pages_probed") <= 0 {
		t.Fatal("search.pages_probed did not advance")
	}
	m := e.store.Metrics.Snapshot()
	if snap.Counter("store.gets") != m.Gets || snap.Counter("store.puts") != m.Puts || m.Gets == 0 {
		t.Fatalf("store.* = %v, Instrumented counted %+v", snap.Counters, m)
	}
}
