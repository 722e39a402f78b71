package core

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"rottnest/internal/component"
	"rottnest/internal/lake"
	"rottnest/internal/objectstore"
	"rottnest/internal/parquet"
	"rottnest/internal/simtime"
	"rottnest/internal/workload"
)

// coldConfig disables every warm-path cache so GET deltas measure the
// plan itself.
func coldConfig() Config {
	return Config{
		CacheBytes:           -1,
		DecodedCacheBytes:    -1,
		PlanCacheTTLVersions: -1,
	}
}

// rangeRecorder records every GetRange against keys under prefix,
// for duplicate-fetch assertions.
type rangeRecorder struct {
	objectstore.Store
	prefix string

	mu     sync.Mutex
	armed  bool
	ranges map[string]int
}

func (r *rangeRecorder) Clock() simtime.Clock { return objectstore.ClockOf(r.Store) }

func (r *rangeRecorder) GetRange(ctx context.Context, key string, off, n int64) ([]byte, error) {
	r.mu.Lock()
	if r.armed && strings.HasPrefix(key, r.prefix) {
		r.ranges[fmt.Sprintf("%s@%d+%d", key, off, n)]++
	}
	r.mu.Unlock()
	return r.Store.GetRange(ctx, key, off, n)
}

func (r *rangeRecorder) arm() {
	r.mu.Lock()
	r.armed = true
	r.ranges = make(map[string]int)
	r.mu.Unlock()
}

func (r *rangeRecorder) duplicates() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var dups []string
	for k, n := range r.ranges {
		if n > 1 {
			dups = append(dups, fmt.Sprintf("%s x%d", k, n))
		}
	}
	return dups
}

// appendNeedled appends n uuid rows whose payloads carry "needle" on
// every strideth row.
func appendNeedled(t testing.TB, table *lake.Table, gen *workload.UUIDGen, n, stride int) [][16]byte {
	t.Helper()
	keys := gen.Batch(n)
	b := parquet.NewBatch(uuidSchema)
	ids := make([][]byte, n)
	payloads := make([][]byte, n)
	for i := range keys {
		k := keys[i]
		ids[i] = k[:]
		if i%stride == 0 {
			payloads[i] = []byte(fmt.Sprintf("row %06d has the xyzneedle marker", i))
		} else {
			payloads[i] = []byte(fmt.Sprintf("row %06d plain", i))
		}
	}
	b.Cols[0] = parquet.ColumnValues{Bytes: ids}
	b.Cols[1] = parquet.ColumnValues{Bytes: payloads}
	if _, err := table.Append(context.Background(), b, parquet.WriterOptions{RowGroupRows: 512, PageBytes: 2048}); err != nil {
		t.Fatal(err)
	}
	return keys
}

// TestCompoundANDFewerGETsThanSeparateSearches is the tentpole's core
// acceptance: a 2-predicate AND whose leaves candidate overlapping
// pages must issue strictly fewer GETs than running the two
// predicates as separate searches, and no surviving page may be
// fetched twice within the plan.
func TestCompoundANDFewerGETsThanSeparateSearches(t *testing.T) {
	ctx := context.Background()
	clock := simtime.NewVirtualClock()
	mem := objectstore.NewMemStore(clock)
	rec := &rangeRecorder{Store: mem, prefix: "lake/"}
	store, metrics := objectstore.Instrument(rec, objectstore.DefaultS3Model())
	table, err := lake.CreateWith(ctx, store, "lake", uuidSchema, lake.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := coldConfig()
	cfg.IndexDir = "rottnest"
	cli := NewClient(table, cfg)

	gen := workload.NewUUIDGen(31)
	// 4000 rows, a needle every 25th row: the substring predicate
	// candidates many pages, the uuid predicate exactly one.
	keys := appendNeedled(t, table, gen, 4000, 25)
	if _, err := cli.Index(ctx, "id", component.KindTrie); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Index(ctx, "payload", component.KindFM); err != nil {
		t.Fatal(err)
	}

	// Row 100 carries the needle (100 % 25 == 0), so the AND has
	// exactly one answer.
	target := keys[100]
	gets := func(f func()) int64 {
		before := metrics.Snapshot()
		f()
		return metrics.Snapshot().Sub(before).Gets
	}

	var sep1, sep2, comp *Result
	sepGETs := gets(func() {
		var err error
		if sep1, err = cli.Search(ctx, Query{Column: "id", UUID: &target, Snapshot: -1}); err != nil {
			t.Fatal(err)
		}
		if sep2, err = cli.Search(ctx, Query{Column: "payload", Substring: []byte("xyzneedle"), Snapshot: -1}); err != nil {
			t.Fatal(err)
		}
	})
	if len(sep1.Matches) != 1 || len(sep2.Matches) != 4000/25 {
		t.Fatalf("separate searches: %d, %d matches", len(sep1.Matches), len(sep2.Matches))
	}

	rec.arm()
	compGETs := gets(func() {
		var err error
		comp, err = cli.SearchCompound(ctx, CompoundQuery{
			Expr: And(
				PredUUID("id", target),
				PredSubstring("payload", []byte("xyzneedle")),
			),
			Snapshot: -1,
			Output:   "payload",
		})
		if err != nil {
			t.Fatal(err)
		}
	})
	if len(comp.Matches) != 1 || comp.Matches[0].Row != 100 {
		t.Fatalf("compound matches = %+v", comp.Matches)
	}
	if !bytes.Contains(comp.Matches[0].Value, []byte("xyzneedle")) {
		t.Fatalf("output column wrong: %q", comp.Matches[0].Value)
	}
	if compGETs >= sepGETs {
		t.Fatalf("compound AND issued %d GETs, separate searches %d — want strictly fewer", compGETs, sepGETs)
	}
	if dups := rec.duplicates(); len(dups) > 0 {
		t.Fatalf("pages fetched more than once in one plan: %v", dups)
	}
	if comp.Stats.PagesCandidate <= comp.Stats.PagesProbed-comp.Stats.FilesScanned {
		t.Fatalf("stats: candidate %d, probed %d", comp.Stats.PagesCandidate, comp.Stats.PagesProbed)
	}
	if comp.Stats.PagesPruned == 0 {
		t.Fatalf("intersection pruned nothing: %+v", comp.Stats)
	}
}

// TestCompoundOrAndSemantics pins the set algebra: OR unions, AND
// intersects, and nested trees compose.
func TestCompoundOrAndSemantics(t *testing.T) {
	ctx := context.Background()
	e := newEnv(t, uuidSchema, Config{})
	gen := workload.NewUUIDGen(32)
	keys := appendNeedled(t, e.table, gen, 2000, 40)
	if _, err := e.cli.Index(ctx, "id", component.KindTrie); err != nil {
		t.Fatal(err)
	}
	if _, err := e.cli.Index(ctx, "payload", component.KindFM); err != nil {
		t.Fatal(err)
	}

	search := func(expr *Expr, output string) []int64 {
		t.Helper()
		res, err := e.cli.SearchCompound(ctx, CompoundQuery{Expr: expr, Snapshot: -1, Output: output})
		if err != nil {
			t.Fatal(err)
		}
		rows := make([]int64, len(res.Matches))
		for i, m := range res.Matches {
			rows[i] = m.Row
		}
		return rows
	}

	// OR of two uuids: both rows.
	rows := search(Or(PredUUID("id", keys[3]), PredUUID("id", keys[999])), "id")
	if len(rows) != 2 || rows[0] != 3 || rows[1] != 999 {
		t.Fatalf("uuid OR rows = %v", rows)
	}
	// AND of uuid and non-matching substring: empty.
	rows = search(And(PredUUID("id", keys[3]), PredSubstring("payload", []byte("xyzneedle"))), "id")
	if len(rows) != 0 {
		t.Fatalf("disjoint AND rows = %v", rows)
	}
	// AND of uuid and matching substring: the row (40 % 40 == 0).
	rows = search(And(PredUUID("id", keys[40]), PredSubstring("payload", []byte("xyzneedle"))), "payload")
	if len(rows) != 1 || rows[0] != 40 {
		t.Fatalf("matching AND rows = %v", rows)
	}
	// Nested: (uuid OR uuid) AND substring — one of the two carries
	// the needle.
	rows = search(And(
		Or(PredUUID("id", keys[80]), PredUUID("id", keys[81])),
		PredSubstring("payload", []byte("xyzneedle")),
	), "id")
	if len(rows) != 1 || rows[0] != 80 {
		t.Fatalf("nested rows = %v", rows)
	}
	// Regex leaf intersected with substring leaf on the same column.
	rows = search(And(
		PredRegex("payload", "row 0000[48]0 has"),
		PredSubstring("payload", []byte("xyzneedle")),
	), "payload")
	if len(rows) != 2 || rows[0] != 40 || rows[1] != 80 {
		t.Fatalf("regex AND rows = %v", rows)
	}
}

// TestCompoundScanFallback checks compound queries stay exact when
// some files are unindexed for some leaves.
func TestCompoundScanFallback(t *testing.T) {
	ctx := context.Background()
	e := newEnv(t, uuidSchema, Config{})
	gen := workload.NewUUIDGen(33)
	appendNeedled(t, e.table, gen, 1000, 30)
	if _, err := e.cli.Index(ctx, "id", component.KindTrie); err != nil {
		t.Fatal(err)
	}
	if _, err := e.cli.Index(ctx, "payload", component.KindFM); err != nil {
		t.Fatal(err)
	}
	// A second file indexed for id but not payload.
	keys2 := appendNeedled(t, e.table, gen, 1000, 30)
	if _, err := e.cli.Index(ctx, "id", component.KindTrie); err != nil {
		t.Fatal(err)
	}

	res, err := e.cli.SearchCompound(ctx, CompoundQuery{
		Expr:     And(PredUUID("id", keys2[60]), PredSubstring("payload", []byte("xyzneedle"))),
		Snapshot: -1,
		Output:   "payload",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 1 || res.Matches[0].Row != 60 {
		t.Fatalf("matches = %+v", res.Matches)
	}
	if res.Stats.FilesScanned == 0 {
		t.Fatalf("expected scan fallback for the payload-unindexed file: %+v", res.Stats)
	}
}

// TestProbeCoalescingMemoAndSingleflight checks identical probes
// coalesce: across sequential repeats (memo) and across a concurrent
// burst (singleflight + memo), the index is walked far fewer times
// than it is asked.
func TestProbeCoalescingMemoAndSingleflight(t *testing.T) {
	ctx := context.Background()
	e := newEnv(t, uuidSchema, Config{}) // batcher on by default
	gen := workload.NewUUIDGen(34)
	appendNeedled(t, e.table, gen, 2000, 25)
	if _, err := e.cli.Index(ctx, "payload", component.KindFM); err != nil {
		t.Fatal(err)
	}

	q := Query{Column: "payload", Substring: []byte("xyzneedle"), Snapshot: -1}
	first, err := e.cli.Search(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.cli.probeCoalesced.Value(); got != 0 {
		t.Fatalf("first search coalesced %d probes", got)
	}
	runsAfterFirst := e.cli.probeRuns.Value()
	if runsAfterFirst == 0 {
		t.Fatal("no probe runs recorded")
	}

	second, err := e.cli.Search(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if e.cli.probeCoalesced.Value() == 0 {
		t.Fatal("repeat search did not coalesce its probe")
	}
	if got := e.cli.probeRuns.Value(); got != runsAfterFirst {
		t.Fatalf("repeat search re-ran the probe: runs %d -> %d", runsAfterFirst, got)
	}
	if len(second.Matches) != len(first.Matches) {
		t.Fatalf("coalesced search changed results: %d vs %d", len(second.Matches), len(first.Matches))
	}

	// Concurrent burst of a fresh probe: the walk happens once.
	q2 := Query{Column: "payload", Substring: []byte("plain"), Snapshot: -1, K: 5}
	runsBefore := e.cli.probeRuns.Value()
	var wg sync.WaitGroup
	errs := make([]error, 16)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = e.cli.Search(ctx, q2)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if runs := e.cli.probeRuns.Value() - runsBefore; runs >= 16 {
		t.Fatalf("burst of 16 identical searches ran %d probes", runs)
	}
	if e.cli.probeCoalesced.Value() == 0 {
		t.Fatal("probe_coalesced counter never moved")
	}
}

// TestCompoundPlansShareUnitListings pins the single plan keyspace:
// AND, OR and single-leaf trees over the same columns at one version
// each return their own correct rows (the cached listings are aligned
// per tree, never shared by position), repeats hit the plan cache, and
// a tree never seen before plans without touching the store when its
// (column, kind) pairs are already listed.
func TestCompoundPlansShareUnitListings(t *testing.T) {
	ctx := context.Background()
	e := newEnv(t, uuidSchema, Config{})
	gen := workload.NewUUIDGen(35)
	keys := appendNeedled(t, e.table, gen, 2000, 50)
	if _, err := e.cli.Index(ctx, "id", component.KindTrie); err != nil {
		t.Fatal(err)
	}
	if _, err := e.cli.Index(ctx, "payload", component.KindFM); err != nil {
		t.Fatal(err)
	}

	needle := PredSubstring("payload", []byte("xyzneedle"))
	and := CompoundQuery{Expr: And(PredUUID("id", keys[50]), needle), Snapshot: -1, Output: "id"}
	or := CompoundQuery{Expr: Or(PredUUID("id", keys[50]), needle), Snapshot: -1, Output: "id"}
	single := CompoundQuery{Expr: needle, Snapshot: -1}

	run := func(cq CompoundQuery) int {
		t.Helper()
		res, err := e.cli.SearchCompound(ctx, cq)
		if err != nil {
			t.Fatal(err)
		}
		return len(res.Matches)
	}
	andN := run(and)
	orN := run(or)
	singleN := run(single)
	if andN != 1 {
		t.Fatalf("AND matches = %d, want 1", andN)
	}
	if want := 2000 / 50; orN != want || singleN != want {
		t.Fatalf("OR = %d, single = %d, want %d", orN, singleN, want)
	}

	// Repeats (now warm) must return identical counts, and count
	// plan-cache hits.
	hitsBefore := e.cli.plans.hits.Value()
	if got := run(and); got != andN {
		t.Fatalf("warm AND = %d, cold %d", got, andN)
	}
	if got := run(or); got != orN {
		t.Fatalf("warm OR = %d, cold %d", got, orN)
	}
	if got := run(single); got != singleN {
		t.Fatalf("warm single = %d, cold %d", got, singleN)
	}
	if got := e.cli.plans.hits.Value() - hitsBefore; got != 3 {
		t.Fatalf("warm repeats counted %d plan-cache hits, want 3", got)
	}

	// The converse: a second, different tree over the same two pairs
	// needs no planning LIST, and its plan phase issues no GET.
	novel := CompoundQuery{
		Expr:     And(PredUUID("id", keys[100]), Or(needle, PredSubstring("payload", []byte("payload-1")))),
		Snapshot: -1, Output: "id",
	}
	before := e.store.Metrics.Snapshot()
	missesBefore := e.cli.plans.misses.Value()
	_, tr, err := e.cli.TraceCompound(ctx, novel)
	if err != nil {
		t.Fatal(err)
	}
	if lists := e.store.Metrics.Snapshot().Sub(before).Lists; lists != 0 {
		t.Fatalf("novel tree over listed pairs issued %d LISTs, want 0", lists)
	}
	if e.cli.plans.misses.Value() != missesBefore {
		t.Fatal("novel tree over listed pairs missed the plan cache")
	}
	plan := tr.Find("search.plan")
	if plan == nil || plan.Attrs["plan_cache"] != true || len(plan.Children) != 0 {
		t.Fatalf("plan span = %+v, want plan_cache with no store requests under it", plan)
	}
}

// TestVectorWithFilterPredicates checks the ranked path: the filter's
// page-set intersection runs before refinement, every result
// satisfies the filter, and the planted best filtered vector wins.
func TestVectorWithFilterPredicates(t *testing.T) {
	ctx := context.Background()
	schema := parquet.MustSchema(
		parquet.Column{Name: "emb", Type: parquet.TypeFixedLenByteArray, TypeLen: 4 * 8},
		parquet.Column{Name: "tag", Type: parquet.TypeByteArray},
		parquet.Column{Name: "id", Type: parquet.TypeFixedLenByteArray, TypeLen: 16},
	)
	e := newEnv(t, schema, Config{})
	uuids := workload.NewUUIDGen(36)
	gen := workload.NewVectorGen(workload.VectorConfig{Seed: 36, Dim: 8, Clusters: 8, Spread: 0.2})
	const n = 2000
	vecs := gen.Batch(n)
	q := gen.Queries(1)[0]
	// Row n-1 is exactly the query and tagged red; every other red row
	// is far away, and near-identical untagged decoys sit next to it.
	vecs[n-1] = q
	b := parquet.NewBatch(schema)
	embs := make([][]byte, n)
	tags := make([][]byte, n)
	ids := make([][]byte, n)
	for i, v := range vecs {
		id := uuids.Next()
		ids[i] = id[:]
		embs[i] = workload.Float32sToBytes(v)
		if i%7 == 0 || i == n-1 {
			tags[i] = []byte(fmt.Sprintf("tag red %d", i))
		} else {
			tags[i] = []byte(fmt.Sprintf("tag blue %d", i))
		}
	}
	b.Cols[0] = parquet.ColumnValues{Bytes: embs}
	b.Cols[1] = parquet.ColumnValues{Bytes: tags}
	b.Cols[2] = parquet.ColumnValues{Bytes: ids}
	if _, err := e.table.Append(ctx, b, parquet.WriterOptions{RowGroupRows: 512, PageBytes: 4096}); err != nil {
		t.Fatal(err)
	}
	for col, kind := range map[string]component.Kind{"emb": component.KindIVFPQ, "tag": component.KindFM, "id": component.KindTrie} {
		if _, err := e.cli.Index(ctx, col, kind); err != nil {
			t.Fatal(err)
		}
	}

	// redTop5 runs a ranked query and checks it against the planted
	// data: five rows, all red, the exact red vector first.
	redTop5 := func(cli *Client, filter ...*Expr) *Result {
		t.Helper()
		res, err := cli.SearchCompound(ctx, CompoundQuery{
			Expr: And(append([]*Expr{PredVector("emb", q, 8, 40)}, filter...)...),
			K:    5, Snapshot: -1, Output: "tag",
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Matches) != 5 {
			t.Fatalf("matches = %d", len(res.Matches))
		}
		for _, m := range res.Matches {
			if !bytes.Contains(m.Value, []byte("red")) {
				t.Fatalf("filter violated: %q at row %d", m.Value, m.Row)
			}
		}
		if res.Matches[0].Row != n-1 || res.Matches[0].Score != 0 {
			t.Fatalf("planted exact red vector lost: %+v", res.Matches[0])
		}
		return res
	}
	redTop5(e.cli, PredSubstring("tag", []byte("red")))

	// The ranked path shares the one probe phase. On a cold batcher, two
	// substring filters over the one FM index file ride one superwalk
	// beside the IVF-PQ probe: two walks, not one per leaf.
	coldClient := func() (*Client, func() int64) {
		cli := NewClient(e.table, Config{IndexDir: "rottnest"})
		return cli, func() int64 { return cli.Metrics().Counter("search.probe_runs") }
	}
	cli, probeRuns := coldClient()
	redTop5(cli, PredSubstring("tag", []byte("red")), PredSubstring("tag", []byte("tag r")))
	if got := probeRuns(); got != 2 {
		t.Errorf("vector AND(substring, substring) ran %d index walks, want 2 (one IVF-PQ probe, one FM superwalk)", got)
	}
	// ...and a top-level AND filter is cost-staged: the trie lookup of
	// an absent key empties every file, so the FM index is never walked.
	cli, probeRuns = coldClient()
	res, err := cli.SearchCompound(ctx, CompoundQuery{
		Expr: And(PredVector("emb", q, 8, 40), PredUUID("id", uuids.Next()), PredSubstring("tag", []byte("red"))),
		K:    5, Snapshot: -1, Output: "tag",
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.OrderedAND || !res.Stats.ShortCircuited || res.Stats.LeavesSkipped != 1 || len(res.Matches) != 0 {
		t.Fatalf("vector AND(absent uuid, substring): stats %+v, %d matches; want ordered, short-circuited, 1 leaf skipped, no rows", res.Stats, len(res.Matches))
	}
	if got := probeRuns(); got != 2 {
		t.Fatalf("short-circuited ranked query ran %d index walks, want 2 (IVF-PQ probe and trie lookup, no FM walk)", got)
	}

	// Vector leaves are rejected under OR and below the top level.
	if _, err := e.cli.SearchCompound(ctx, CompoundQuery{
		Expr: Or(PredVector("emb", q, 8, 40), PredSubstring("tag", []byte("red"))),
		K:    5, Snapshot: -1,
	}); err == nil {
		t.Fatal("vector under OR accepted")
	}
	q2 := append([]float32(nil), q...)
	q2[0] += 1
	if _, err := e.cli.SearchCompound(ctx, CompoundQuery{
		Expr: And(Or(PredVector("emb", q, 8, 40), PredVector("emb", q2, 8, 40)), PredSubstring("tag", []byte("red"))),
		K:    5, Snapshot: -1,
	}); err == nil {
		t.Fatal("nested vector accepted")
	}
}

// TestCompoundCrossColumnPageAlignment exercises differing page
// boundaries: the id column (16-byte values) and payload column
// (longer values) paginate differently, and row-range intersection
// must still line up.
func TestCompoundCrossColumnPageAlignment(t *testing.T) {
	ctx := context.Background()
	e := newEnv(t, uuidSchema, Config{})
	gen := workload.NewUUIDGen(37)
	keys := appendNeedled(t, e.table, gen, 3000, 1) // every row has the needle
	if _, err := e.cli.Index(ctx, "id", component.KindTrie); err != nil {
		t.Fatal(err)
	}
	if _, err := e.cli.Index(ctx, "payload", component.KindFM); err != nil {
		t.Fatal(err)
	}
	// Every AND of (uuid, needle) must find exactly its row.
	for _, i := range []int{0, 1, 777, 1500, 2999} {
		res, err := e.cli.SearchCompound(ctx, CompoundQuery{
			Expr:     And(PredUUID("id", keys[i]), PredSubstring("payload", []byte("xyzneedle"))),
			Snapshot: -1, Output: "id",
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Matches) != 1 || res.Matches[0].Row != int64(i) {
			t.Fatalf("row %d: matches = %+v", i, res.Matches)
		}
		if !bytes.Equal(res.Matches[0].Value, keys[i][:]) {
			t.Fatalf("row %d: wrong id value", i)
		}
	}
}
