package ingest

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"rottnest/internal/adaptive"
	"rottnest/internal/component"
	"rottnest/internal/core"
	"rottnest/internal/lake"
	"rottnest/internal/objectstore"
	"rottnest/internal/obs"
	"rottnest/internal/parquet"
	"rottnest/internal/simtime"
	"rottnest/internal/workload"
)

var twoColSchema = parquet.MustSchema(
	parquet.Column{Name: "msg", Type: parquet.TypeByteArray},
	parquet.Column{Name: "note", Type: parquet.TypeByteArray},
)

func twoColBatch(msgs, notes []string) *parquet.Batch {
	b := parquet.NewBatch(twoColSchema)
	mb := make([][]byte, len(msgs))
	nb := make([][]byte, len(notes))
	for i := range msgs {
		mb[i], nb[i] = []byte(msgs[i]), []byte(notes[i])
	}
	b.Cols[0] = parquet.ColumnValues{Bytes: mb}
	b.Cols[1] = parquet.ColumnValues{Bytes: nb}
	return b
}

// TestSchedulerAdaptiveColdColumnNeverIndexed drives the full adaptive
// loop under the virtual clock: two specs, but only one column ever
// sees queries. The heat ledger feeds the autopilot, the autopilot
// demotes the never-queried column to the scan path, and the scheduler
// must bring the hot column to full coverage while building zero index
// entries for the cold one — the headline saving of workload-adaptive
// maintenance.
func TestSchedulerAdaptiveColdColumnNeverIndexed(t *testing.T) {
	ctx := context.Background()
	clock := simtime.NewVirtualClock()
	stack := objectstore.NewStack(objectstore.NewMemStore(clock), objectstore.StackOptions{
		Latency:    &objectstore.LatencyModel{},
		CacheBytes: -1,
	})
	tbl, err := lake.CreateWith(ctx, stack, "tbl", twoColSchema, lake.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cli := core.NewClient(tbl, core.Config{IndexDir: "idx"})
	specs := []core.IndexSpec{
		{Column: "msg", Kind: component.KindFM},
		{Column: "note", Kind: component.KindFM},
	}
	ledger := adaptive.NewLedger(adaptive.LedgerOptions{HalfLife: time.Minute, Clock: clock})
	cli.SetHeatObserver(ledger)
	// ScanBytesPerSec of 1 makes brute force look hopeless at any data
	// size, so queried columns always stay on the indexing path; the
	// cold column is demoted by the never-queried rule, which bypasses
	// the phase diagram entirely.
	pilot := adaptive.NewAutopilot(cli, ledger, specs, adaptive.AutopilotOptions{
		RefreshEvery:    -1,
		ScanBytesPerSec: 1,
	})
	policy := adaptive.NewPolicy(adaptive.PolicyOptions{Ledger: ledger, Pilot: pilot})
	w := NewWriter(tbl, WriterOptions{MaxBatchRows: 2, Manual: true})
	s := NewScheduler(tbl, SchedulerOptions{
		Client:   cli,
		Writer:   w,
		Specs:    specs,
		Adaptive: policy,
	})

	for round := 0; round < 3; round++ {
		var msgs, notes []string
		for i := 0; i < 4; i++ {
			msgs = append(msgs, fmt.Sprintf("hot-r%d-%d", round, i))
			notes = append(notes, fmt.Sprintf("cold-r%d-%d", round, i))
		}
		if _, err := w.Append(ctx, twoColBatch(msgs, notes)); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		// Query traffic on msg only: this is what makes it hot — and
		// what the cold column never gets.
		for i := 0; i < 5; i++ {
			if _, err := cli.Search(ctx, core.Query{Column: "msg", Substring: []byte("hot-")}); err != nil {
				t.Fatal(err)
			}
		}
		clock.Advance(2 * time.Second)
		if err := s.Quiesce(ctx); err != nil {
			t.Fatal(err)
		}
		// The cold column must have zero index entries at every
		// quiescent point, not just at the end.
		cold, err := cli.ListIndexes(ctx, "note", component.KindFM)
		if err != nil {
			t.Fatal(err)
		}
		if len(cold) != 0 {
			t.Fatalf("round %d: cold column has %d index entries, want 0", round, len(cold))
		}
	}

	hot, err := cli.ListIndexes(ctx, "msg", component.KindFM)
	if err != nil {
		t.Fatal(err)
	}
	if len(hot) == 0 {
		t.Fatal("hot column never indexed")
	}
	reg := s.Registry().Snapshot()
	if got := reg.Counter("ingest.jobs_index"); got == 0 {
		t.Fatal("no index jobs ran")
	}
	// Jobs ran, so the job-issued request meter must have billed them —
	// this is the number the adaptive bench compares regimes on.
	if got := reg.Counter("ingest.job_requests"); got == 0 {
		t.Fatal("ingest.job_requests = 0 after index jobs ran")
	}
	// Full freshness despite the demoted spec: coverage counts only
	// non-demoted specs, so the ledger drains on the hot column alone.
	if got := reg.Gauge("ingest.rows_unindexed"); got != 0 {
		t.Fatalf("rows_unindexed = %d after quiesce, want 0", got)
	}
	// Demotion skipped jobs; it had nothing to drop (no entries ever).
	if got := reg.Counter("ingest.jobs_demote"); got != 0 {
		t.Fatalf("jobs_demote = %d, want 0 (cold column never had entries)", got)
	}
	// The search path still answers on both columns: msg via its index,
	// note by scanning.
	res, err := cli.Search(ctx, core.Query{Column: "note", Substring: []byte("cold-r2-3")})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 1 {
		t.Fatalf("scan-path search on demoted column found %d hits, want 1", len(res.Matches))
	}
	if err := w.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

// twoColWorld is a writer, client and scheduler over a fresh table of
// twoColSchema on a metered zero-latency store, the scheduler keeping
// an FM index of msg and of note under an adaptive policy over the
// returned ledger; withPilot gives the policy an autopilot.
func twoColWorld(t *testing.T, withPilot bool) (*objectstore.Stack, *Writer, *core.Client, *adaptive.Ledger, *Scheduler) {
	t.Helper()
	clock := simtime.NewVirtualClock()
	stack := objectstore.NewStack(objectstore.NewMemStore(clock), objectstore.StackOptions{
		Latency:    &objectstore.LatencyModel{},
		CacheBytes: -1,
	})
	tbl, err := lake.CreateWith(context.Background(), stack, "tbl", twoColSchema, lake.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cli := core.NewClient(tbl, core.Config{IndexDir: "idx"})
	specs := []core.IndexSpec{
		{Column: "msg", Kind: component.KindFM},
		{Column: "note", Kind: component.KindFM},
	}
	ledger := adaptive.NewLedger(adaptive.LedgerOptions{HalfLife: time.Minute, Clock: clock})
	cli.SetHeatObserver(ledger)
	popts := adaptive.PolicyOptions{Ledger: ledger}
	if withPilot {
		// As in TestSchedulerAdaptiveColdColumnNeverIndexed: a queried
		// column stays indexed, a never-queried one is demoted.
		popts.Pilot = adaptive.NewAutopilot(cli, ledger, specs, adaptive.AutopilotOptions{RefreshEvery: -1, ScanBytesPerSec: 1})
	}
	w := NewWriter(tbl, WriterOptions{MaxBatchRows: 2, Manual: true})
	s := NewScheduler(tbl, SchedulerOptions{Client: cli, Writer: w, Specs: specs, Adaptive: adaptive.NewPolicy(popts)})
	t.Cleanup(func() { w.Close(context.Background()) })
	return stack, w, cli, ledger, s
}

// appendTwoCol commits one two-row file and returns its path.
func appendTwoCol(t *testing.T, w *Writer, tag string) string {
	t.Helper()
	ctx := context.Background()
	ack, err := w.Append(ctx, twoColBatch([]string{tag + "-m0", tag + "-m1"}, []string{tag + "-n0", tag + "-n1"}))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	return ack.Path()
}

// TestSchedulerAdaptiveFirstStepActsOnItsVerdicts: the hot column is
// indexed and a never-queried column has a backlog. The first Step
// refreshes the autopilot before it reads the verdicts, so it demotes
// the cold column and builds nothing for it. It used to read the
// verdicts before the refresh, build the cold column's FM index on the
// first step, and drop it with a demote job later: a wasted build,
// upload and drop.
func TestSchedulerAdaptiveFirstStepActsOnItsVerdicts(t *testing.T) {
	ctx := context.Background()
	_, w, cli, _, s := twoColWorld(t, true)
	appendTwoCol(t, w, "a")
	if _, err := cli.Index(ctx, "msg", component.KindFM); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Search(ctx, core.Query{Column: "msg", Substring: []byte("a-m")}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Step(ctx); err != nil {
		t.Fatal(err)
	}
	cold, err := cli.ListIndexes(ctx, "note", component.KindFM)
	if err != nil {
		t.Fatal(err)
	}
	if len(cold) != 0 {
		t.Fatalf("after the first step the never-queried column has %d index entries, want 0", len(cold))
	}
	if err := s.Quiesce(ctx); err != nil {
		t.Fatal(err)
	}
	if got := s.Registry().Snapshot().Counter("ingest.jobs_demote"); got != 0 {
		t.Fatalf("jobs_demote = %d, want 0 (the cold column never had entries)", got)
	}
}

// TestAdaptiveStepIsOneIndexJob: the adaptive policy shapes the one
// index job rather than choosing a spec. Two queried specs, each with
// a partly hot backlog, are indexed by one Step in one job — two
// uploads and one metadata commit — and each covers exactly its own
// hot files.
func TestAdaptiveStepIsOneIndexJob(t *testing.T) {
	ctx := context.Background()
	stack, w, cli, ledger, s := twoColWorld(t, false)
	var paths []string
	for _, tag := range []string{"a", "b", "c", "d"} {
		paths = append(paths, appendTwoCol(t, w, tag))
	}
	ledger.Record("msg", paths[0], 3)
	ledger.Record("msg", paths[1], 1)
	ledger.Record("note", paths[2], 2)

	before := stack.Metrics.Snapshot()
	if worked, err := s.Step(ctx); err != nil || !worked {
		t.Fatalf("step: worked=%v err=%v", worked, err)
	}
	if got := s.Registry().Snapshot().Counter("ingest.jobs_index"); got != 1 {
		t.Errorf("jobs_index = %d, want 1", got)
	}
	if puts := stack.Metrics.Snapshot().Sub(before).Puts; puts != 3 {
		t.Errorf("step issued %d PUTs, want 3: two index files and one metadata commit", puts)
	}
	for col, want := range map[string][]string{"msg": {paths[0], paths[1]}, "note": {paths[2]}} {
		entries, err := cli.ListIndexes(ctx, col, component.KindFM)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 1 {
			t.Fatalf("%s has %d index entries, want 1", col, len(entries))
		}
		got := slices.Clone(entries[0].Files)
		slices.Sort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Errorf("%s's entry covers %v, want its hot files %v", col, got, want)
		}
	}
}

// adaptiveColdCols are wide payload columns no query touches, beside
// the two hot lookup columns ts and id: the usual lake shape, where
// index-everything pays an FM build for every one of them.
var adaptiveColdCols = []string{"note", "tag", "meta", "raw"}

var adaptiveSchema = parquet.MustSchema(
	parquet.Column{Name: "ts", Type: parquet.TypeInt64},
	parquet.Column{Name: "id", Type: parquet.TypeFixedLenByteArray, TypeLen: 16},
	parquet.Column{Name: "note", Type: parquet.TypeByteArray},
	parquet.Column{Name: "tag", Type: parquet.TypeByteArray},
	parquet.Column{Name: "meta", Type: parquet.TypeByteArray},
	parquet.Column{Name: "raw", Type: parquet.TypeByteArray},
)

// adaptivePayloadBytes sizes a cold-column value, so an FM build reads
// many pages per file.
const adaptivePayloadBytes = 512

// adaptivePayload is one cold-column value: a unique header padded to
// adaptivePayloadBytes.
func adaptivePayload(col string, round, part, row int) []byte {
	v := make([]byte, 0, adaptivePayloadBytes)
	v = append(v, fmt.Sprintf("%s-%d-%d-%d ", col, round, part, row)...)
	for i := 0; len(v) < adaptivePayloadBytes; i++ {
		v = append(v, byte('a'+(i+round*31+part*7+row)%26))
	}
	return v
}

// adaptiveRun is what one maintenance regime measured.
type adaptiveRun struct {
	maintRequests int64           // ingest.job_requests
	coldEntries   int             // FM entries built for the cold columns
	hotLags       []time.Duration // searchable lag of partition 0's files
	steadyLats    []time.Duration // query latencies after the final drain
}

// runAdaptiveStream ingests 5 rounds × 4 partitions × 384 rows (seed
// 21) through a writer that seals 64-row files, on the S3 model with
// every cache and probe batching off. Each round flushes, runs 6
// Zipf(1.4) point lookups filtered to one partition (partition 0 takes
// most of them), then gives the scheduler 3 one-second ticks. A final
// drain reaches steady state, and 18 more lookups measure the query
// latency there. With adaptive set, a heat ledger taps the queries and
// an autopilot, sized to the paper's 256e9-byte UUID corpus, steers
// the scheduler; without it the scheduler keeps every spec fresh.
func runAdaptiveStream(t *testing.T, adaptiveOn bool) adaptiveRun {
	t.Helper()
	const rounds, partitions, rowsPerBatch, queriesPerRound, fileRows = 5, 4, 384, 6, 64
	ctx := context.Background()
	clock := simtime.NewVirtualClock()
	model := objectstore.DefaultS3Model()
	store := objectstore.NewStack(objectstore.NewMemStore(clock), objectstore.StackOptions{Latency: &model, CacheBytes: -1})
	tbl, err := lake.CreateWith(ctx, store, "lake", adaptiveSchema, lake.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cli := core.NewClient(tbl, core.Config{
		IndexDir:             "rottnest",
		CacheBytes:           -1,
		DecodedCacheBytes:    -1,
		PlanCacheTTLVersions: -1,
	})
	gen := workload.NewUUIDGen(21)
	rng := rand.New(rand.NewSource(21 + 11))
	zipf := rand.NewZipf(rng, 1.4, 1, partitions-1)
	filesPerPart := rowsPerBatch / fileRows
	w := NewWriter(tbl, WriterOptions{
		MaxBatchRows:       fileRows,
		GroupCommitBatches: partitions * filesPerPart,
		Parquet:            parquet.WriterOptions{RowGroupRows: 512, PageBytes: 4 << 10},
		Manual:             true,
	})
	specs := []core.IndexSpec{{Column: "id", Kind: component.KindTrie}}
	for _, col := range adaptiveColdCols {
		specs = append(specs, core.IndexSpec{Column: col, Kind: component.KindFM})
	}
	coveredLag := make(map[string]time.Duration)
	opts := SchedulerOptions{
		Client:         cli,
		Writer:         w,
		Specs:          specs,
		RequestsPerSec: 60,
		// With many small files, probe cost tracks entry count, so both
		// regimes compact early.
		Policy:    core.MaintainPolicy{CompactWhenEntries: 4},
		OnCovered: func(path string, _ int64, lag time.Duration) { coveredLag[path] = lag },
	}
	if adaptiveOn {
		ledger := adaptive.NewLedger(adaptive.LedgerOptions{HalfLife: 30 * time.Second, Clock: clock})
		cli.SetHeatObserver(ledger)
		rowBytes := len(adaptiveColdCols)*adaptivePayloadBytes + 24
		pilot := adaptive.NewAutopilot(cli, ledger, specs, adaptive.AutopilotOptions{
			RefreshEvery: 10 * time.Second,
			ScaleFactor:  256e9 / float64(rounds*partitions*rowsPerBatch*rowBytes),
		})
		opts.Adaptive = adaptive.NewPolicy(adaptive.PolicyOptions{Ledger: ledger, Pilot: pilot})
	}
	s := NewScheduler(tbl, opts)

	keysByPart := make([][][16]byte, partitions)
	lookup := func() time.Duration {
		p := int(zipf.Uint64())
		k := keysByPart[p][rng.Intn(len(keysByPart[p]))]
		res, err := cli.Search(simtime.With(ctx, simtime.NewSession()), core.Query{
			Column: "id", UUID: &k, K: 10, Snapshot: -1,
			Partition: &core.PartitionFilter{Column: "ts", Min: int64(p), Max: int64(p)},
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Matches) != 1 {
			t.Fatalf("key matched %d times", len(res.Matches))
		}
		return res.Stats.Latency
	}
	var run adaptiveRun
	for round := 0; round < rounds; round++ {
		sctx := simtime.With(ctx, simtime.NewSession())
		for p := 0; p < partitions; p++ {
			for fb := 0; fb < filesPerPart; fb++ {
				ks := gen.Batch(fileRows)
				keysByPart[p] = append(keysByPart[p], ks...)
				b := parquet.NewBatch(adaptiveSchema)
				ts := make([]int64, fileRows)
				ids := make([][]byte, fileRows)
				for i := range ks {
					ts[i] = int64(p)
					ids[i] = ks[i][:]
				}
				b.Cols[0] = parquet.ColumnValues{Ints: ts}
				b.Cols[1] = parquet.ColumnValues{Bytes: ids}
				for c, col := range adaptiveColdCols {
					vals := make([][]byte, fileRows)
					for i := range vals {
						vals[i] = adaptivePayload(col, round, p, fb*fileRows+i)
					}
					b.Cols[2+c] = parquet.ColumnValues{Bytes: vals}
				}
				if _, err := w.Append(sctx, b); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := w.Flush(sctx); err != nil {
			t.Fatal(err)
		}
		// Queries run before the round's maintenance, so the heat they
		// leave steers the jobs that follow.
		for q := 0; q < queriesPerRound; q++ {
			lookup()
		}
		for tick := 0; tick < 3; tick++ {
			clock.Advance(time.Second)
			if _, err := s.Step(ctx); err != nil {
				t.Fatal(err)
			}
		}
	}
	clock.Advance(time.Second)
	if err := s.Quiesce(ctx); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(ctx); err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 3*queriesPerRound; q++ {
		run.steadyLats = append(run.steadyLats, lookup())
	}

	snap, err := tbl.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range snap.Files {
		st, ok := f.Stats["ts"]
		if !ok || len(st.Min) == 0 || parquet.DecodeOrderableInt64(st.Min) != 0 {
			continue
		}
		if lag, ok := coveredLag[f.Path]; ok {
			run.hotLags = append(run.hotLags, lag)
		}
	}
	for _, col := range adaptiveColdCols {
		cold, err := cli.ListIndexes(ctx, col, component.KindFM)
		if err != nil {
			t.Fatal(err)
		}
		run.coldEntries += len(cold)
	}
	run.maintRequests = s.Registry().Snapshot().Counter("ingest.job_requests")
	return run
}

// TestAdaptiveMaintenance pins workload-adaptive maintenance against
// index-everything on the same stream and query schedule (see
// runAdaptiveStream). The autopilot demotes the four never-queried
// payload columns, so adaptive builds none of their FM indexes: its
// jobs cost 285 store requests, at least 2x fewer than
// index-everything's, while the hot partition's searchable lag (1 s at
// p50 and p99, each held within ±20 %) and the steady-state query
// latency (within 1.10x at p50 and p99) are no worse.
func TestAdaptiveMaintenance(t *testing.T) {
	ad, all := runAdaptiveStream(t, true), runAdaptiveStream(t, false)
	t.Logf("maintenance requests: adaptive %d, index-everything %d", ad.maintRequests, all.maintRequests)
	// Every index job plans from its step's observation, which is no
	// job's request. 305 while each of the 10 adaptive jobs read the
	// plan again (the lake log and the metadata log, 2 LISTs); 311
	// while the autopilot's two refreshes read the lake log and Status
	// for themselves (3 LISTs each, billed to the jobs).
	if ad.maintRequests != 285 {
		t.Errorf("adaptive maintenance requests = %d, want 285", ad.maintRequests)
	}
	if ad.coldEntries != 0 {
		t.Errorf("adaptive built %d cold-column index entries, want 0", ad.coldEntries)
	}
	if all.coldEntries == 0 {
		t.Errorf("index-everything built no cold-column entries: the comparison is vacuous")
	}
	if all.maintRequests < 2*ad.maintRequests {
		t.Errorf("maintenance requests: adaptive %d, index-everything %d; want at least 2x fewer", ad.maintRequests, all.maintRequests)
	}
	for _, q := range []float64{0.50, 0.99} {
		// 2 s while a file's lag was recorded by the observation of the
		// step after the job that covered it, a tick later; the job
		// records it at its commit.
		if got, want := obs.Quantile(ad.hotLags, q), time.Second; got < want*8/10 || got > want*12/10 {
			t.Errorf("adaptive hot-lag p%.0f = %v, want %v ± 20%%", 100*q, got, want)
		}
		if got, base := obs.Quantile(ad.steadyLats, q), obs.Quantile(all.steadyLats, q); float64(got) > 1.10*float64(base) {
			t.Errorf("adaptive query p%.0f = %v, above 1.10x index-everything's %v", 100*q, got, base)
		}
	}
	if got, base := obs.Quantile(ad.hotLags, 0.50), obs.Quantile(all.hotLags, 0.50); got > base {
		t.Errorf("adaptive hot-lag p50 = %v, worse than index-everything's %v", got, base)
	}
}
