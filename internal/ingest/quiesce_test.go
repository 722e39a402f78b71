package ingest

import (
	"context"
	"fmt"
	"testing"
	"time"

	"rottnest/internal/component"
	"rottnest/internal/core"
	"rottnest/internal/lake"
	"rottnest/internal/objectstore"
	"rottnest/internal/parquet"
	"rottnest/internal/simtime"
	"rottnest/internal/workload"
)

// quiesceWithin runs Quiesce and fails the test, rather than hanging
// it, if Quiesce is still stepping after d.
func quiesceWithin(t *testing.T, ctx context.Context, s *Scheduler, d time.Duration) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- s.Quiesce(ctx) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(d):
		t.Fatalf("Quiesce is still stepping after %v (jobs_compact %d)", d,
			s.Registry().Snapshot().Counter("ingest.jobs_compact"))
	}
}

// jobCounts reads the index, compact and vacuum job counters.
func jobCounts(s *Scheduler) [3]int64 {
	m := s.Registry().Snapshot()
	return [3]int64{m.Counter("ingest.jobs_index"), m.Counter("ingest.jobs_compact"), m.Counter("ingest.jobs_vacuum")}
}

// TestQuiesceRunsTheFullLoop walks the paper's maintenance loop
// through Quiesce: one index job per batch, compaction once a third
// index file trips the threshold, a vacuum that leaves the merged file
// alone, then a steady state that runs no job — with every row
// searchable throughout.
func TestQuiesceRunsTheFullLoop(t *testing.T) {
	ctx := context.Background()
	w, s, clock := schedWorld(t, SchedulerOptions{
		Policy: core.MaintainPolicy{CompactWhenEntries: 3},
	})
	want := [3]int64{}
	for batch := 0; batch < 3; batch++ {
		ingestRows(t, ctx, w, fmt.Sprintf("batch%d", batch), 4)
		want[0]++
		if batch == 2 {
			clock.Advance(2 * time.Hour) // age earlier index files past the timeout
			want[1], want[2] = 1, 1
		}
		quiesceWithin(t, ctx, s, 30*time.Second)
		if got := jobCounts(s); got != want {
			t.Fatalf("after batch %d: index/compact/vacuum jobs = %v, want %v", batch, got, want)
		}
	}
	statuses, err := s.cli.Status(ctx)
	if err != nil || len(statuses) != 1 || statuses[0].Entries != 1 {
		t.Fatalf("status after vacuum = %+v, %v; want one entry kept", statuses, err)
	}

	// Steady state: nothing to do, no spurious work.
	quiesceWithin(t, ctx, s, 30*time.Second)
	if got := jobCounts(s); got != want {
		t.Fatalf("steady state: index/compact/vacuum jobs = %v, want %v", got, want)
	}

	for batch := 0; batch < 3; batch++ {
		for row := 0; row < 4; row++ {
			msg := fmt.Sprintf("batch%d-%d", batch, row)
			res, err := s.cli.Search(ctx, core.Query{Column: "msg", Substring: []byte(msg), Snapshot: -1})
			if err != nil || len(res.Matches) != 1 {
				t.Fatalf("%s: %d matches, %v", msg, len(res.Matches), err)
			}
		}
	}
	if err := s.cli.CheckExistence(ctx); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestQuiesceToleratesBelowMinVectors: too few new rows for an IVF-PQ
// index is no job and no error; once enough rows land, one index job
// runs.
func TestQuiesceToleratesBelowMinVectors(t *testing.T) {
	ctx := context.Background()
	const dim = 8
	clock := simtime.NewVirtualClock()
	schema := parquet.MustSchema(parquet.Column{Name: "emb", Type: parquet.TypeFixedLenByteArray, TypeLen: 4 * dim})
	tbl, err := lake.CreateWith(ctx, objectstore.NewMemStore(clock), "tbl", schema, lake.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s := NewScheduler(tbl, SchedulerOptions{
		Config: core.Config{IndexDir: "idx", MinVectorRows: 500},
		Specs:  []core.IndexSpec{{Column: "emb", Kind: component.KindIVFPQ}},
	})
	gen := workload.NewVectorGen(workload.VectorConfig{Seed: 72, Dim: dim, Clusters: 4})
	appendVectors := func(n int) {
		b := parquet.NewBatch(schema)
		vals := make([][]byte, n)
		for i, v := range gen.Batch(n) {
			vals[i] = workload.Float32sToBytes(v)
		}
		b.Cols[0] = parquet.ColumnValues{Bytes: vals}
		if _, err := tbl.Append(ctx, b, parquet.WriterOptions{}); err != nil {
			t.Fatal(err)
		}
	}

	appendVectors(100)
	quiesceWithin(t, ctx, s, 30*time.Second)
	if got := jobCounts(s); got != [3]int64{} {
		t.Fatalf("below MinVectorRows: index/compact/vacuum jobs = %v, want none", got)
	}
	appendVectors(500)
	quiesceWithin(t, ctx, s, 30*time.Second)
	if got := jobCounts(s); got != [3]int64{1, 0, 0} {
		t.Fatalf("with enough rows: index/compact/vacuum jobs = %v, want one index job", got)
	}
}

// TestQuiesceEndsWhenCompactionMergesNothing: a compaction that can
// merge nothing — every candidate at or above SmallerThanBytes, or
// MaxBinEntries leaving only single-entry bins — is no progress, so
// Quiesce returns instead of compacting forever.
func TestQuiesceEndsWhenCompactionMergesNothing(t *testing.T) {
	for name, opts := range map[string]core.CompactOptions{
		"singleton bins":   {MaxBinEntries: 1},
		"no small entries": {SmallerThanBytes: 1},
	} {
		t.Run(name, func(t *testing.T) {
			ctx := context.Background()
			w, s, _ := schedWorld(t, SchedulerOptions{
				Policy: core.MaintainPolicy{CompactWhenEntries: 2, Compact: opts},
			})
			for batch := 0; batch < 2; batch++ {
				ingestRows(t, ctx, w, fmt.Sprintf("batch%d", batch), 2)
				quiesceWithin(t, ctx, s, 10*time.Second)
			}
			if got := jobCounts(s); got != [3]int64{2, 0, 0} {
				t.Fatalf("index/compact/vacuum jobs = %v, want two index jobs and nothing else", got)
			}
			if err := w.Close(ctx); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestQuiesceCompactAtOneCompactsOnce: a threshold of 1 acts as 2 —
// a lone index file is left alone, two are merged once and the
// superseded pair is vacuumed, rather than the merge output being
// merged again on every step.
func TestQuiesceCompactAtOneCompactsOnce(t *testing.T) {
	ctx := context.Background()
	w, s, clock := schedWorld(t, SchedulerOptions{
		Policy: core.MaintainPolicy{CompactWhenEntries: 1},
	})
	ingestRows(t, ctx, w, "batch0", 2)
	quiesceWithin(t, ctx, s, 10*time.Second)
	if got := jobCounts(s); got != [3]int64{1, 0, 0} {
		t.Fatalf("one index file: index/compact/vacuum jobs = %v, want one index job", got)
	}
	ingestRows(t, ctx, w, "batch1", 2)
	clock.Advance(2 * time.Hour) // age the first index file past the timeout
	quiesceWithin(t, ctx, s, 10*time.Second)
	if got := jobCounts(s); got != [3]int64{2, 1, 1} {
		t.Fatalf("two index files: index/compact/vacuum jobs = %v, want 2, 1, 1", got)
	}
	if err := w.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestQuiesceGoesPastAStalledSpec: an IVF-PQ spec stalled below
// MinVectorRows defers its index job, and the same Quiesce goes on to
// index, compact and vacuum the other spec. The stalled spec comes
// first, so the static picker tries it first.
func TestQuiesceGoesPastAStalledSpec(t *testing.T) {
	ctx := context.Background()
	const dim = 8
	clock := simtime.NewVirtualClock()
	schema := parquet.MustSchema(
		parquet.Column{Name: "emb", Type: parquet.TypeFixedLenByteArray, TypeLen: 4 * dim},
		parquet.Column{Name: "msg", Type: parquet.TypeByteArray},
	)
	tbl, err := lake.CreateWith(ctx, objectstore.NewMemStore(clock), "tbl", schema, lake.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s := NewScheduler(tbl, SchedulerOptions{
		Config: core.Config{IndexDir: "idx", MinVectorRows: 500},
		Specs: []core.IndexSpec{
			{Column: "emb", Kind: component.KindIVFPQ},
			{Column: "msg", Kind: component.KindFM},
		},
		Policy: core.MaintainPolicy{CompactWhenEntries: 2},
	})
	gen := workload.NewVectorGen(workload.VectorConfig{Seed: 72, Dim: dim, Clusters: 4})
	for batch, want := range [][3]int64{{1, 0, 0}, {2, 1, 1}} {
		b := parquet.NewBatch(schema)
		vecs, msgs := make([][]byte, 10), make([][]byte, 10)
		for i, v := range gen.Batch(10) {
			vecs[i] = workload.Float32sToBytes(v)
			msgs[i] = []byte(fmt.Sprintf("batch%d-%d", batch, i))
		}
		b.Cols[0] = parquet.ColumnValues{Bytes: vecs}
		b.Cols[1] = parquet.ColumnValues{Bytes: msgs}
		if _, err := tbl.Append(ctx, b, parquet.WriterOptions{}); err != nil {
			t.Fatal(err)
		}
		clock.Advance(2 * time.Hour) // age earlier index files past the timeout
		quiesceWithin(t, ctx, s, 30*time.Second)
		if got := jobCounts(s); got != want {
			t.Fatalf("after batch %d: index/compact/vacuum jobs = %v, want %v", batch, got, want)
		}
	}
	statuses, err := s.cli.Status(ctx)
	if err != nil || len(statuses) != 1 || statuses[0].Column != "msg" || statuses[0].Entries != 1 || statuses[0].UnindexedFiles != 0 {
		t.Fatalf("status = %+v, %v; want one msg entry covering every file and no emb index", statuses, err)
	}
}

// TestQuiesceCoversAnEmptyFile: a data file of zero rows is a file
// like any other to the FM index job, so maintenance over a lake whose
// only uncovered file is empty converges — one index job covers it —
// instead of failing every step.
func TestQuiesceCoversAnEmptyFile(t *testing.T) {
	ctx := context.Background()
	w, s, _ := schedWorld(t, SchedulerOptions{})
	if _, err := w.table.Append(ctx, parquet.NewBatch(testSchema), parquet.WriterOptions{}); err != nil {
		t.Fatal(err)
	}
	quiesceWithin(t, ctx, s, 30*time.Second)
	if got := jobCounts(s); got != [3]int64{1, 0, 0} {
		t.Fatalf("index/compact/vacuum jobs = %v, want one index job", got)
	}
	statuses, err := s.cli.Status(ctx)
	if err != nil || len(statuses) != 1 || statuses[0].CoveredFiles != 1 || statuses[0].UnindexedFiles != 0 {
		t.Fatalf("status = %+v, %v; want the empty file covered", statuses, err)
	}
}

// TestQuiesceStallsOneSpecOfAJob: one index job over a trie, an FM and
// an IVF-PQ spec whose new rows are below MinVectorRows commits the
// trie and FM rows and stalls the IVF-PQ spec alone, at that snapshot;
// the steps that follow run no index job until the snapshot changes,
// and then one job indexes every spec again, the stalled one over both
// files.
func TestQuiesceStallsOneSpecOfAJob(t *testing.T) {
	ctx := context.Background()
	clock := simtime.NewVirtualClock()
	tbl, err := lake.CreateWith(ctx, objectstore.NewMemStore(clock), "tbl", specsSchema, lake.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s := NewScheduler(tbl, SchedulerOptions{
		Config: core.Config{IndexDir: "idx", MinVectorRows: 500},
		Specs:  threeSpecs,
	})
	entriesBy := func() map[string][]int {
		t.Helper()
		entries, err := s.cli.Meta().List(ctx)
		if err != nil {
			t.Fatal(err)
		}
		by := make(map[string][]int)
		for _, e := range entries {
			by[e.Column] = append(by[e.Column], len(e.Files))
		}
		return by
	}

	if _, err := tbl.Append(ctx, specsRows(1, "small", 10), parquet.WriterOptions{}); err != nil {
		t.Fatal(err)
	}
	version, err := tbl.Version(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if worked, err := s.Step(ctx); err != nil || !worked {
		t.Fatalf("step: worked=%v err=%v, want the trie and FM rows committed", worked, err)
	}
	if got := entriesBy(); len(got["id"]) != 1 || len(got["msg"]) != 1 || len(got["emb"]) != 0 {
		t.Fatalf("rows after the first job = %v, want one id and one msg row, no emb row", got)
	}
	if s.stalled[2] != version || len(s.stalled) != 1 {
		t.Fatalf("stalled = %v, want only emb, at version %d", s.stalled, version)
	}
	quiesceWithin(t, ctx, s, 30*time.Second)
	if got := jobCounts(s); got != [3]int64{1, 0, 0} {
		t.Fatalf("at the stalled snapshot: index/compact/vacuum jobs = %v, want the one job", got)
	}

	if _, err := tbl.Append(ctx, specsRows(2, "large", 600), parquet.WriterOptions{}); err != nil {
		t.Fatal(err)
	}
	quiesceWithin(t, ctx, s, 30*time.Second)
	if got := jobCounts(s); got != [3]int64{2, 0, 0} {
		t.Fatalf("after the snapshot changed: index/compact/vacuum jobs = %v, want one more index job", got)
	}
	if got := entriesBy(); len(got["id"]) != 2 || len(got["msg"]) != 2 || len(got["emb"]) != 1 || got["emb"][0] != 2 {
		t.Fatalf("rows = %v, want two id and two msg rows, and one emb row over both files", got)
	}
	if err := s.cli.CheckExistence(ctx); err != nil {
		t.Fatal(err)
	}
}
