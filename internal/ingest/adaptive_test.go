package ingest

import (
	"context"
	"fmt"
	"testing"
	"time"

	"rottnest/internal/adaptive"
	"rottnest/internal/component"
	"rottnest/internal/core"
	"rottnest/internal/lake"
	"rottnest/internal/objectstore"
	"rottnest/internal/parquet"
	"rottnest/internal/simtime"
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
	tbl, err := lake.CreateWith(ctx, stack, "tbl", twoColSchema, lake.OpenOptions{Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	cli := core.NewClient(tbl, core.Config{IndexDir: "idx", Clock: clock})
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
		Clock:           clock,
	})
	policy := adaptive.NewPolicy(adaptive.PolicyOptions{Ledger: ledger, Pilot: pilot, Client: cli})
	w := NewWriter(tbl, WriterOptions{MaxBatchRows: 2, Clock: clock, Manual: true})
	s := NewScheduler(tbl, SchedulerOptions{
		Client:   cli,
		Writer:   w,
		Specs:    specs,
		Clock:    clock,
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
