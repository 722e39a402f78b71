package bench

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"rottnest/internal/adaptive"
	"rottnest/internal/component"
	"rottnest/internal/core"
	"rottnest/internal/ingest"
	"rottnest/internal/obs"
	"rottnest/internal/parquet"
	"rottnest/internal/simtime"
	"rottnest/internal/workload"
)

// AdaptiveResult reports the workload-adaptive maintenance experiment.
//
// A partitioned stream (ts identifies the partition) ingests
// continuously while a Zipf-skewed query mix hammers partition 0's id
// keys and never touches the two wide text columns (`note`, `tag`) at
// all — the classic lake shape: a handful of hot lookup columns
// beside bulky payload columns nobody searches. Three maintenance
// regimes run the identical stream and query schedule on identical
// worlds:
//
//   - adaptive: the heat ledger taps the query stream, index jobs
//     chase hot files first, and the TCO autopilot demotes the
//     never-queried columns to the scan path — so their FM indexes
//     (the expensive ones: every build reads the whole column) are
//     simply never built.
//   - index_all: the static scheduler keeps every spec fresh (the
//     index-everything default of PR 9).
//   - scan_only: no maintenance at all; every query brute-scans.
//
// Maintenance cost is the scheduler's own ingest.job_requests meter:
// the store requests its jobs (and the autopilot's refreshes) issue,
// with the daemon's fixed-cadence observation polling reported
// separately. Searchable lag is the scheduler's exact per-file
// measurement — restricted here to the hot partition's files, the
// data the workload actually reads.
type AdaptiveResult struct {
	Rounds          int `json:"rounds"`
	Partitions      int `json:"partitions"`
	RowsPerBatch    int `json:"rows_per_batch"`
	QueriesPerRound int `json:"queries_per_round"`

	// Store requests issued by maintenance jobs (index/compact/vacuum
	// builds and the autopilot's refreshes — the scheduler's own
	// ingest.job_requests meter) to reach full steady state.
	AdaptiveMaintRequests int64   `json:"adaptive_maint_requests"`
	IndexAllMaintRequests int64   `json:"index_all_maint_requests"`
	MaintRequestReduction float64 `json:"maint_request_reduction"`

	// The same bills with the daemon's observation polling included
	// (polling is per-tick and regime-independent, so it dilutes the
	// ratio but is reported for transparency).
	AdaptiveTotalRequests int64 `json:"adaptive_total_requests"`
	IndexAllTotalRequests int64 `json:"index_all_total_requests"`

	// Index entries built for the never-queried column.
	AdaptiveColdEntries int `json:"adaptive_cold_index_entries"`
	IndexAllColdEntries int `json:"index_all_cold_index_entries"`

	// Searchable lag of the hot partition's files (ack → covered).
	AdaptiveHotLagP50 time.Duration `json:"adaptive_hot_lag_p50_ns"`
	AdaptiveHotLagP99 time.Duration `json:"adaptive_hot_lag_p99_ns"`
	IndexAllHotLagP50 time.Duration `json:"index_all_hot_lag_p50_ns"`
	IndexAllHotLagP99 time.Duration `json:"index_all_hot_lag_p99_ns"`

	// Steady-state foreground query latency (virtual): the Zipf mix
	// re-run once every regime's maintenance has fully drained, so the
	// regimes are compared at their own converged index states.
	AdaptiveQueryP50 time.Duration `json:"adaptive_query_p50_ns"`
	AdaptiveQueryP99 time.Duration `json:"adaptive_query_p99_ns"`
	IndexAllQueryP50 time.Duration `json:"index_all_query_p50_ns"`
	IndexAllQueryP99 time.Duration `json:"index_all_query_p99_ns"`
	ScanQueryP50     time.Duration `json:"scan_query_p50_ns"`
	ScanQueryP99     time.Duration `json:"scan_query_p99_ns"`

	// Mid-stream query latency, measured while ingest and maintenance
	// race (reported for context; freshness differences dominate it —
	// the regime with *better* hot coverage pays probe depth where the
	// stale one scans).
	AdaptiveStreamQueryP50 time.Duration `json:"adaptive_stream_query_p50_ns"`
	IndexAllStreamQueryP50 time.Duration `json:"index_all_stream_query_p50_ns"`
}

// adaptiveColdCols are the wide payload columns nobody searches. A
// real lake table carries many of these beside its few hot lookup
// keys; index-everything pays a build for every one of them.
var adaptiveColdCols = []string{"note", "tag", "meta", "raw"}

var adaptiveSchema = parquet.MustSchema(
	parquet.Column{Name: "ts", Type: parquet.TypeInt64},
	parquet.Column{Name: "id", Type: parquet.TypeFixedLenByteArray, TypeLen: 16},
	parquet.Column{Name: "note", Type: parquet.TypeByteArray},
	parquet.Column{Name: "tag", Type: parquet.TypeByteArray},
	parquet.Column{Name: "meta", Type: parquet.TypeByteArray},
	parquet.Column{Name: "raw", Type: parquet.TypeByteArray},
)

// adaptivePayloadBytes sizes the cold text columns: wide enough that
// an FM build reads many pages per file, the way real payload columns
// dwarf the 16-byte keys beside them.
const adaptivePayloadBytes = 512

// adaptivePayload builds one cold-column value: a unique header
// padded with filler to adaptivePayloadBytes.
func adaptivePayload(col string, round, part, row int) []byte {
	v := make([]byte, 0, adaptivePayloadBytes)
	v = append(v, fmt.Sprintf("%s-%d-%d-%d ", col, round, part, row)...)
	for i := 0; len(v) < adaptivePayloadBytes; i++ {
		v = append(v, byte('a'+(i+round*31+part*7+row)%26))
	}
	return v
}

// adaptiveMode selects the maintenance regime of one pass.
type adaptiveMode int

const (
	passAdaptive adaptiveMode = iota
	passIndexAll
	passScan
)

// adaptivePassResult is what one regime measured.
type adaptivePassResult struct {
	maintRequests int64 // job-issued store requests (ingest.job_requests)
	totalRequests int64 // everything the maintenance loop touched, polling included
	hotLags       []time.Duration
	streamLats    []time.Duration // queries racing ingest+maintenance
	steadyLats    []time.Duration // queries after the final drain
	coldEntries   int
	jobsIndex     int64
	jobsCompact   int64
	jobsVacuum    int64
}

// clientRequests sums the store request counters visible to the
// client — the same accounting the scheduler's budget uses.
func clientRequests(c *core.Client) int64 {
	m := c.Metrics()
	return m.Counter("store.gets") + m.Counter("store.puts") +
		m.Counter("store.lists") + m.Counter("store.deletes") + m.Counter("store.heads")
}

// adaptivePass runs the shared stream and query schedule under one
// maintenance regime.
func adaptivePass(o Options, rounds, partitions, rowsPerBatch, queriesPerRound int, mode adaptiveMode) (*adaptivePassResult, error) {
	ctx := context.Background()
	w, err := newWorld(adaptiveSchema)
	if err != nil {
		return nil, err
	}
	gen := workload.NewUUIDGen(o.Seed)
	rng := rand.New(rand.NewSource(o.Seed + 11))
	zipf := rand.NewZipf(rng, 1.4, 1, uint64(partitions-1))
	// Each partition's per-round rows land as several small data files
	// (MaxBatchRows seals them), so per-file maintenance work — build
	// reads, index commits, coverage bookkeeping — dominates the bill
	// the way it does on a real lake of many objects.
	const fileRows = 64
	filesPerPart := rowsPerBatch / fileRows
	writer := ingest.NewWriter(w.table, ingest.WriterOptions{
		MaxBatchRows:       fileRows,
		GroupCommitBatches: partitions * filesPerPart,
		Parquet:            parquet.WriterOptions{RowGroupRows: 512, PageBytes: 4 << 10},
		Clock:              w.clock,
		Manual:             true,
	})
	specs := []core.IndexSpec{{Column: "id", Kind: component.KindTrie}}
	for _, col := range adaptiveColdCols {
		specs = append(specs, core.IndexSpec{Column: col, Kind: component.KindFM})
	}
	coveredLag := make(map[string]time.Duration)
	var sched *ingest.Scheduler
	if mode != passScan {
		sopts := ingest.SchedulerOptions{
			Client:         w.client,
			Writer:         writer,
			Specs:          specs,
			Clock:          w.clock,
			RequestsPerSec: 60,
			// Compact early: with many small per-round files, probe cost
			// tracks entry count, so both regimes merge aggressively.
			Policy:    core.MaintainPolicy{CompactWhenEntries: 4},
			OnCovered: func(path string, _ int64, lag time.Duration) { coveredLag[path] = lag },
		}
		if mode == passAdaptive {
			ledger := adaptive.NewLedger(adaptive.LedgerOptions{HalfLife: 30 * time.Second, Clock: w.clock})
			w.client.SetHeatObserver(ledger)
			rowBytes := len(adaptiveColdCols)*adaptivePayloadBytes + 24
			pilot := adaptive.NewAutopilot(w.client, ledger, specs, adaptive.AutopilotOptions{
				RefreshEvery: 10 * time.Second,
				Clock:        w.clock,
				// Bridge the laptop-scale lake to the paper's UUID
				// corpus, as every TCO figure does, so the phase diagram
				// is evaluated at deployment scale.
				ScaleFactor: PaperUUIDBytes / float64(rounds*partitions*rowsPerBatch*rowBytes),
			})
			sopts.Adaptive = adaptive.NewPolicy(adaptive.PolicyOptions{
				Ledger: ledger,
				Pilot:  pilot,
				Client: w.client,
			})
		}
		sched = ingest.NewScheduler(w.table, sopts)
	}

	res := &adaptivePassResult{}
	keysByPart := make([][][16]byte, partitions)
	// One Zipf-drawn point lookup with the partition filter that
	// concentrates heat: partition 0 dominates the draw.
	zipfQuery := func() (time.Duration, error) {
		p := int(zipf.Uint64())
		ks := keysByPart[p]
		k := ks[rng.Intn(len(ks))]
		session := simtime.NewSession()
		r, err := w.client.Search(simtime.With(ctx, session), core.Query{
			Column: "id", UUID: &k, K: 10, Snapshot: -1,
			Partition: &core.PartitionFilter{Column: "ts", Min: int64(p), Max: int64(p)},
		})
		if err != nil {
			return 0, err
		}
		if len(r.Matches) != 1 {
			return 0, fmt.Errorf("adaptive bench: key matched %d times", len(r.Matches))
		}
		return r.Stats.Latency, nil
	}
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
					k := ks[i]
					ts[i] = int64(p)
					ids[i] = k[:]
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
				if _, err := writer.Append(sctx, b); err != nil {
					return nil, err
				}
			}
		}
		if err := writer.Flush(sctx); err != nil {
			return nil, err
		}

		// The Zipf query mix: partition 0 takes the bulk of the reads,
		// the cold payload columns take none. Queries run before the
		// round's maintenance, so the heat observed here steers the
		// jobs that follow — the adaptive loop's intended causality.
		for q := 0; q < queriesPerRound; q++ {
			lat, err := zipfQuery()
			if err != nil {
				return nil, err
			}
			res.streamLats = append(res.streamLats, lat)
		}

		// Budgeted maintenance: fixed virtual ticks per round, one
		// scheduling decision each — the paced daemon cadence, not a
		// drain-the-world loop. Every store request between the marks
		// is maintenance by construction (the stream and the queries
		// are quiet here); whatever backlog the budget leaves is paid
		// by the final drain below, so totals compare full bills.
		if sched != nil {
			before := clientRequests(w.client)
			for tick := 0; tick < 3; tick++ {
				w.clock.Advance(time.Second)
				if _, err := sched.Step(ctx); err != nil {
					return nil, err
				}
			}
			res.totalRequests += clientRequests(w.client) - before
		} else {
			w.clock.Advance(3 * time.Second)
		}
	}

	// Drain to steady state: the backlog a regime still owes is part
	// of its total maintenance bill.
	if sched != nil {
		before := clientRequests(w.client)
		w.clock.Advance(time.Second)
		if err := sched.Quiesce(ctx); err != nil {
			return nil, err
		}
		res.totalRequests += clientRequests(w.client) - before
	}
	if err := writer.Close(ctx); err != nil {
		return nil, err
	}

	// Steady-state latency: the same Zipf mix once every regime has
	// converged to its own final index state — full coverage for the
	// maintained specs, pure scans for scan_only and demoted columns.
	for q := 0; q < 3*queriesPerRound; q++ {
		lat, err := zipfQuery()
		if err != nil {
			return nil, err
		}
		res.steadyLats = append(res.steadyLats, lat)
	}

	// Hot-partition lag: files whose ts stats pin them to partition 0.
	snap, err := w.table.Snapshot(ctx)
	if err != nil {
		return nil, err
	}
	for _, f := range snap.Files {
		s, ok := f.Stats["ts"]
		if !ok || len(s.Min) == 0 || parquet.DecodeOrderableInt64(s.Min) != 0 {
			continue
		}
		if lag, ok := coveredLag[f.Path]; ok {
			res.hotLags = append(res.hotLags, lag)
		}
	}

	for _, col := range adaptiveColdCols {
		cold, err := w.client.ListIndexes(ctx, col, component.KindFM)
		if err != nil {
			return nil, err
		}
		res.coldEntries += len(cold)
	}
	if sched != nil {
		reg := sched.Registry().Snapshot()
		res.maintRequests = reg.Counter("ingest.job_requests")
		res.jobsIndex = reg.Counter("ingest.jobs_index")
		res.jobsCompact = reg.Counter("ingest.jobs_compact")
		res.jobsVacuum = reg.Counter("ingest.jobs_vacuum")
	}
	return res, nil
}

// Adaptive runs the three regimes and prints the comparison table.
func Adaptive(o Options) (*AdaptiveResult, error) {
	res := &AdaptiveResult{
		Rounds:          o.scaleInt(8, 5),
		Partitions:      4,
		RowsPerBatch:    384,
		QueriesPerRound: 6,
	}
	out := o.out()
	run := func(mode adaptiveMode) (*adaptivePassResult, error) {
		return adaptivePass(o, res.Rounds, res.Partitions, res.RowsPerBatch, res.QueriesPerRound, mode)
	}
	ad, err := run(passAdaptive)
	if err != nil {
		return nil, err
	}
	all, err := run(passIndexAll)
	if err != nil {
		return nil, err
	}
	scan, err := run(passScan)
	if err != nil {
		return nil, err
	}

	res.AdaptiveMaintRequests = ad.maintRequests
	res.IndexAllMaintRequests = all.maintRequests
	if ad.maintRequests > 0 {
		res.MaintRequestReduction = float64(all.maintRequests) / float64(ad.maintRequests)
	}
	res.AdaptiveTotalRequests = ad.totalRequests
	res.IndexAllTotalRequests = all.totalRequests
	res.AdaptiveColdEntries = ad.coldEntries
	res.IndexAllColdEntries = all.coldEntries
	res.AdaptiveHotLagP50 = obs.Quantile(ad.hotLags, 0.50)
	res.AdaptiveHotLagP99 = obs.Quantile(ad.hotLags, 0.99)
	res.IndexAllHotLagP50 = obs.Quantile(all.hotLags, 0.50)
	res.IndexAllHotLagP99 = obs.Quantile(all.hotLags, 0.99)
	res.AdaptiveQueryP50 = obs.Quantile(ad.steadyLats, 0.50)
	res.AdaptiveQueryP99 = obs.Quantile(ad.steadyLats, 0.99)
	res.IndexAllQueryP50 = obs.Quantile(all.steadyLats, 0.50)
	res.IndexAllQueryP99 = obs.Quantile(all.steadyLats, 0.99)
	res.ScanQueryP50 = obs.Quantile(scan.steadyLats, 0.50)
	res.ScanQueryP99 = obs.Quantile(scan.steadyLats, 0.99)
	res.AdaptiveStreamQueryP50 = obs.Quantile(ad.streamLats, 0.50)
	res.IndexAllStreamQueryP50 = obs.Quantile(all.streamLats, 0.50)

	fmt.Fprintf(out, "Workload-adaptive maintenance: %d rounds x %d partitions x %d rows, Zipf queries on partition 0\n",
		res.Rounds, res.Partitions, res.RowsPerBatch)
	fmt.Fprintf(out, "%-26s %12s %12s %12s\n", "", "adaptive", "index_all", "scan_only")
	fmt.Fprintf(out, "%-26s %12d %12d %12d\n", "job store-requests",
		res.AdaptiveMaintRequests, res.IndexAllMaintRequests, 0)
	fmt.Fprintf(out, "%-26s %12d %12d %12d\n", "incl. observation polling",
		res.AdaptiveTotalRequests, res.IndexAllTotalRequests, 0)
	fmt.Fprintf(out, "%-26s %12d %12d %12s\n", "cold-column index entries",
		res.AdaptiveColdEntries, res.IndexAllColdEntries, "-")
	fmt.Fprintf(out, "%-26s %5d/%2d/%2d %6d/%2d/%2d %12s\n", "jobs index/compact/vacuum",
		ad.jobsIndex, ad.jobsCompact, ad.jobsVacuum,
		all.jobsIndex, all.jobsCompact, all.jobsVacuum, "-")
	fmt.Fprintf(out, "%-26s %12v %12v %12s\n", "hot searchable-lag p50",
		res.AdaptiveHotLagP50.Round(time.Millisecond), res.IndexAllHotLagP50.Round(time.Millisecond), "-")
	fmt.Fprintf(out, "%-26s %12v %12v %12v\n", "steady query p50",
		res.AdaptiveQueryP50.Round(time.Millisecond), res.IndexAllQueryP50.Round(time.Millisecond),
		res.ScanQueryP50.Round(time.Millisecond))
	fmt.Fprintf(out, "%-26s %12v %12v %12v\n", "steady query p99",
		res.AdaptiveQueryP99.Round(time.Millisecond), res.IndexAllQueryP99.Round(time.Millisecond),
		res.ScanQueryP99.Round(time.Millisecond))
	fmt.Fprintf(out, "%-26s %12v %12v %12s\n", "mid-stream query p50",
		res.AdaptiveStreamQueryP50.Round(time.Millisecond), res.IndexAllStreamQueryP50.Round(time.Millisecond), "-")
	fmt.Fprintf(out, "maintenance-request reduction: %.1fx\n", res.MaintRequestReduction)
	return res, nil
}
