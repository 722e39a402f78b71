package bench

import (
	"context"
	"fmt"
	"sort"
	"time"

	"rottnest/internal/component"
	"rottnest/internal/core"
	"rottnest/internal/ingest"
	"rottnest/internal/parquet"
	"rottnest/internal/simtime"
	"rottnest/internal/workload"
)

// IngestResult reports the continuous-ingestion experiment.
//
// Phase A (amortization): P producers each commit B micro-batches,
// once through per-batch lake appends (one conditional PUT per batch)
// and once through the group-commit writer (one conditional PUT per
// group of up to P batches). Commit rounds are counted exactly as lake
// version advances, so the reduction is the paper-level claim: group
// commit divides the log's conditional-PUT rate by the group size.
//
// Phase B (freshness): the same stream runs beside the budgeted
// maintenance scheduler; every committed file's searchable lag (ack →
// covered by the index, in virtual time) is recorded exactly via the
// scheduler's OnCovered hook, and foreground queries run against the
// latest snapshot throughout.
type IngestResult struct {
	Producers          int `json:"producers"`
	BatchesPerProducer int `json:"batches_per_producer"`
	RowsPerBatch       int `json:"rows_per_batch"`

	// Commit rounds (== conditional PUTs on the log) per ingest mode.
	BaselineCommitRounds int64   `json:"baseline_commit_rounds"`
	GroupedCommitRounds  int64   `json:"grouped_commit_rounds"`
	PutReduction         float64 `json:"put_reduction"`

	// Ingest throughput in batches per virtual second.
	BaselineIngestQPS float64 `json:"baseline_ingest_qps"`
	GroupedIngestQPS  float64 `json:"grouped_ingest_qps"`

	// Store requests per acked batch of the grouped stream, through the
	// writer's long-lived table handle: the group's file PUTs and one
	// conditional PUT, and no read of the log. benchgate holds the
	// three to "may not grow".
	AckLists float64 `json:"ack_lists"`
	AckGets  float64 `json:"ack_gets"`
	AckPuts  float64 `json:"ack_puts"`

	// Freshness under concurrent maintenance (phase B).
	RowsIngested int64         `json:"rows_ingested"`
	LagSamples   int           `json:"lag_samples"`
	LagP50       time.Duration `json:"searchable_lag_p50_ns"`
	LagP99       time.Duration `json:"searchable_lag_p99_ns"`
	QueryQPS     float64       `json:"query_qps"`
}

// ingestBatch builds one producer micro-batch of uuid rows.
func ingestBatch(gen *workload.UUIDGen, rows int) (*parquet.Batch, [][16]byte) {
	ks := gen.Batch(rows)
	b := parquet.NewBatch(uuidSchema)
	ids := make([][]byte, rows)
	for i := range ks {
		k := ks[i]
		ids[i] = k[:]
	}
	b.Cols[0] = parquet.ColumnValues{Bytes: ids}
	return b, ks
}

// Ingest runs both phases and prints the comparison table.
func Ingest(o Options) (*IngestResult, error) {
	ctx := context.Background()
	out := o.out()
	res := &IngestResult{
		Producers:          8,
		BatchesPerProducer: o.scaleInt(16, 6),
		RowsPerBatch:       128,
	}
	totalBatches := res.Producers * res.BatchesPerProducer

	// Phase A baseline: one lake append (one commit round) per batch.
	base, err := newWorld(uuidSchema, core.Config{})
	if err != nil {
		return nil, err
	}
	gen := workload.NewUUIDGen(o.Seed)
	before, err := base.table.Version(ctx)
	if err != nil {
		return nil, err
	}
	var baseTime time.Duration
	for i := 0; i < totalBatches; i++ {
		b, _ := ingestBatch(gen, res.RowsPerBatch)
		session := simtime.NewSession()
		if _, err := base.table.Append(simtime.With(ctx, session), b, parquet.WriterOptions{}); err != nil {
			return nil, err
		}
		baseTime += session.Elapsed()
	}
	after, err := base.table.Version(ctx)
	if err != nil {
		return nil, err
	}
	res.BaselineCommitRounds = after - before

	// Phase A grouped: the same stream through the writer, producers
	// interleaving round-robin so every flush finds a full group. The
	// writer is in manual mode: grouping is exact, not racy.
	grouped, err := newWorld(uuidSchema, core.Config{})
	if err != nil {
		return nil, err
	}
	gen = workload.NewUUIDGen(o.Seed)
	w := ingest.NewWriter(grouped.table, ingest.WriterOptions{
		MaxBatchRows:       res.RowsPerBatch,
		GroupCommitBatches: res.Producers,
		Clock:              grouped.clock,
		Manual:             true,
	})
	before, err = grouped.table.Version(ctx)
	if err != nil {
		return nil, err
	}
	var groupTime time.Duration
	ackBefore := grouped.metrics.Snapshot()
	for round := 0; round < res.BatchesPerProducer; round++ {
		session := simtime.NewSession()
		sctx := simtime.With(ctx, session)
		for p := 0; p < res.Producers; p++ {
			b, _ := ingestBatch(gen, res.RowsPerBatch)
			if _, err := w.Append(sctx, b); err != nil {
				return nil, err
			}
		}
		if err := w.Flush(sctx); err != nil {
			return nil, err
		}
		groupTime += session.Elapsed()
	}
	acked := grouped.metrics.Snapshot().Sub(ackBefore)
	res.AckLists = float64(acked.Lists) / float64(totalBatches)
	res.AckGets = float64(acked.Gets) / float64(totalBatches)
	res.AckPuts = float64(acked.Puts) / float64(totalBatches)
	after, err = grouped.table.Version(ctx)
	if err != nil {
		return nil, err
	}
	if err := w.Close(ctx); err != nil {
		return nil, err
	}
	res.GroupedCommitRounds = after - before
	if res.GroupedCommitRounds > 0 {
		res.PutReduction = float64(res.BaselineCommitRounds) / float64(res.GroupedCommitRounds)
	}
	sec := func(d time.Duration) float64 { return float64(d) / float64(time.Second) }
	if baseTime > 0 {
		res.BaselineIngestQPS = float64(totalBatches) / sec(baseTime)
	}
	if groupTime > 0 {
		res.GroupedIngestQPS = float64(totalBatches) / sec(groupTime)
	}

	// Phase B: ingest + scheduler + foreground queries on one world.
	fresh, err := newWorld(uuidSchema, core.Config{})
	if err != nil {
		return nil, err
	}
	var lags []time.Duration
	gen = workload.NewUUIDGen(o.Seed + 1)
	fw := ingest.NewWriter(fresh.table, ingest.WriterOptions{
		MaxBatchRows:       res.RowsPerBatch,
		GroupCommitBatches: res.Producers,
		Clock:              fresh.clock,
		Manual:             true,
	})
	sched := ingest.NewScheduler(fresh.table, ingest.SchedulerOptions{
		Config: core.Config{
			IndexDir: "rottnest", CacheBytes: -1, DecodedCacheBytes: -1,
			PlanCacheTTLVersions: -1, ProbeBatchBytes: -1,
		},
		Writer:    fw,
		Specs:     []core.IndexSpec{{Column: "id", Kind: component.KindTrie}},
		Clock:     fresh.clock,
		OnCovered: func(_ string, _ int64, lag time.Duration) { lags = append(lags, lag) },
	})
	rounds := o.scaleInt(10, 5)
	var keys [][16]byte
	var queryTime time.Duration
	queries := 0
	for round := 0; round < rounds; round++ {
		sctx := simtime.With(ctx, simtime.NewSession())
		for p := 0; p < res.Producers; p++ {
			b, ks := ingestBatch(gen, res.RowsPerBatch)
			keys = append(keys, ks...)
			if _, err := fw.Append(sctx, b); err != nil {
				return nil, err
			}
		}
		if err := fw.Flush(sctx); err != nil {
			return nil, err
		}
		res.RowsIngested += int64(res.Producers * res.RowsPerBatch)
		// Indexing runs behind the stream: time passes, the scheduler
		// converges, and the covered files record their exact lag.
		fresh.clock.Advance(2 * time.Second)
		if err := sched.Quiesce(simtime.With(ctx, simtime.NewSession())); err != nil {
			return nil, err
		}
		// Foreground queries against the latest snapshot throughout.
		for i := 0; i < 4; i++ {
			k := keys[(round*7919+i*977)%len(keys)]
			session := simtime.NewSession()
			r, err := sched.Client().Search(simtime.With(ctx, session),
				core.Query{Column: "id", UUID: &k, K: 10, Snapshot: -1})
			if err != nil {
				return nil, err
			}
			if len(r.Matches) != 1 {
				return nil, fmt.Errorf("ingest bench: key matched %d times", len(r.Matches))
			}
			queryTime += session.Elapsed()
			queries++
		}
	}
	if err := fw.Close(ctx); err != nil {
		return nil, err
	}
	sort.Slice(lags, func(i, j int) bool { return lags[i] < lags[j] })
	res.LagSamples = len(lags)
	if len(lags) > 0 {
		res.LagP50 = percentile(lags, 0.50)
		res.LagP99 = percentile(lags, 0.99)
	}
	if queryTime > 0 {
		res.QueryQPS = float64(queries) / sec(queryTime)
	}

	fmt.Fprintf(out, "Continuous ingestion: %d producers x %d batches x %d rows\n",
		res.Producers, res.BatchesPerProducer, res.RowsPerBatch)
	fmt.Fprintf(out, "%-22s %14s %14s\n", "", "per-batch", "group-commit")
	fmt.Fprintf(out, "%-22s %14d %14d\n", "commit rounds (PUTs)", res.BaselineCommitRounds, res.GroupedCommitRounds)
	fmt.Fprintf(out, "%-22s %14.1f %14.1f\n", "ingest batches/s", res.BaselineIngestQPS, res.GroupedIngestQPS)
	fmt.Fprintf(out, "conditional-PUT reduction: %.1fx\n", res.PutReduction)
	fmt.Fprintf(out, "requests per acked batch: %.3f LIST, %.3f GET, %.3f PUT\n", res.AckLists, res.AckGets, res.AckPuts)
	fmt.Fprintf(out, "searchable lag over %d files: p50 %v, p99 %v (query QPS %.1f)\n",
		res.LagSamples, res.LagP50.Round(time.Millisecond), res.LagP99.Round(time.Millisecond), res.QueryQPS)
	return res, nil
}
