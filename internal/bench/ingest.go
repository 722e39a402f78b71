package bench

import (
	"context"
	"fmt"

	"rottnest/internal/core"
	"rottnest/internal/ingest"
	"rottnest/internal/parquet"
	"rottnest/internal/workload"
)

// IngestResult reports the continuous-ingestion experiment: P
// producers each commit B micro-batches, once through per-batch lake
// appends (one conditional PUT per batch) and once through the
// group-commit writer (one conditional PUT per group of up to P
// batches). Commit rounds are counted exactly as lake version
// advances, so the reduction is the paper-level claim: group commit
// divides the log's conditional-PUT rate by the group size. Ack and
// searchable-lag latencies are the wall-clock benchmark's
// (`ingest_live`).
type IngestResult struct {
	Producers          int `json:"producers"`
	BatchesPerProducer int `json:"batches_per_producer"`
	RowsPerBatch       int `json:"rows_per_batch"`

	// Commit rounds (== conditional PUTs on the log) per ingest mode.
	BaselineCommitRounds int64   `json:"baseline_commit_rounds"`
	GroupedCommitRounds  int64   `json:"grouped_commit_rounds"`
	PutReduction         float64 `json:"put_reduction"`

	// Store requests per acked batch of the grouped stream, through the
	// writer's long-lived table handle: the group's file PUTs and one
	// conditional PUT, and no read of the log. benchgate holds the
	// three to "may not grow".
	AckLists float64 `json:"ack_lists"`
	AckGets  float64 `json:"ack_gets"`
	AckPuts  float64 `json:"ack_puts"`
}

// ingestBatch builds one producer micro-batch of uuid rows.
func ingestBatch(gen *workload.UUIDGen, rows int) *parquet.Batch {
	ks := gen.Batch(rows)
	b := parquet.NewBatch(uuidSchema)
	ids := make([][]byte, rows)
	for i := range ks {
		k := ks[i]
		ids[i] = k[:]
	}
	b.Cols[0] = parquet.ColumnValues{Bytes: ids}
	return b
}

// Ingest counts both ingest modes' commit rounds and prints the
// comparison.
func Ingest(o Options) (*IngestResult, error) {
	ctx := context.Background()
	out := o.out()
	res := &IngestResult{
		Producers:          8,
		BatchesPerProducer: o.scaleInt(16, 6),
		RowsPerBatch:       128,
	}
	totalBatches := res.Producers * res.BatchesPerProducer

	// Baseline: one lake append (one commit round) per batch.
	base, err := newWorld(uuidSchema, core.Config{})
	if err != nil {
		return nil, err
	}
	gen := workload.NewUUIDGen(o.Seed)
	before, err := base.table.Version(ctx)
	if err != nil {
		return nil, err
	}
	for i := 0; i < totalBatches; i++ {
		if _, err := base.table.Append(ctx, ingestBatch(gen, res.RowsPerBatch), parquet.WriterOptions{}); err != nil {
			return nil, err
		}
	}
	after, err := base.table.Version(ctx)
	if err != nil {
		return nil, err
	}
	res.BaselineCommitRounds = after - before

	// Grouped: the same stream through the writer, producers
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
	ackBefore := grouped.store.Metrics.Snapshot()
	for round := 0; round < res.BatchesPerProducer; round++ {
		for p := 0; p < res.Producers; p++ {
			if _, err := w.Append(ctx, ingestBatch(gen, res.RowsPerBatch)); err != nil {
				return nil, err
			}
		}
		if err := w.Flush(ctx); err != nil {
			return nil, err
		}
	}
	acked := grouped.store.Metrics.Snapshot().Sub(ackBefore)
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

	fmt.Fprintf(out, "Continuous ingestion: %d producers x %d batches x %d rows\n",
		res.Producers, res.BatchesPerProducer, res.RowsPerBatch)
	fmt.Fprintf(out, "commit rounds (PUTs): per-batch %d, group-commit %d (%.1fx fewer)\n",
		res.BaselineCommitRounds, res.GroupedCommitRounds, res.PutReduction)
	fmt.Fprintf(out, "requests per acked batch: %.3f LIST, %.3f GET, %.3f PUT\n", res.AckLists, res.AckGets, res.AckPuts)
	return res, nil
}
