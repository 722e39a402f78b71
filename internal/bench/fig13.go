package bench

import (
	"context"
	"fmt"
	"time"

	"rottnest/internal/component"
	"rottnest/internal/core"
)

// Fig13Point is one dataset size of the compaction experiment.
type Fig13Point struct {
	// Batches is the number of appended (and separately indexed)
	// batches at this size.
	Batches int
	// IndexFilesBefore is the uncompacted index file count.
	IndexFilesBefore int
	// Uncompacted and Compacted are mean search latencies.
	Uncompacted, Compacted time.Duration
	// Compaction is the virtual (store) latency of the Compact call
	// that merged the index files: what the round trips of reading
	// every source cost, without the merge's CPU.
	Compaction time.Duration
}

// Fig13Result holds the Figure 13 series for both applications.
type Fig13Result struct {
	Substring []Fig13Point
	UUID      []Fig13Point
}

// Fig13Compaction reproduces Figure 13: search latency on
// uncompacted versus compacted indices as the dataset grows. Each
// ingest batch is indexed separately (the lazy protocol's natural
// state), so the uncompacted index file count grows with data volume
// and — because one searcher can only fan so wide — search latency
// grows with it. After compact+vacuum the latency is roughly flat in
// dataset size.
func Fig13Compaction(opts Options) (*Fig13Result, error) {
	ctx := context.Background()
	out := opts.out()
	res := &Fig13Result{}

	sizes := []int{32, 128, 384}
	if opts.Quick {
		sizes = []int{16, 64, 160}
	}

	fmt.Fprintln(out, "# Fig 13: search latency, uncompacted vs compacted indices")
	for _, app := range []string{"substring", "uuid"} {
		fmt.Fprintf(out, "%-12s %-10s %-12s %-14s %-14s %-14s\n", app, "batches", "index files", "uncompacted", "compacted", "compaction")
		for _, batches := range sizes {
			var point Fig13Point
			point.Batches = batches
			switch app {
			case "substring":
				tw, err := newTextWorld(opts.Seed+6, batches, opts.scaleInt(400, 150), core.Config{})
				if err != nil {
					return nil, err
				}
				// Index each batch separately: the snapshot grows one
				// file per version, so index after every append is
				// simulated by indexing file-by-file via repeated calls
				// with a metadata check in between. Calling Index once
				// would cover all files with one index file, so instead
				// replay ingestion one file at a time.
				if err := indexPerFile(ctx, tw.world, "body", component.KindFM); err != nil {
					return nil, err
				}
				entries, err := tw.client.Meta().ListFor(ctx, "body", component.KindFM)
				if err != nil {
					return nil, err
				}
				point.IndexFilesBefore = len(entries)
				queries := tw.queries(3)
				tw.traced(opts.Trace, "fig13.text")
				lat, err := tw.searchLatency(ctx, queries)
				if err != nil {
					return nil, err
				}
				point.Uncompacted = lat
				if point.Compaction, err = tw.compactLatency(ctx, "body", component.KindFM); err != nil {
					return nil, err
				}
				if _, err := tw.client.Vacuum(ctx, core.VacuumOptions{}); err != nil {
					return nil, err
				}
				if point.Compacted, err = tw.searchLatency(ctx, queries); err != nil {
					return nil, err
				}
				res.Substring = append(res.Substring, point)
			case "uuid":
				uw, err := newUUIDWorld(opts.Seed+7, batches, opts.scaleInt(4000, 1500), core.Config{})
				if err != nil {
					return nil, err
				}
				if err := indexPerFile(ctx, uw.world, "id", component.KindTrie); err != nil {
					return nil, err
				}
				entries, err := uw.client.Meta().ListFor(ctx, "id", component.KindTrie)
				if err != nil {
					return nil, err
				}
				point.IndexFilesBefore = len(entries)
				queries := uw.queries(4)
				uw.traced(opts.Trace, "fig13.uuid")
				lat, err := uw.searchLatency(ctx, queries)
				if err != nil {
					return nil, err
				}
				point.Uncompacted = lat
				if point.Compaction, err = uw.compactLatency(ctx, "id", component.KindTrie); err != nil {
					return nil, err
				}
				if _, err := uw.client.Vacuum(ctx, core.VacuumOptions{}); err != nil {
					return nil, err
				}
				if point.Compacted, err = uw.searchLatency(ctx, queries); err != nil {
					return nil, err
				}
				res.UUID = append(res.UUID, point)
			}
			fmt.Fprintf(out, "%-12s %-10d %-12d %-14s %-14s %-14s\n", "",
				point.Batches, point.IndexFilesBefore,
				point.Uncompacted.Round(time.Millisecond), point.Compacted.Round(time.Millisecond),
				point.Compaction.Round(time.Millisecond))
		}
	}
	return res, nil
}

// compactLatency merges the (column, kind) index into one file and
// returns the call's virtual latency.
func (w *world) compactLatency(ctx context.Context, column string, kind component.Kind) (time.Duration, error) {
	return virtualOp(ctx, func(ctx context.Context) error {
		_, err := w.client.Compact(ctx, column, kind, core.CompactOptions{})
		return err
	})
}

// indexPerFile builds one index file per data file, reproducing the
// state of an indexer that ran after every ingest batch.
func indexPerFile(ctx context.Context, w *world, column string, kind component.Kind) error {
	snap, err := w.table.Snapshot(ctx)
	if err != nil {
		return err
	}
	// Index files one at a time by temporarily narrowing the
	// snapshot view: simplest faithful approach is to call Index
	// against successive snapshot versions (each append is one
	// version).
	for v := int64(2); v <= snap.Version; v++ {
		if _, err := w.client.IndexAt(ctx, column, kind, v); err != nil {
			return err
		}
	}
	return nil
}
