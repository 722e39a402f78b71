package lake

import (
	"context"
	"fmt"
	"testing"

	"rottnest/internal/objectstore"
	"rottnest/internal/parquet"
	"rottnest/internal/simtime"
)

func benchStore() *objectstore.MemStore {
	return objectstore.NewMemStore(simtime.NewVirtualClock())
}

// BenchmarkAppendCommit measures the append + optimistic-commit path.
func BenchmarkAppendCommit(b *testing.B) {
	ctx := context.Background()
	store := benchStore()
	tbl, err := CreateWith(ctx, store, "tbl", tblSchema, OpenOptions{})
	if err != nil {
		b.Fatal(err)
	}
	batch := msgBatch("one", "two", "three", "four")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tbl.Append(ctx, batch, parquet.WriterOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotReplay measures snapshot construction over a
// checkpointed log.
func BenchmarkSnapshotReplay(b *testing.B) {
	ctx := context.Background()
	store := benchStore()
	tbl, err := CreateWith(ctx, store, "tbl", tblSchema, OpenOptions{})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := tbl.Append(ctx, msgBatch(fmt.Sprintf("r%d", i)), parquet.WriterOptions{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tbl.Snapshot(ctx); err != nil {
			b.Fatal(err)
		}
	}
}
