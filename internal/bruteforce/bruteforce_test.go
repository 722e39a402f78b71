package bruteforce

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"rottnest/internal/insitu"
	"rottnest/internal/lake"
	"rottnest/internal/objectstore"
	"rottnest/internal/parquet"
	"rottnest/internal/simtime"
	"rottnest/internal/workload"
)

var schema = parquet.MustSchema(parquet.Column{Name: "body", Type: parquet.TypeByteArray})

func newLake(t testing.TB, files, docsPerFile int) (*lake.Table, *simtime.VirtualClock) {
	t.Helper()
	ctx := context.Background()
	clock := simtime.NewVirtualClock()
	inner := objectstore.NewMemStore(clock)
	store, _ := objectstore.Instrument(inner, objectstore.DefaultS3Model())
	table, err := lake.CreateWith(ctx, store, "lake", schema, lake.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewTextGen(workload.DefaultTextConfig(1))
	for f := 0; f < files; f++ {
		docs := gen.Docs(docsPerFile)
		if f == 0 {
			docs = workload.PlantNeedle(docs, "ScanTargetNeedle", []int{3})
		}
		b := parquet.NewBatch(schema)
		vals := make([][]byte, len(docs))
		for i, d := range docs {
			vals[i] = []byte(d)
		}
		b.Cols[0] = parquet.ColumnValues{Bytes: vals}
		if _, err := table.Append(ctx, b, parquet.WriterOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	return table, clock
}

func needlePred(s string) insitu.Predicate {
	return func(v []byte) (bool, float64) { return bytes.Contains(v, []byte(s)), 0 }
}

func TestScanFindsMatches(t *testing.T) {
	table, _ := newLake(t, 4, 200)
	cluster := NewCluster(table, ClusterConfig{Workers: 4})
	sess := simtime.NewSession()
	ctx := simtime.With(context.Background(), sess)
	matches, report, err := cluster.Scan(ctx, -1, "body", needlePred("ScanTargetNeedle"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 1 {
		t.Fatalf("matches = %d", len(matches))
	}
	if report.FilesScanned != 4 || report.BytesScanned == 0 {
		t.Fatalf("report = %+v", report)
	}
	if report.Latency <= 0 || report.WorkerSeconds <= 0 {
		t.Fatalf("latency accounting: %+v", report)
	}
}

func TestScanAppliesDeletionVectors(t *testing.T) {
	table, _ := newLake(t, 1, 100)
	ctx := context.Background()
	snap, _ := table.Snapshot(ctx)
	// Find and delete the needle row.
	cluster := NewCluster(table, ClusterConfig{Workers: 2})
	matches, _, err := cluster.Scan(ctx, -1, "body", needlePred("ScanTargetNeedle"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("pre-delete: %d, %v", len(matches), err)
	}
	if err := table.DeleteRows(ctx, snap.Files[0].Path, []uint32{uint32(matches[0].Row)}); err != nil {
		t.Fatal(err)
	}
	matches, _, err = cluster.Scan(ctx, -1, "body", needlePred("ScanTargetNeedle"))
	if err != nil || len(matches) != 0 {
		t.Fatalf("post-delete: %d, %v", len(matches), err)
	}
}

func TestScalingShapeMatchesFig8(t *testing.T) {
	// Latency falls with workers but flattens; cost per query rises
	// markedly at high worker counts — the knee of Figure 8a/8b.
	table, _ := newLake(t, 64, 400)
	latencies := map[int]time.Duration{}
	for _, w := range []int{1, 8, 32, 64} {
		// A slow modelled decode rate makes the laptop-scale dataset
		// behave like the paper's hundreds of GB: total work is large
		// relative to spin-up at 1 worker, and the spin-up growth
		// produces the knee at high worker counts.
		cluster := NewCluster(table, ClusterConfig{Workers: w, DecodeBps: 100e3})
		sess := simtime.NewSession()
		ctx := simtime.With(context.Background(), sess)
		_, report, err := cluster.Scan(ctx, -1, "body", needlePred("zzz"))
		if err != nil {
			t.Fatal(err)
		}
		latencies[w] = report.Latency
	}
	if !(latencies[1] > latencies[8] && latencies[8] > latencies[32]) {
		t.Fatalf("latency not improving: %v", latencies)
	}
	// Near-linear early: 1 -> 8 workers gives >4x.
	if float64(latencies[1])/float64(latencies[8]) < 4 {
		t.Fatalf("1->8 speedup = %.2f", float64(latencies[1])/float64(latencies[8]))
	}
	// Knee: 32 -> 64 gives much less than 2x.
	gain := float64(latencies[32]) / float64(latencies[64])
	if gain > 1.7 {
		t.Fatalf("32->64 speedup = %.2f, expected a knee", gain)
	}
	// Cost per query (worker-seconds) grows from 32 to 64.
	if 32*latencies[32].Seconds() > 64*latencies[64].Seconds() {
		t.Fatal("cost per query should rise past the knee")
	}
}

// TestScanLatencyIndependentOfFileNames scans two tables of identical
// content, whose files of different sizes get different random names,
// at widths between one and the number of scan units and past it: the
// latency must not depend on the order of the names.
func TestScanLatencyIndependentOfFileNames(t *testing.T) {
	build := func() *lake.Table {
		ctx := context.Background()
		clock := simtime.NewVirtualClock()
		store, _ := objectstore.Instrument(objectstore.NewMemStore(clock), objectstore.DefaultS3Model())
		table, err := lake.CreateWith(ctx, store, "lake", schema, lake.OpenOptions{})
		if err != nil {
			t.Fatal(err)
		}
		gen := workload.NewTextGen(workload.DefaultTextConfig(1))
		for _, n := range []int{60, 200, 110, 170, 80} {
			b := parquet.NewBatch(schema)
			b.Cols[0].Bytes = make([][]byte, n)
			for i, d := range gen.Docs(n) {
				b.Cols[0].Bytes[i] = []byte(d)
			}
			if _, err := table.Append(ctx, b, parquet.WriterOptions{}); err != nil {
				t.Fatal(err)
			}
		}
		return table
	}
	tables := []*lake.Table{build(), build()}
	for _, workers := range []int{2, 3, 8} {
		var latency [2]time.Duration
		for i, table := range tables {
			ctx := simtime.With(context.Background(), simtime.NewSession())
			_, report, err := NewCluster(table, ClusterConfig{Workers: workers}).ScanColumns(ctx, -1, []string{"body"}, 0,
				func([][]byte) (bool, float64) { return false, 0 })
			if err != nil {
				t.Fatal(err)
			}
			latency[i] = report.Latency
		}
		if latency[0] != latency[1] {
			t.Fatalf("%d workers: latency %v on one table, %v on its copy", workers, latency[0], latency[1])
		}
	}
}

func TestScanUnknownColumn(t *testing.T) {
	table, _ := newLake(t, 1, 10)
	cluster := NewCluster(table, ClusterConfig{})
	if _, _, err := cluster.Scan(context.Background(), -1, "nope", needlePred("x")); err == nil {
		t.Fatal("unknown column accepted")
	}
}

func TestDefaults(t *testing.T) {
	c := ClusterConfig{}.withDefaults()
	if c.Workers != 8 || c.DecodeBps <= 0 {
		t.Fatalf("defaults = %+v", c)
	}
	cluster := NewCluster(nil, ClusterConfig{Workers: 16})
	if cluster.Workers() != 16 {
		t.Fatal("Workers()")
	}
}

func BenchmarkBruteForceScan(b *testing.B) {
	table, _ := newLake(b, 8, 300)
	cluster := NewCluster(table, ClusterConfig{Workers: 8})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess := simtime.NewSession()
		ctx := simtime.With(context.Background(), sess)
		if _, _, err := cluster.Scan(ctx, -1, "body", needlePred(fmt.Sprintf("n%d", i))); err != nil {
			b.Fatal(err)
		}
	}
}
