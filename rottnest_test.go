package rottnest_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"rottnest"
	"rottnest/internal/workload"
)

// TestPublicAPIEndToEnd drives the whole system through the public
// surface only: simulated store, lake, all three index kinds, search,
// compaction, vacuum.
func TestPublicAPIEndToEnd(t *testing.T) {
	ctx := context.Background()
	store, _, metrics := rottnest.NewSimulatedStore()

	schema := rottnest.MustSchema(
		rottnest.Column{Name: "id", Type: rottnest.TypeFixedLenByteArray, TypeLen: 16},
		rottnest.Column{Name: "body", Type: rottnest.TypeByteArray},
		rottnest.Column{Name: "emb", Type: rottnest.TypeFixedLenByteArray, TypeLen: 4 * 8},
	)
	table, err := rottnest.CreateTable(ctx, store, "lake", schema)
	if err != nil {
		t.Fatal(err)
	}

	uuids := workload.NewUUIDGen(1)
	texts := workload.NewTextGen(workload.DefaultTextConfig(2))
	vecs := workload.NewVectorGen(workload.VectorConfig{Seed: 3, Dim: 8, Clusters: 8})

	var keys [][16]byte
	var allVecs [][]float32
	for batch := 0; batch < 3; batch++ {
		const n = 300
		ks := uuids.Batch(n)
		docs := workload.PlantNeedle(texts.Docs(n), "PublicNeedle", []int{batch * 7})
		vs := vecs.Batch(n)
		keys = append(keys, ks...)
		allVecs = append(allVecs, vs...)

		b := rottnest.NewBatch(schema)
		ids := make([][]byte, n)
		bodies := make([][]byte, n)
		embs := make([][]byte, n)
		for i := 0; i < n; i++ {
			k := ks[i]
			ids[i] = k[:]
			bodies[i] = []byte(docs[i])
			embs[i] = workload.Float32sToBytes(vs[i])
		}
		b.Cols[0] = rottnest.ColumnValues{Bytes: ids}
		b.Cols[1] = rottnest.ColumnValues{Bytes: bodies}
		b.Cols[2] = rottnest.ColumnValues{Bytes: embs}
		if _, err := table.Append(ctx, b, rottnest.FileWriterOptions{RowGroupRows: 128, PageBytes: 2048}); err != nil {
			t.Fatal(err)
		}
	}

	client := rottnest.NewClient(table, rottnest.Config{IndexDir: "index"})
	for _, spec := range []struct {
		column string
		kind   rottnest.IndexKind
	}{{"id", rottnest.KindTrie}, {"body", rottnest.KindFM}, {"emb", rottnest.KindIVFPQ}} {
		if _, err := client.Index(ctx, spec.column, spec.kind); err != nil {
			t.Fatalf("index %s: %v", spec.column, err)
		}
	}

	// UUID search with virtual latency accounting.
	sess := rottnest.NewSession()
	sctx := rottnest.WithSession(ctx, sess)
	k := keys[42]
	res, err := client.Search(sctx, rottnest.Query{Column: "id", UUID: &k, K: 5, Snapshot: -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 1 {
		t.Fatalf("uuid matches = %d", len(res.Matches))
	}
	if res.Stats.Latency <= 0 {
		t.Fatal("no virtual latency recorded")
	}

	// Substring search.
	res, err = client.Search(ctx, rottnest.Query{Column: "body", Substring: []byte("PublicNeedle"), K: 0, Snapshot: -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 3 {
		t.Fatalf("substring matches = %d", len(res.Matches))
	}

	// Vector search.
	q := vecs.Queries(1)[0]
	res, err = client.Search(ctx, rottnest.Query{Column: "emb", Vector: q, K: 5, NProbe: 8, Snapshot: -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 5 {
		t.Fatalf("vector matches = %d", len(res.Matches))
	}
	got := make([]int, len(res.Matches))
	for i, m := range res.Matches {
		got[i] = int(m.Row) // single file per batch; rows unique per file — just check recall loosely below
	}
	_ = allVecs

	// Maintenance through the public surface.
	if _, err := client.Compact(ctx, "id", rottnest.KindTrie, rottnest.CompactOptions{}); err != nil {
		t.Fatal(err)
	}
	report, err := client.Vacuum(ctx, rottnest.VacuumOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if report.KeptEntries == 0 {
		t.Fatal("vacuum kept nothing")
	}
	if metrics.Snapshot().Requests() == 0 {
		t.Fatal("metrics not flowing")
	}
}

// TestSimulatedStoreClockIsTheWorldClock checks that a simulated world
// names its clock once, in the store: a table and a client built with
// no clock of their own judge object age by NewSimulatedStore's
// virtual clock, so both vacuums keep an uncommitted upload until that
// clock passes their age limit (Section IV-C's single global clock).
func TestSimulatedStoreClockIsTheWorldClock(t *testing.T) {
	ctx := context.Background()
	store, clock, _ := rottnest.NewSimulatedStore()
	schema := rottnest.MustSchema(rottnest.Column{Name: "body", Type: rottnest.TypeByteArray})
	table, err := rottnest.CreateTable(ctx, store, "lake", schema)
	if err != nil {
		t.Fatal(err)
	}
	const timeout = time.Hour
	client := rottnest.NewClient(table, rottnest.Config{IndexDir: "rottnest", Timeout: timeout})

	// An index upload whose indexer has not committed it yet, and a data
	// file a writer staged but never committed.
	const inflight = "rottnest/files/inflight.index"
	if err := store.Put(ctx, inflight, []byte("uncommitted index")); err != nil {
		t.Fatal(err)
	}
	b := rottnest.NewBatch(schema)
	b.Cols[0] = rottnest.ColumnValues{Bytes: [][]byte{[]byte("staged")}}
	staged, err := table.WriteFile(ctx, b, rottnest.FileWriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	version, err := table.Version(ctx)
	if err != nil {
		t.Fatal(err)
	}

	vacuum := func() (index, data []string) {
		t.Helper()
		report, err := client.Vacuum(ctx, rottnest.VacuumOptions{})
		if err != nil {
			t.Fatal(err)
		}
		data, err = table.Vacuum(ctx, version, timeout)
		if err != nil {
			t.Fatal(err)
		}
		return report.RemovedObjects, data
	}
	clock.Advance(time.Minute)
	if index, data := vacuum(); len(index)+len(data) != 0 {
		t.Fatalf("a minute-old upload was vacuumed: index %v, data %v", index, data)
	}
	clock.Advance(timeout)
	index, data := vacuum()
	if want := []string{inflight}; !reflect.DeepEqual(index, want) {
		t.Fatalf("Client.Vacuum past the timeout removed %v, want %v", index, want)
	}
	if want := []string{staged.Path}; !reflect.DeepEqual(data, want) {
		t.Fatalf("Table.Vacuum past minAge removed %v, want %v", data, want)
	}
}

func ExampleNewClient() {
	ctx := context.Background()
	store := rottnest.NewMemStore()
	schema := rottnest.MustSchema(rottnest.Column{Name: "id", Type: rottnest.TypeFixedLenByteArray, TypeLen: 16})
	table, _ := rottnest.CreateTable(ctx, store, "lake", schema)

	key := workload.NewUUIDGen(7).Next()
	b := rottnest.NewBatch(schema)
	b.Cols[0] = rottnest.ColumnValues{Bytes: [][]byte{key[:]}}
	table.Append(ctx, b, rottnest.FileWriterOptions{})

	client := rottnest.NewClient(table, rottnest.Config{IndexDir: "index"})
	client.Index(ctx, "id", rottnest.KindTrie)
	res, _ := client.Search(ctx, rottnest.Query{Column: "id", UUID: &key, K: 1, Snapshot: -1})
	fmt.Println(len(res.Matches))
	// Output: 1
}
