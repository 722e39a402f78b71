package core

import (
	"context"
	"testing"

	"rottnest/internal/component"
	"rottnest/internal/parquet"
	"rottnest/internal/workload"
)

// BenchmarkWarmSearch is the in-tree twin of the wall-clock
// benchmark's search_hot workload: one long-lived default client over
// a three-column lake (id/trie, body/FM, emb/IVF-PQ; four files, each
// under its own index file per column), one query per class repeated
// after a warm-up run, so every iteration is a zero-GET query and what
// it reports — ns, bytes and allocations per query — is the plan, set
// algebra, decode and read-path work above the caches. It uses only
// API that predates the staged executor, so the same file runs against
// an older tree for a before/after pair.
func BenchmarkWarmSearch(b *testing.B) {
	ctx := context.Background()
	e := newEnv(b, multiSchema, Config{})
	uuids := workload.NewUUIDGen(7)
	texts := workload.NewTextGen(workload.DefaultTextConfig(7))
	vgen := workload.NewVectorGen(workload.VectorConfig{Seed: 7, Dim: 8, Clusters: 8})
	const files, rows = 4, 1000
	var key [16]byte
	var doc string
	for f := 0; f < files; f++ {
		keys, docs, vecs := uuids.Batch(rows), texts.Docs(rows), vgen.Batch(rows)
		batch := parquet.NewBatch(multiSchema)
		for c := range batch.Cols {
			batch.Cols[c].Bytes = make([][]byte, rows)
		}
		for i := 0; i < rows; i++ {
			k := keys[i]
			batch.Cols[0].Bytes[i] = k[:]
			batch.Cols[1].Bytes[i] = []byte(docs[i])
			batch.Cols[2].Bytes[i] = workload.Float32sToBytes(vecs[i])
		}
		if _, err := e.table.Append(ctx, batch, parquet.WriterOptions{RowGroupRows: 256, PageBytes: 2048}); err != nil {
			b.Fatal(err)
		}
		for col, kind := range map[string]component.Kind{"id": component.KindTrie, "body": component.KindFM, "emb": component.KindIVFPQ} {
			if _, err := e.cli.Index(ctx, col, kind); err != nil {
				b.Fatal(err)
			}
		}
		key, doc = keys[rows/2], docs[rows/2]
	}
	needle := []byte(doc[:12])
	classes := []struct {
		name string
		cq   CompoundQuery
	}{
		{"uuid", CompoundQuery{Expr: PredUUID("id", key), K: 10, Snapshot: -1}},
		{"substring", CompoundQuery{Expr: PredSubstring("body", needle), K: 10, Snapshot: -1}},
		{"vector", CompoundQuery{Expr: PredVector("emb", vgen.Queries(1)[0], 8, 40), K: 10, Snapshot: -1}},
		{"compound", CompoundQuery{Expr: And(PredUUID("id", key), PredSubstring("body", needle)), Snapshot: -1, Output: "id"}},
	}
	for _, class := range classes {
		b.Run(class.name, func(b *testing.B) {
			res, err := e.cli.SearchCompound(ctx, class.cq) // warm-up
			if err != nil || len(res.Matches) == 0 {
				b.Fatalf("warm-up = %v, %v", res, err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := e.cli.SearchCompound(ctx, class.cq)
				if err != nil {
					b.Fatal(err)
				}
				if res.Stats.GETs != 0 {
					b.Fatalf("warm query issued %d GETs", res.Stats.GETs)
				}
			}
		})
	}
}
