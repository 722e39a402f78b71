package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"rottnest/internal/component"
	"rottnest/internal/parquet"
	"rottnest/internal/workload"
)

// warmClass is one query class of a warm benchmark world.
type warmClass struct {
	name string
	cq   CompoundQuery
}

// BenchmarkWarmSearch is the in-tree twin of the wall-clock
// benchmark's search_hot workload: one long-lived default client over
// a three-column lake (id/trie, body/FM, emb/IVF-PQ), one query per
// class repeated after a warm-up run, so every iteration is a zero-GET
// query and what it reports — ns, bytes and allocations per query —
// is the plan, set algebra, decode and read-path work above the
// caches. It runs two worlds: a small one (four files of 1,000 rows
// and 2 KiB pages, each file under its own index file per column),
// and, under search_hot, that workload's layout (see
// benchSearchHotWorld). It uses only API that predates the staged
// executor, so the same file runs against an older tree for a
// before/after pair.
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
	runWarmClasses(b, e, []warmClass{
		{"uuid", CompoundQuery{Expr: PredUUID("id", key), K: 10, Snapshot: -1}},
		{"substring", CompoundQuery{Expr: PredSubstring("body", needle), K: 10, Snapshot: -1}},
		{"vector", CompoundQuery{Expr: PredVector("emb", vgen.Queries(1)[0], 8, 40), K: 10, Snapshot: -1}},
		{"compound", CompoundQuery{Expr: And(PredUUID("id", key), PredSubstring("body", needle)), Snapshot: -1, Output: "id"}},
	})
	b.Run("search_hot", func(b *testing.B) {
		e, classes := benchSearchHotWorld(b)
		runWarmClasses(b, e, classes)
	})
}

// benchSearchHotWorld lays a lake out as the wall-clock benchmark's
// search_hot world does: six files of 4,000 rows in 2,048-row groups
// and 64 KiB pages, 32-dimensional embeddings, a needle planted in each
// file's bodies at rows n/3 and 2n/3, and one index file per kind over
// all six. Its classes are built as that benchmark builds them: a
// key's one row, a needle's two, a perturbed stored vector's ten
// nearest, and AND(key of a needled row, needle).
func benchSearchHotWorld(b *testing.B) (*env, []warmClass) {
	ctx := context.Background()
	const files, rows, dim = 6, 4000, 32
	schema := parquet.MustSchema(
		parquet.Column{Name: "id", Type: parquet.TypeFixedLenByteArray, TypeLen: 16},
		parquet.Column{Name: "body", Type: parquet.TypeByteArray},
		parquet.Column{Name: "emb", Type: parquet.TypeFixedLenByteArray, TypeLen: 4 * dim},
	)
	e := newEnv(b, schema, Config{})
	uuids := workload.NewUUIDGen(1)
	texts := workload.NewTextGen(workload.DefaultTextConfig(1))
	vgen := workload.NewVectorGen(workload.VectorConfig{Seed: 1, Dim: dim, Clusters: 64, Spread: 0.18})
	rng := rand.New(rand.NewSource(1))
	var keys [][16]byte
	var vecs [][]float32
	var needle string
	for f := 0; f < files; f++ {
		keys, vecs = uuids.Batch(rows), vgen.Batch(rows)
		needle = fmt.Sprintf("Ndl%dXq", f)
		docs := texts.Docs(rows)
		rng.Shuffle(rows, func(i, j int) { docs[i], docs[j] = docs[j], docs[i] })
		docs = workload.PlantNeedle(docs, needle, []int{rows / 3, 2 * rows / 3})
		batch := parquet.NewBatch(schema)
		for c := range batch.Cols {
			batch.Cols[c].Bytes = make([][]byte, rows)
		}
		for i := 0; i < rows; i++ {
			batch.Cols[0].Bytes[i] = keys[i][:]
			batch.Cols[1].Bytes[i] = []byte(docs[i])
			batch.Cols[2].Bytes[i] = workload.Float32sToBytes(vecs[i])
		}
		if _, err := e.table.Append(ctx, batch, parquet.WriterOptions{RowGroupRows: 2048, PageBytes: 64 << 10}); err != nil {
			b.Fatal(err)
		}
	}
	for _, spec := range []struct {
		col  string
		kind component.Kind
	}{{"id", component.KindTrie}, {"body", component.KindFM}, {"emb", component.KindIVFPQ}} {
		if _, err := e.cli.Index(ctx, spec.col, spec.kind); err != nil {
			b.Fatal(err)
		}
	}
	// The last file's rows name every class's target.
	q := make([]float32, dim)
	for i, x := range vecs[rows/5] {
		q[i] = x + float32(rng.NormFloat64()*0.09)
	}
	return e, []warmClass{
		{"uuid", CompoundQuery{Expr: PredUUID("id", keys[rows/2]), K: 10, Snapshot: -1, Output: "id"}},
		{"substring", CompoundQuery{Expr: PredSubstring("body", []byte(needle)), K: 10, Snapshot: -1, Output: "body"}},
		{"vector", CompoundQuery{Expr: PredVector("emb", q, 8, 40), K: 10, Snapshot: -1, Output: "emb"}},
		{"compound", CompoundQuery{Expr: And(PredUUID("id", keys[rows/3]), PredSubstring("body", []byte(needle))), K: 10, Snapshot: -1, Output: "id"}},
	}
}

// runWarmClasses benchmarks each class as one warm query per iteration
// after a warm-up run, failing on any iteration that reaches the store.
func runWarmClasses(b *testing.B, e *env, classes []warmClass) {
	ctx := context.Background()
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
