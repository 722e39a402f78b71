// Command vectorsearch demonstrates retrieval-augmented-generation
// style ANN search over a lake of embeddings: it indexes a vector
// column with IVF-PQ and sweeps the nprobe/refine parameters to show
// the recall/latency trade-off the paper tunes for its recall targets
// (Figure 9).
package main

import (
	"context"
	"fmt"
	"log"

	"rottnest"
	"rottnest/internal/workload"
)

const (
	dim    = 32
	nVecs  = 20000
	nQuery = 30
	topK   = 10
)

func main() {
	ctx := context.Background()
	store, _, _ := rottnest.NewSimulatedStore()

	schema := rottnest.MustSchema(
		rottnest.Column{Name: "emb", Type: rottnest.TypeFixedLenByteArray, TypeLen: 4 * dim},
		rottnest.Column{Name: "doc", Type: rottnest.TypeByteArray},
	)
	table, err := rottnest.CreateTable(ctx, store, "lake/corpus", schema)
	if err != nil {
		log.Fatal(err)
	}

	gen := workload.NewVectorGen(workload.VectorConfig{Seed: 9, Dim: dim, Clusters: 64, Spread: 0.18})
	vecs := gen.Batch(nVecs)
	b := rottnest.NewBatch(schema)
	embs := make([][]byte, nVecs)
	docs := make([][]byte, nVecs)
	for i, v := range vecs {
		embs[i] = workload.Float32sToBytes(v)
		docs[i] = []byte(fmt.Sprintf("chunk-%05d", i))
	}
	b.Cols[0] = rottnest.ColumnValues{Bytes: embs}
	b.Cols[1] = rottnest.ColumnValues{Bytes: docs}
	if _, err := table.Append(ctx, b, rottnest.FileWriterOptions{}); err != nil {
		log.Fatal(err)
	}

	client := rottnest.NewClient(table, rottnest.Config{IndexDir: "rottnest/corpus"})
	entry, err := client.Index(ctx, "emb", rottnest.KindIVFPQ)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("IVF-PQ index: %.1f KB over %d vectors (%.1f bytes/vector)\n",
		float64(entry.SizeBytes)/1024, nVecs, float64(entry.SizeBytes)/nVecs)

	queries := gen.Queries(nQuery)
	fmt.Printf("%-8s %-8s %-12s %-12s\n", "nprobe", "refine", "recall@10", "latency")
	for _, cfg := range []struct{ nprobe, refine int }{
		{2, 20}, {4, 40}, {8, 80}, {16, 160}, {32, 320},
	} {
		var recallSum float64
		var latency float64
		for _, q := range queries {
			session := rottnest.NewSession()
			sctx := rottnest.WithSession(ctx, session)
			res, err := client.Search(sctx, rottnest.Query{
				Column: "emb", Vector: q, K: topK,
				NProbe: cfg.nprobe, Refine: cfg.refine, Snapshot: -1,
			})
			if err != nil {
				log.Fatal(err)
			}
			got := make([]int, len(res.Matches))
			for i, m := range res.Matches {
				got[i] = int(m.Row)
			}
			recallSum += workload.Recall(got, workload.ExactNearest(vecs, q, topK))
			latency += res.Stats.Latency.Seconds()
		}
		fmt.Printf("%-8d %-8d %-12.3f %.2fs\n",
			cfg.nprobe, cfg.refine, recallSum/float64(nQuery), latency/float64(nQuery))
	}
}
