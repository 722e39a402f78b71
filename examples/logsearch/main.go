// Command logsearch models the paper's observability motivation: a
// service writes log batches into a lake table (message text plus a
// high-cardinality pod UUID), Rottnest maintains a substring index on
// the messages and a trie index on the pod IDs, and an SRE runs
// needle-in-haystack queries. It also demonstrates the LSM-style
// index lifecycle: many small index files accumulate, compact merges
// them, vacuum removes the leftovers — and search latency drops
// (Figure 13's effect).
package main

import (
	"context"
	"fmt"
	"log"

	"rottnest"
	"rottnest/internal/workload"
)

const (
	batches       = 8
	rowsPerBatch  = 2500
	needleMessage = "ERROR connection reset by peer during checkout"
)

func main() {
	ctx := context.Background()
	store, _, _ := rottnest.NewSimulatedStore()

	schema := rottnest.MustSchema(
		rottnest.Column{Name: "pod_id", Type: rottnest.TypeFixedLenByteArray, TypeLen: 16},
		rottnest.Column{Name: "message", Type: rottnest.TypeByteArray},
	)
	table, err := rottnest.CreateTable(ctx, store, "lake/logs", schema)
	if err != nil {
		log.Fatal(err)
	}
	client := rottnest.NewClient(table, rottnest.Config{IndexDir: "rottnest/logs"})

	// Ingest + index loop: each batch is indexed as it lands, so the
	// index accumulates one small file per batch.
	uuids := workload.NewUUIDGen(7)
	text := workload.NewTextGen(workload.DefaultTextConfig(7))
	pods := uuids.Batch(16) // 16 pods emit all logs
	var needlePod [16]byte
	for batch := 0; batch < batches; batch++ {
		b := rottnest.NewBatch(schema)
		ids := make([][]byte, rowsPerBatch)
		msgs := make([][]byte, rowsPerBatch)
		for i := 0; i < rowsPerBatch; i++ {
			pod := pods[(batch*rowsPerBatch+i)%len(pods)]
			ids[i] = pod[:]
			msgs[i] = []byte("INFO " + text.Doc())
		}
		if batch == 5 {
			msgs[1234] = []byte(needleMessage)
			copy(needlePod[:], ids[1234])
		}
		b.Cols[0] = rottnest.ColumnValues{Bytes: ids}
		b.Cols[1] = rottnest.ColumnValues{Bytes: msgs}
		if _, err := table.Append(ctx, b, rottnest.FileWriterOptions{RowGroupRows: 1024, PageBytes: 8 << 10}); err != nil {
			log.Fatal(err)
		}
		if _, err := client.Index(ctx, "message", rottnest.KindFM); err != nil {
			log.Fatal(err)
		}
		if _, err := client.Index(ctx, "pod_id", rottnest.KindTrie); err != nil {
			log.Fatal(err)
		}
	}

	search := func(label string) {
		session := rottnest.NewSession()
		sctx := rottnest.WithSession(ctx, session)
		res, err := client.Search(sctx, rottnest.Query{
			Column: "message", Substring: []byte("connection reset by peer"), K: 10, Snapshot: -1,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-18s %d hit(s) via %d index files, latency %v\n",
			label, len(res.Matches), res.Stats.IndexFiles, res.Stats.Latency.Round(1e6))
		for _, m := range res.Matches {
			fmt.Printf("    %s row %d: %s\n", m.Path, m.Row, m.Value)
		}
	}

	search("pre-compaction:")

	// Compact the 8 small FM index files into 1, then vacuum.
	merged, err := client.Compact(ctx, "message", rottnest.KindFM, rottnest.CompactOptions{})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := client.Compact(ctx, "pod_id", rottnest.KindTrie, rottnest.CompactOptions{}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compacted message index into %d file(s) covering %d lake files\n",
		len(merged), len(merged[0].Files))
	report, err := client.Vacuum(ctx, rottnest.VacuumOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("vacuum: dropped %d metadata entries, kept %d\n",
		len(report.DroppedEntries), report.KeptEntries)

	search("post-compaction:")

	// Drill down by pod UUID — the high-cardinality filter min-max
	// stats cannot serve.
	session := rottnest.NewSession()
	sctx := rottnest.WithSession(ctx, session)
	res, err := client.Search(sctx, rottnest.Query{Column: "pod_id", UUID: &needlePod, K: 5, Snapshot: -1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pod drill-down:    %d rows from pod %x..., latency %v\n",
		len(res.Matches), needlePod[:4], res.Stats.Latency.Round(1e6))

	// Compound query: the SRE's actual question — errors from THIS pod.
	// One plan probes the trie and the FM index once each, intersects
	// their candidate page sets, and fetches only surviving pages, so
	// the cross-column filter costs less than two separate searches.
	sctx = rottnest.WithSession(ctx, rottnest.NewSession())
	cres, err := client.SearchCompound(sctx, rottnest.CompoundQuery{
		Expr: rottnest.And(
			rottnest.PredUUID("pod_id", needlePod),
			rottnest.PredSubstring("message", []byte("connection reset")),
		),
		K: 5, Snapshot: -1, Output: "message",
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compound query:    %d hit(s) for pod AND message, %d candidate pages, %d pruned, latency %v\n",
		len(cres.Matches), cres.Stats.PagesCandidate, cres.Stats.PagesPruned, cres.Stats.Latency.Round(1e6))
	for _, m := range cres.Matches {
		fmt.Printf("    %s row %d: %s\n", m.Path, m.Row, m.Value)
	}
}
