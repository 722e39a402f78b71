// Command partitioned demonstrates structured-filter pruning (the
// paper's "normalized query" mechanism, Section VI): a week of
// time-partitioned service logs lands in the lake hour by hour, each
// batch indexed as it arrives, and an incident investigation combines
// a regex over messages with a time-window partition filter — so only
// the incident window's files are touched, regardless of total data
// volume.
package main

import (
	"context"
	"fmt"
	"log"

	"rottnest"
	"rottnest/internal/workload"
)

const (
	hours        = 24
	rowsPerHour  = 800
	incidentHour = 17
)

func main() {
	ctx := context.Background()
	store, _, metrics := rottnest.NewSimulatedStore()

	schema := rottnest.MustSchema(
		rottnest.Column{Name: "ts", Type: rottnest.TypeInt64},
		rottnest.Column{Name: "message", Type: rottnest.TypeByteArray},
	)
	table, err := rottnest.CreateTable(ctx, store, "lake/logs", schema)
	if err != nil {
		log.Fatal(err)
	}
	client := rottnest.NewClient(table, rottnest.Config{IndexDir: "rottnest/logs"})

	// Ingest + index, hour by hour.
	text := workload.NewTextGen(workload.DefaultTextConfig(13))
	for hour := 0; hour < hours; hour++ {
		b := rottnest.NewBatch(schema)
		tss := make([]int64, rowsPerHour)
		msgs := make([][]byte, rowsPerHour)
		for i := 0; i < rowsPerHour; i++ {
			tss[i] = int64(hour*3600 + i*3600/rowsPerHour)
			msgs[i] = []byte("INFO " + text.Doc())
		}
		if hour == incidentHour {
			msgs[300] = []byte("ERROR payment declined code 502 retrying")
			msgs[700] = []byte("ERROR payment declined code 700 giving up")
		}
		b.Cols[0] = rottnest.ColumnValues{Ints: tss}
		b.Cols[1] = rottnest.ColumnValues{Bytes: msgs}
		if _, err := table.Append(ctx, b, rottnest.FileWriterOptions{RowGroupRows: 2048, PageBytes: 16 << 10}); err != nil {
			log.Fatal(err)
		}
		if _, err := client.Index(ctx, "message", rottnest.KindFM); err != nil {
			log.Fatal(err)
		}
	}
	// Keep the index tidy.
	if _, err := client.Compact(ctx, "message", rottnest.KindFM, rottnest.CompactOptions{}); err != nil {
		log.Fatal(err)
	}
	if _, err := client.Vacuum(ctx, rottnest.VacuumOptions{}); err != nil {
		log.Fatal(err)
	}
	snap, _ := table.Snapshot(ctx)
	fmt.Printf("lake: %d hourly files, %d rows\n", len(snap.Files), snap.LiveRows())

	investigate := func(label string, partition *rottnest.PartitionFilter) {
		session := rottnest.NewSession()
		sctx := rottnest.WithSession(ctx, session)
		res, err := client.Search(sctx, rottnest.Query{
			Column:    "message",
			Regex:     `ERROR payment declined code \d+`,
			K:         0,
			Snapshot:  -1,
			Partition: partition,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-28s %d hit(s), %d files pruned, latency %v\n",
			label, len(res.Matches), res.Stats.PrunedFiles, res.Stats.Latency.Round(1e6))
		for _, m := range res.Matches {
			fmt.Printf("    row %d: %s\n", m.Row, m.Value)
		}
	}

	// Unfiltered: the regex's literal "ERROR payment declined code "
	// drives the FM-index over the whole table.
	investigate("whole table:", nil)

	// The on-call knows the incident window: prune to that hour.
	investigate("incident window only:", &rottnest.PartitionFilter{
		Column: "ts", Min: incidentHour * 3600, Max: (incidentHour+1)*3600 - 1,
	})

	snapReq := metrics.Snapshot()
	fmt.Printf("total object-store traffic: %d requests, %.1f MB read\n",
		snapReq.Requests(), float64(snapReq.BytesRead)/1e6)
}
