// Command quickstart is the smallest end-to-end Rottnest program: it
// creates a lake table of UUID-keyed events on a simulated object
// store, indexes the UUID column, and runs point lookups that would
// otherwise need a full scan — printing the simulated object-store
// latency of each.
//
// With -trace FILE, every lookup runs through Client.Trace, the span
// trees are written to FILE as JSON, and the program verifies its own
// output: the file must parse back, each tree must contain the
// search.plan and search.probe phases (and search.read when pages
// were probed), and the phase virtual durations must sum exactly to
// the latency the search reported. Any violation exits nonzero, which
// is what `make trace-smoke` relies on.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"

	"rottnest"
	"rottnest/internal/workload"
)

// tracedLookup is one lookup's span tree plus the stats the search
// itself reported, so the verification pass can cross-check them.
type tracedLookup struct {
	Pass      int                 `json:"pass"`
	Key       string              `json:"key"`
	LatencyNS int64               `json:"latency_ns"`
	Pages     int                 `json:"pages_probed"`
	Tree      *rottnest.TraceNode `json:"tree"`
}

func main() {
	tracePath := flag.String("trace", "", "write per-lookup span trees as JSON to this file and self-verify them")
	flag.Parse()

	ctx := context.Background()

	// A simulated S3: strong read-after-write consistency, ~30ms
	// GETs, metered requests.
	store, _, metrics := rottnest.NewSimulatedStore()

	// The lake: one table with a UUID column and a payload column.
	schema := rottnest.MustSchema(
		rottnest.Column{Name: "event_id", Type: rottnest.TypeFixedLenByteArray, TypeLen: 16},
		rottnest.Column{Name: "payload", Type: rottnest.TypeByteArray},
	)
	table, err := rottnest.CreateTable(ctx, store, "lake/events", schema)
	if err != nil {
		log.Fatal(err)
	}

	// Ingest three batches (three Parquet files).
	gen := workload.NewUUIDGen(42)
	var keys [][16]byte
	for batch := 0; batch < 3; batch++ {
		const rows = 20000
		ks := gen.Batch(rows)
		keys = append(keys, ks...)
		b := rottnest.NewBatch(schema)
		ids := make([][]byte, rows)
		payloads := make([][]byte, rows)
		for i, k := range ks {
			kk := k
			ids[i] = kk[:]
			payloads[i] = []byte(fmt.Sprintf("event %d of batch %d", i, batch))
		}
		b.Cols[0] = rottnest.ColumnValues{Bytes: ids}
		b.Cols[1] = rottnest.ColumnValues{Bytes: payloads}
		if _, err := table.Append(ctx, b, rottnest.FileWriterOptions{}); err != nil {
			log.Fatal(err)
		}
	}
	snap, _ := table.Snapshot(ctx)
	fmt.Printf("lake: %d files, %d rows\n", len(snap.Files), snap.LiveRows())

	// Build the Rottnest index (one call covers all new files).
	client := rottnest.NewClient(table, rottnest.Config{IndexDir: "rottnest/events"})
	entry, err := client.Index(ctx, "event_id", rottnest.KindTrie)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("indexed %d files (%d rows) into %s (%.1f KB)\n",
		len(entry.Files), entry.Rows, entry.IndexKey, float64(entry.SizeBytes)/1024)

	// Point lookups with virtual-latency accounting. Each search counts
	// the GETs it issued itself. The client reads through a shared LRU
	// cache (on by default), so repeating a lookup skips the object
	// store: the second pass reports fewer GETs and lower simulated
	// latency.
	var traced []tracedLookup
	for pass := 0; pass < 2; pass++ {
		fmt.Printf("--- pass %d (%s) ---\n", pass+1, map[int]string{0: "cold", 1: "warm"}[pass])
		for _, i := range []int{0, 25000, 59999} {
			session := rottnest.NewSession()
			sctx := rottnest.WithSession(ctx, session)
			k := keys[i]
			q := rottnest.Query{Column: "event_id", UUID: &k, K: 1, Snapshot: -1}
			var res *rottnest.Result
			if *tracePath != "" {
				var tree *rottnest.TraceNode
				res, tree, err = client.Trace(sctx, q)
				if err == nil {
					traced = append(traced, tracedLookup{
						Pass: pass + 1, Key: fmt.Sprintf("%x", k[:4]),
						LatencyNS: int64(res.Stats.Latency),
						Pages:     res.Stats.PagesProbed, Tree: tree,
					})
				}
			} else {
				res, err = client.Search(sctx, q)
			}
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("lookup %x...: %d match, %d pages probed, %d GETs, simulated latency %v\n",
				k[:4], len(res.Matches), res.Stats.PagesProbed, res.Stats.GETs,
				res.Stats.Latency.Round(1e6))
		}
	}

	m := client.Metrics()
	fmt.Printf("read cache: %d hits, %d misses, %.1f KB saved; decoded-object cache: %d hits\n",
		m.Counter("cache.hits"), m.Counter("cache.misses"), float64(m.Counter("cache.bytes_saved"))/1e3,
		m.Counter("objcache.hits"))
	snapTotals := metrics.Snapshot()
	fmt.Printf("total object-store traffic: %d requests, %.1f MB read\n",
		snapTotals.Requests(), float64(snapTotals.BytesRead)/1e6)

	if *tracePath != "" {
		if err := writeAndVerifyTraces(*tracePath, traced); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("traces: %d span trees written to %s and verified\n", len(traced), *tracePath)
	}
}

// writeAndVerifyTraces persists the collected trees and then checks
// them from the serialized form, so the round trip itself is part of
// what the smoke test proves.
func writeAndVerifyTraces(path string, traced []tracedLookup) error {
	if len(traced) == 0 {
		return fmt.Errorf("quickstart: no span trees collected")
	}
	data, err := json.MarshalIndent(traced, "", "  ")
	if err != nil {
		return fmt.Errorf("quickstart: marshal traces: %w", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("quickstart: write %s: %w", path, err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("quickstart: reread %s: %w", path, err)
	}
	var back []tracedLookup
	if err := json.Unmarshal(raw, &back); err != nil {
		return fmt.Errorf("quickstart: %s does not parse back: %w", path, err)
	}
	if len(back) != len(traced) {
		return fmt.Errorf("quickstart: %s holds %d trees, expected %d", path, len(back), len(traced))
	}
	for _, t := range back {
		where := fmt.Sprintf("pass %d lookup %s", t.Pass, t.Key)
		if t.Tree == nil {
			return fmt.Errorf("quickstart: %s: missing tree", where)
		}
		if err := t.Tree.Validate(); err != nil {
			return fmt.Errorf("quickstart: %s: %w", where, err)
		}
		for _, phase := range []string{"search.plan", "search.probe"} {
			if t.Tree.Find(phase) == nil {
				return fmt.Errorf("quickstart: %s: no %s span", where, phase)
			}
		}
		if t.Pages > 0 && t.Tree.Find("search.read") == nil {
			return fmt.Errorf("quickstart: %s: probed %d pages but has no search.read span", where, t.Pages)
		}
		// Phase virtual durations must sum exactly to the latency the
		// search reported: the session only advances inside phases.
		var sum int64
		for _, c := range t.Tree.Children {
			sum += int64(c.Virtual)
		}
		if sum != t.LatencyNS {
			return fmt.Errorf("quickstart: %s: phase virtual sum %dns != reported latency %dns", where, sum, t.LatencyNS)
		}
	}
	return nil
}
