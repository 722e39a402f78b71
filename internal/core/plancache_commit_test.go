package core

import (
	"context"
	"fmt"
	"testing"

	"rottnest/internal/component"
	"rottnest/internal/lake"
	"rottnest/internal/parquet"
	"rottnest/internal/workload"
)

// TestPlanCacheBoundedUnderRapidCommits pins the plan cache's behaviour
// under a continuous-ingestion commit rate: every group commit advances
// the lake version (firing the commit hook that moves the cache's
// latest pointer), searches at the latest snapshot always see the rows
// of the newest commit, and the entry count stays within the TTL
// window instead of growing with the commit count.
func TestPlanCacheBoundedUnderRapidCommits(t *testing.T) {
	ctx := context.Background()
	e := newEnv(t, uuidSchema, Config{})
	gen := workload.NewUUIDGen(11)
	keys, _ := e.appendUUIDs(t, gen, 200)
	if _, err := e.cli.Index(ctx, "id", component.KindTrie); err != nil {
		t.Fatal(err)
	}
	// Warm the cache at the current version.
	if _, err := e.cli.Search(ctx, uuidQuery(keys[0])); err != nil {
		t.Fatal(err)
	}

	const rounds = 30
	for round := 0; round < rounds; round++ {
		// One group commit per round: two staged files, one log entry.
		var pending []lake.PendingFile
		var probe [16]byte
		for f := 0; f < 2; f++ {
			ks := gen.Batch(4)
			probe = ks[0]
			b := parquet.NewBatch(uuidSchema)
			ids := make([][]byte, len(ks))
			pay := make([][]byte, len(ks))
			for i, k := range ks {
				kk := k
				ids[i] = kk[:]
				pay[i] = []byte(fmt.Sprintf("r%d", round))
			}
			b.Cols[0] = parquet.ColumnValues{Bytes: ids}
			b.Cols[1] = parquet.ColumnValues{Bytes: pay}
			pf, err := e.table.WriteFile(ctx, b, parquet.WriterOptions{})
			if err != nil {
				t.Fatal(err)
			}
			pending = append(pending, pf)
		}
		if _, err := e.table.CommitFiles(ctx, pending...); err != nil {
			t.Fatal(err)
		}
		// Freshness: a latest-snapshot search must see the rows this
		// very commit landed (they are unindexed, so the scan path
		// covers them — a stale cached plan would miss the new files).
		res, err := e.cli.Search(ctx, uuidQuery(probe))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Matches) != 1 {
			t.Fatalf("round %d: fresh key matched %d times", round, len(res.Matches))
		}
	}

	snap := e.cli.Metrics()
	entries := snap.Gauge("search.plan_cache_entries")
	if entries <= 0 {
		t.Fatalf("plan_cache_entries = %d, want > 0", entries)
	}
	// One (column, kind) listing per version in the TTL window; the
	// bound is the window size, not the commit count.
	if max := int64(defaultPlanTTLVersions + 1); entries > max {
		t.Fatalf("plan_cache_entries = %d after %d rapid commits, want <= %d (TTL pruning)",
			entries, rounds, max)
	}
	if misses := snap.Counter("search.plan_cache_misses"); misses < rounds {
		t.Fatalf("plan_cache_misses = %d, want >= %d (every commit is a new version)", misses, rounds)
	}
}
