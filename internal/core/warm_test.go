package core

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"rottnest/internal/component"
	"rottnest/internal/workload"
)

// TestWarmRepeatQueryZeroGETs is the tentpole acceptance check: with
// the default configuration (byte cache + decoded-object cache + plan
// cache all on), a repeated query issues zero object-store GETs — no
// planning LIST round, no index directory or manifest fetch, no index
// header decode fetch, and every probed page served from the byte
// cache.
func TestWarmRepeatQueryZeroGETs(t *testing.T) {
	ctx := context.Background()

	t.Run("uuid", func(t *testing.T) {
		e := newEnv(t, uuidSchema, Config{})
		gen := workload.NewUUIDGen(11)
		keys, _ := e.appendUUIDs(t, gen, 1500)
		if _, err := e.cli.Index(ctx, "id", component.KindTrie); err != nil {
			t.Fatal(err)
		}
		assertWarmZeroGETs(t, e, uuidQuery(keys[17]))
	})

	t.Run("substring", func(t *testing.T) {
		e := newEnv(t, textSchema, Config{})
		docs := make([]string, 600)
		for i := range docs {
			docs[i] = fmt.Sprintf("log line %d with filler text", i)
		}
		docs[123] = "log line 123 carrying NdlWarmXq inside"
		e.appendDocs(t, docs)
		if _, err := e.cli.Index(ctx, "body", component.KindFM); err != nil {
			t.Fatal(err)
		}
		assertWarmZeroGETs(t, e, Query{Column: "body", Substring: []byte("NdlWarmXq"), K: 5, Snapshot: -1})
	})

	t.Run("vector", func(t *testing.T) {
		gen := workload.NewVectorGen(workload.VectorConfig{Seed: 7, Dim: 8, Clusters: 8, Spread: 0.2})
		vecs := gen.Batch(1500)
		e := newEnv(t, vecSchema(8), Config{})
		e.appendVectors(t, vecs)
		if _, err := e.cli.Index(ctx, "emb", component.KindIVFPQ); err != nil {
			t.Fatal(err)
		}
		assertWarmZeroGETs(t, e, Query{Column: "emb", Vector: vecs[31], K: 5, NProbe: 8, Snapshot: -1})
	})
}

func assertWarmZeroGETs(t *testing.T, e *env, q Query) {
	t.Helper()
	ctx := context.Background()
	cold, err := e.cli.Search(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Stats.GETs == 0 {
		t.Fatal("priming search issued no GETs; scenario not exercised")
	}
	for i := 0; i < 3; i++ {
		warm, err := e.cli.Search(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if warm.Stats.GETs != 0 {
			t.Fatalf("warm repeat %d issued %d GETs (%d bytes), want 0", i, warm.Stats.GETs, warm.Stats.BytesRead)
		}
		if !reflect.DeepEqual(warm.Matches, cold.Matches) {
			t.Fatalf("warm matches diverged from cold: %v vs %v", warm.Matches, cold.Matches)
		}
	}
	snap := e.cli.Metrics()
	if snap.Counter("objcache.hits") == 0 {
		t.Error("warm repeats produced no decoded-cache hits")
	}
	if snap.Counter("search.plan_cache_hits") == 0 {
		t.Error("warm repeats produced no plan-cache hits")
	}
}

// TestLakeCommitsAdvancePlanVersion pins the lake commit hook: every
// commit through the table handle (appends, DeleteRows) moves the plan
// cache's latest-version pointer, which is what lets a latest-snapshot
// query resolve its version without a LIST.
func TestLakeCommitsAdvancePlanVersion(t *testing.T) {
	ctx := context.Background()
	e := newEnv(t, uuidSchema, Config{})
	latest := func() int64 {
		e.cli.plans.mu.Lock()
		defer e.cli.plans.mu.Unlock()
		return e.cli.plans.latest
	}
	gen := workload.NewUUIDGen(3)
	_, path := e.appendUUIDs(t, gen, 100)
	e.appendUUIDs(t, gen, 100)
	if got := latest(); got != 3 {
		t.Fatalf("latest version after two appends = %d, want 3", got)
	}
	if err := e.table.DeleteRows(ctx, path, []uint32{7}); err != nil {
		t.Fatal(err)
	}
	if got := latest(); got != 4 {
		t.Fatalf("latest version after DeleteRows = %d, want 4", got)
	}
}

// TestWarmSearchesMatchColdUnderMutation runs warm searches (all
// caches on) concurrently with appends, deletes, index builds,
// compactions, and vacuums, comparing every result byte-for-byte
// against a cold-cache client on the same store at the same pinned
// snapshot version. Run under -race in make check.
func TestWarmSearchesMatchColdUnderMutation(t *testing.T) {
	ctx := context.Background()
	e := newEnv(t, uuidSchema, Config{})
	cold := NewClient(e.table, Config{
		IndexDir: "rottnest", Clock: e.clock,
		CacheBytes: -1, DecodedCacheBytes: -1, PlanCacheTTLVersions: -1,
	})
	gen := workload.NewUUIDGen(5)
	var mu sync.Mutex
	var keys [][16]byte
	var paths []string
	addBatch := func(n int) {
		ks, p := e.appendUUIDs(t, gen, n)
		mu.Lock()
		keys = append(keys, ks...)
		paths = append(paths, p)
		mu.Unlock()
	}
	addBatch(600)
	addBatch(600)
	if _, err := e.cli.Index(ctx, "id", component.KindTrie); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	writerDone := make(chan error, 1)
	go func() {
		defer close(writerDone)
		for i := 0; i < 6; i++ {
			addBatch(400)
			mu.Lock()
			p := paths[i%len(paths)]
			mu.Unlock()
			if err := e.table.DeleteRows(ctx, p, []uint32{uint32(i * 3)}); err != nil {
				writerDone <- err
				return
			}
			if _, err := e.cli.Index(ctx, "id", component.KindTrie); err != nil {
				writerDone <- err
				return
			}
			if i%2 == 1 {
				if _, err := e.cli.Compact(ctx, "id", component.KindTrie, CompactOptions{}); err != nil {
					writerDone <- err
					return
				}
			}
			if i%3 == 2 {
				if _, err := e.cli.Vacuum(ctx, VacuumOptions{}); err != nil {
					writerDone <- err
					return
				}
			}
		}
	}()

	const searchers = 4
	var wg sync.WaitGroup
	errs := make([]error, searchers)
	for s := 0; s < searchers; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				v, err := e.table.Version(ctx)
				if err != nil {
					errs[s] = err
					return
				}
				mu.Lock()
				k := keys[(s*997+i*31)%len(keys)]
				mu.Unlock()
				q := uuidQuery(k)
				q.Snapshot = v
				warm, err := e.cli.Search(ctx, q)
				if err != nil {
					errs[s] = fmt.Errorf("warm search at v%d: %w", v, err)
					return
				}
				coldRes, err := cold.Search(ctx, q)
				if err != nil {
					errs[s] = fmt.Errorf("cold search at v%d: %w", v, err)
					return
				}
				if !reflect.DeepEqual(warm.Matches, coldRes.Matches) {
					errs[s] = fmt.Errorf("at v%d key %x: warm %v != cold %v", v, k, warm.Matches, coldRes.Matches)
					return
				}
			}
		}(s)
	}
	if err := <-writerDone; err != nil {
		t.Error(err)
	}
	close(stop)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}
