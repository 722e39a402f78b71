package core

import (
	"context"
	"fmt"
	"testing"

	"rottnest/internal/objcache"
	"rottnest/internal/objectstore"
	"rottnest/internal/obs"
	"rottnest/internal/workload"
)

// The tests here pin request counts of whole workloads on the
// experiment worlds of expworld_test.go, exactly: every pinned number
// is an integer total for the world's seed and sizes, so a count that
// moves either way fails, and the change that moved it re-pins it.
// Beside each pinned count, the comparison that makes it a win —
// against the baseline the same test runs — is asserted as a shape.

// serveWorkloads are the serving tests' three query universes, each
// with the GETs its stream issues with every cache off.
var serveWorkloads = []struct {
	name     string
	build    func(t testing.TB, cfg Config) (*env, []Query)
	coldGETs int64
}{
	{"uuid", func(t testing.TB, cfg Config) (*env, []Query) { return expUUIDWorld(t, 3, 600, 16, cfg) }, 192},
	{"substring", func(t testing.TB, cfg Config) (*env, []Query) { return expTextWorld(t, 3, 150, 9, cfg) }, 288},
	{"vector", func(t testing.TB, cfg Config) (*env, []Query) { return expVectorWorld(t, 2000, 16, 8, cfg) }, 475},
}

// serveClients clients replay servePerClient Zipf-drawn queries each.
const serveClients, servePerClient = 4, 24

// servePass serves the Zipf stream on a deployment built under cfg,
// primed by one pass over the query universe if prime is set, and
// returns its GETs and the client's metrics over the stream.
func servePass(t *testing.T, build func(testing.TB, Config) (*env, []Query), cfg Config, prime bool) (int64, obs.Snapshot) {
	t.Helper()
	w, universe := build(t, cfg)
	if prime {
		for _, q := range universe {
			if _, err := w.cli.Search(session(context.Background()), q); err != nil {
				t.Fatal(err)
			}
		}
	}
	before := w.cli.Metrics()
	n := gets(t, func(ctx context.Context) error {
		return zipfStream(ctx, serveClients, servePerClient, len(universe), expSeed, func(ctx context.Context, q int) error {
			_, err := w.cli.Search(ctx, universe[q])
			return err
		})
	})
	return n, w.cli.Metrics().Sub(before)
}

// TestServeRequestCounts pins what the caches buy a concurrent serving
// workload, in GETs: four clients replay 24 Zipf-drawn queries each
// (96 in all) over one deployment with every cache off, and over one
// with every cache (byte, decoded-object, plan) primed by one pass
// over the query universe. Every cache together leaves a repeat query
// nothing to fetch and nothing to decode.
func TestServeRequestCounts(t *testing.T) {
	for _, c := range serveWorkloads {
		t.Run(c.name, func(t *testing.T) {
			cold, _ := servePass(t, c.build, Config{}, false) // every cache off
			if cold != c.coldGETs {
				t.Errorf("caches off: %d GETs over %d queries, want %d", cold, serveClients*servePerClient, c.coldGETs)
			}
			warmGETs, warm := servePass(t, c.build, Config{
				CacheBytes:           objectstore.DefaultCacheBytes,
				DecodedCacheBytes:    objcache.DefaultMaxBytes,
				PlanCacheTTLVersions: 8,
			}, true)
			if warmGETs != 0 || warm.Counter("objcache.misses") != 0 {
				t.Errorf("every cache: %d GETs and %d decoded misses, want 0 and 0", warmGETs, warm.Counter("objcache.misses"))
			}
			if warm.Counter("objcache.hits") == 0 || warm.Counter("search.plan_cache_hits") == 0 {
				t.Errorf("every cache: %d decoded hits and %d plan hits, want some of each",
					warm.Counter("objcache.hits"), warm.Counter("search.plan_cache_hits"))
			}
		})
	}
}

// TestByteCacheRequestCounts pins the byte cache alone on the serving
// workload of TestServeRequestCounts, primed the same way: it serves
// every immutable object a repeat query reads, so the stream issues no
// GET — well under a third of the stream's GETs with caches off —
// and every read is a hit.
func TestByteCacheRequestCounts(t *testing.T) {
	for _, c := range serveWorkloads {
		t.Run(c.name, func(t *testing.T) {
			byteGETs, byteOnly := servePass(t, c.build, Config{CacheBytes: objectstore.DefaultCacheBytes}, true)
			if byteGETs != 0 || byteOnly.Counter("cache.hits") == 0 {
				t.Errorf("byte cache only: %d GETs (caches off: %d) and %d cache hits, want 0 GETs and some hits",
					byteGETs, c.coldGETs, byteOnly.Counter("cache.hits"))
			}
		})
	}
}

// TestCompoundANDRequestCounts pins a compound AND plan's requests on
// a cold deployment: six AND(uuid, substring) queries, each probing
// both indexes once, intersecting the candidate page sets in memory
// and fetching each surviving page once. The same predicates run as
// separate searches issue more GETs and read more pages.
func TestCompoundANDRequestCounts(t *testing.T) {
	w := newPairWorld(t, expSeed, 3, 600, Config{})
	var compoundGETs, compoundPages, separateGETs, separatePages, candidate, pruned int64
	for i := 0; i < 6; i++ {
		cq := w.and(i)
		before := w.cli.Metrics()
		compoundGETs += gets(t, func(ctx context.Context) error {
			res, err := w.cli.SearchCompound(session(ctx), cq)
			if err == nil && len(res.Matches) == 0 {
				err = fmt.Errorf("compound query %d found nothing", i)
			}
			if err == nil {
				compoundPages += int64(res.Stats.PagesProbed)
			}
			return err
		})
		delta := w.cli.Metrics().Sub(before)
		candidate += delta.Counter("search.pages_candidate")
		pruned += delta.Counter("search.pages_pruned")

		key, needle := w.pair(i)
		separateGETs += gets(t, func(ctx context.Context) error {
			for _, q := range []Query{
				{Column: "id", UUID: &key, Snapshot: -1},
				{Column: "body", Substring: needle, Snapshot: -1},
			} {
				res, err := w.cli.Search(session(ctx), q)
				if err != nil {
					return err
				}
				separatePages += int64(res.Stats.PagesProbed)
			}
			return nil
		})
	}
	if compoundGETs != 58 || compoundPages != 16 {
		t.Errorf("compound plans issued %d GETs and read %d pages, want 58 and 16", compoundGETs, compoundPages)
	}
	if compoundGETs >= separateGETs || compoundPages >= separatePages {
		t.Errorf("compound plans: %d GETs, %d pages; separate searches: %d GETs, %d pages; want fewer of both",
			compoundGETs, compoundPages, separateGETs, separatePages)
	}
	if pruned <= 0 || candidate <= pruned {
		t.Errorf("intersection pruned %d of %d candidate pages, want some but not all", pruned, candidate)
	}
}

// TestProbeBatchingRequestCounts pins the shared-probe batcher's index
// walks under a concurrent stream: four clients run 16 Zipf-drawn
// AND(uuid, substring) queries each over six distinct ones, and with
// the batcher on (it comes with the decoded-object cache) every
// distinct probe runs once — concurrent ones join its flight, later
// ones hit its memo. Without the batcher every query walks both
// indexes.
func TestProbeBatchingRequestCounts(t *testing.T) {
	runs := func(cfg Config) (runs, coalesced int64) {
		w := newPairWorld(t, expSeed, 3, 600, cfg)
		universe := make([]CompoundQuery, 6)
		for i := range universe {
			universe[i] = w.and(i)
		}
		before := w.cli.Metrics()
		if err := zipfStream(context.Background(), 4, 16, len(universe), expSeed, func(ctx context.Context, q int) error {
			_, err := w.cli.SearchCompound(ctx, universe[q])
			return err
		}); err != nil {
			t.Fatal(err)
		}
		delta := w.cli.Metrics().Sub(before)
		return delta.Counter("search.probe_runs"), delta.Counter("search.probe_coalesced")
	}
	batched, coalesced := runs(Config{DecodedCacheBytes: objcache.DefaultMaxBytes})
	independent, _ := runs(Config{DecodedCacheBytes: -1})
	if batched != 6 {
		t.Errorf("batched stream ran %d probes, want 6", batched)
	}
	if coalesced == 0 || independent < 2*batched {
		t.Errorf("batched stream coalesced %d probes and ran %d against %d independent, want some coalesced and at least 2x fewer runs",
			coalesced, batched, independent)
	}
}

// TestSuperwalkRequestCounts pins the FM superwalk's requests: six
// rounds of one OR over eight substring predicates, probed as one
// coordinated backward search that fetches each occ checkpoint block
// once per step across the patterns. The same patterns walked one at
// a time fetch at least 1.5x more blocks.
func TestSuperwalkRequestCounts(t *testing.T) {
	w := newPairWorld(t, expSeed, 8, 600, Config{})
	preds := make([]*Expr, len(w.needles))
	for i, needle := range w.needles {
		preds[i] = PredSubstring("body", []byte(needle))
	}
	var batchedGETs, batchedOcc, reused, singletonOcc int64
	for r := 0; r < 6; r++ {
		before := w.cli.Metrics()
		batchedGETs += gets(t, func(ctx context.Context) error {
			res, err := w.cli.SearchCompound(session(ctx), CompoundQuery{Expr: Or(preds...), Snapshot: -1, Output: "body"})
			if err == nil && len(res.Matches) == 0 {
				err = fmt.Errorf("superwalk round %d found nothing", r)
			}
			return err
		})
		delta := w.cli.Metrics().Sub(before)
		batchedOcc += delta.Counter("search.occ_fetched")
		reused += delta.Counter("search.occ_reused")

		before = w.cli.Metrics()
		for _, needle := range w.needles {
			if _, err := w.cli.Search(session(context.Background()), Query{Column: "body", Substring: []byte(needle), Snapshot: -1}); err != nil {
				t.Fatal(err)
			}
		}
		singletonOcc += w.cli.Metrics().Sub(before).Counter("search.occ_fetched")
	}
	if batchedOcc != 18 || batchedGETs != 180 {
		t.Errorf("superwalks fetched %d occ blocks in %d GETs, want 18 and 180", batchedOcc, batchedGETs)
	}
	if 2*singletonOcc < 3*batchedOcc || reused == 0 {
		t.Errorf("superwalks fetched %d occ blocks and reused %d, singleton walks %d; want at least 1.5x fewer and some reused",
			batchedOcc, reused, singletonOcc)
	}
}

// TestANDOrderingRequestCounts pins cost-based AND staging on
// lookup misses: six AND(uuid = absent key, substring = needle)
// queries, whose cheap trie stage comes back empty, so the FM walk
// is skipped and the query short-circuits. Each pays two GETs on this
// uncached client: the trie tail, and the FM tail its trie stage opens
// ahead and discards, the price of a level off every matching AND.
// The same queries with AND ordering switched off (a Config field,
// since removed) probed both indexes and issued 44 GETs.
func TestANDOrderingRequestCounts(t *testing.T) {
	w := newPairWorld(t, expSeed+1, 8, 600, Config{})
	miss := workload.NewUUIDGen(expSeed + 7919)
	var orderedGETs, skipped int64
	for r := 0; r < 6; r++ {
		cq := CompoundQuery{
			Expr:     And(PredUUID("id", miss.Next()), PredSubstring("body", []byte(w.needles[r%len(w.needles)]))),
			Snapshot: -1,
			Output:   "body",
		}
		before := w.cli.Metrics()
		orderedGETs += gets(t, func(ctx context.Context) error {
			res, err := w.cli.SearchCompound(session(ctx), cq)
			if err == nil && (len(res.Matches) != 0 || !res.Stats.ShortCircuited) {
				err = fmt.Errorf("miss query %d: %d matches, short-circuited %v; want none, true", r, len(res.Matches), res.Stats.ShortCircuited)
			}
			return err
		})
		skipped += w.cli.Metrics().Sub(before).Counter("search.leaves_skipped")
	}
	if orderedGETs != 12 {
		t.Errorf("ordered miss queries issued %d GETs, want 12", orderedGETs)
	}
	if skipped == 0 {
		t.Errorf("ordered miss queries skipped no leaves, want some skipped")
	}
}
