package bench

import (
	"context"
	"fmt"

	"rottnest/internal/component"
	"rottnest/internal/core"
	"rottnest/internal/parquet"
	"rottnest/internal/simtime"
	"rottnest/internal/workload"
)

// MultiIntersectResult compares a compound AND plan against executing
// its predicates as separate searches, on a cold deployment: the plan
// probes each index once, intersects candidate page sets in memory,
// and fetches each surviving page exactly once, so it should issue
// strictly fewer GETs and read strictly fewer pages.
type MultiIntersectResult struct {
	Queries int `json:"queries"`
	// Per-query means over the measured set.
	CompoundGETs  float64 `json:"compound_gets"`
	SeparateGETs  float64 `json:"separate_gets"`
	CompoundPages float64 `json:"compound_pages"`
	SeparatePages float64 `json:"separate_pages"`
	// Candidate pages before intersection and pages the intersection
	// pruned, per compound query.
	PagesCandidate float64 `json:"pages_candidate"`
	PagesPruned    float64 `json:"pages_pruned"`
	// GETSavings is SeparateGETs/CompoundGETs — the headline win.
	GETSavings float64 `json:"get_savings"`
}

// MultiBatchResult compares a concurrent Zipf stream of compound
// queries with the shared-probe batcher on versus off. With the
// batcher on, concurrent and repeated identical probes coalesce onto
// one execution, so the probe-run count should collapse.
type MultiBatchResult struct {
	Clients  int `json:"clients"`
	Queries  int `json:"queries"`
	Universe int `json:"universe"`
	// Index probe executions over the measured pass.
	CoalescedProbeRuns   int64 `json:"coalesced_probe_runs"`
	IndependentProbeRuns int64 `json:"independent_probe_runs"`
	// ProbesCoalesced counts probes answered by a shared flight or the
	// probe memo instead of executing.
	ProbesCoalesced int64 `json:"probes_coalesced"`
	// ProbeSavings is IndependentProbeRuns/CoalescedProbeRuns.
	ProbeSavings float64 `json:"probe_savings"`
}

// MultiResult aggregates the multi-predicate planner experiment.
type MultiResult struct {
	Intersect MultiIntersectResult `json:"intersect"`
	Batch     MultiBatchResult     `json:"batch"`
}

var multiSchema = parquet.MustSchema(
	parquet.Column{Name: "id", Type: parquet.TypeFixedLenByteArray, TypeLen: 16},
	parquet.Column{Name: "body", Type: parquet.TypeByteArray},
)

// multiWorld is a two-indexed-column deployment: unique keys under a
// trie, documents with planted needles under an FM-index.
type multiWorld struct {
	*world
	keys    [][16]byte
	needles []string
	// needleRows[i] are the rows of batch i carrying needles[i].
	needleRows [][]int
}

func newMultiWorld(seed int64, batches, rowsPerBatch int, cfg core.Config) (*multiWorld, error) {
	ctx := context.Background()
	w, err := newWorld(multiSchema, cfg)
	if err != nil {
		return nil, err
	}
	uuidGen := workload.NewUUIDGen(seed)
	textGen := workload.NewTextGen(workload.DefaultTextConfig(seed))
	mw := &multiWorld{world: w}
	for b := 0; b < batches; b++ {
		ks := uuidGen.Batch(rowsPerBatch)
		docs := textGen.Docs(rowsPerBatch)
		needle := fmt.Sprintf("Ndl%dXq", b)
		rows := []int{rowsPerBatch / 4, rowsPerBatch / 2, 3 * rowsPerBatch / 4}
		docs = workload.PlantNeedle(docs, needle, rows)
		mw.keys = append(mw.keys, ks...)
		mw.needles = append(mw.needles, needle)
		mw.needleRows = append(mw.needleRows, rows)
		batch := parquet.NewBatch(multiSchema)
		ids := make([][]byte, rowsPerBatch)
		bodies := make([][]byte, rowsPerBatch)
		for i := range ks {
			k := ks[i]
			ids[i] = k[:]
			bodies[i] = []byte(docs[i])
		}
		batch.Cols[0] = parquet.ColumnValues{Bytes: ids}
		batch.Cols[1] = parquet.ColumnValues{Bytes: bodies}
		if _, err := w.table.Append(ctx, batch, parquet.WriterOptions{RowGroupRows: 256, PageBytes: 4 << 10}); err != nil {
			return nil, err
		}
	}
	if _, err := mw.indexAndCompact(ctx, "id", component.KindTrie); err != nil {
		return nil, err
	}
	if _, err := mw.indexAndCompact(ctx, "body", component.KindFM); err != nil {
		return nil, err
	}
	return mw, nil
}

// pair returns the i-th measured (key, needle) pair: a needled row's
// key and its batch needle, so the AND of the two predicates is
// nonempty and exercises a real cross-column intersection.
func (m *multiWorld) pair(i, rowsPerBatch int) ([16]byte, string) {
	b := i % len(m.needles)
	row := m.needleRows[b][i%len(m.needleRows[b])]
	return m.keys[b*rowsPerBatch+row], m.needles[b]
}

// Multi measures the multi-predicate planner: (1) a compound AND plan
// versus its predicates run as separate searches — GETs, pages read,
// pages pruned by the page-set intersection; (2) a concurrent Zipf
// stream of identical compound queries with shared-probe batching on
// versus off — probe executions and coalesced probes.
func Multi(o Options) (*MultiResult, error) {
	ctx := context.Background()
	out := o.out()
	res := &MultiResult{}

	batches := o.scaleInt(6, 3)
	rowsPerBatch := o.scaleInt(2000, 600)
	nQueries := o.scaleInt(12, 6)

	// --- Intersection: compound plan vs separate searches, cold. ---
	mw, err := newMultiWorld(o.Seed, batches, rowsPerBatch, core.Config{})
	if err != nil {
		return nil, err
	}
	it := &res.Intersect
	it.Queries = nQueries
	for i := 0; i < nQueries; i++ {
		key, needle := mw.pair(i, rowsPerBatch)
		k := key

		before := mw.store.Metrics.Snapshot()
		beforeReg := mw.client.Metrics()
		cres, err := mw.client.SearchCompound(simtime.With(ctx, simtime.NewSession()), core.CompoundQuery{
			Expr: core.And(
				core.PredUUID("id", k),
				core.PredSubstring("body", []byte(needle)),
			),
			K: 0, Snapshot: -1, Output: "body",
		})
		if err != nil {
			return nil, err
		}
		if len(cres.Matches) == 0 {
			return nil, fmt.Errorf("bench multi: compound query %d found nothing", i)
		}
		delta := mw.client.Metrics().Sub(beforeReg)
		it.CompoundGETs += float64(mw.store.Metrics.Snapshot().Sub(before).Gets)
		it.CompoundPages += float64(cres.Stats.PagesProbed)
		it.PagesCandidate += float64(delta.Counter("search.pages_candidate"))
		it.PagesPruned += float64(delta.Counter("search.pages_pruned"))

		before = mw.store.Metrics.Snapshot()
		for _, q := range []core.Query{
			{Column: "id", UUID: &k, K: 0, Snapshot: -1},
			{Column: "body", Substring: []byte(needle), K: 0, Snapshot: -1},
		} {
			sres, err := mw.client.Search(simtime.With(ctx, simtime.NewSession()), q)
			if err != nil {
				return nil, err
			}
			it.SeparatePages += float64(sres.Stats.PagesProbed)
		}
		it.SeparateGETs += float64(mw.store.Metrics.Snapshot().Sub(before).Gets)
	}
	n := float64(nQueries)
	it.CompoundGETs /= n
	it.SeparateGETs /= n
	it.CompoundPages /= n
	it.SeparatePages /= n
	it.PagesCandidate /= n
	it.PagesPruned /= n
	if it.CompoundGETs > 0 {
		it.GETSavings = it.SeparateGETs / it.CompoundGETs
	}

	// --- Batching: Zipf stream, batcher on vs off. ---
	clients := o.scaleInt(8, 4)
	perClient := o.scaleInt(48, 16)
	universe := o.scaleInt(12, 6)
	bt := &res.Batch
	bt.Clients = clients
	bt.Queries = clients * perClient
	bt.Universe = universe

	// run replays the stream with the batcher at batchBytes and returns
	// the probe executions and coalesced probes it took.
	run := func(batchBytes int64) (int64, int64, error) {
		w, err := newMultiWorld(o.Seed, batches, rowsPerBatch, core.Config{ProbeBatchBytes: batchBytes})
		if err != nil {
			return 0, 0, err
		}
		qs := make([]core.CompoundQuery, universe)
		for i := range qs {
			key, needle := w.pair(i, rowsPerBatch)
			k := key
			qs[i] = core.CompoundQuery{
				Expr: core.And(
					core.PredUUID("id", k),
					core.PredSubstring("body", []byte(needle)),
				),
				K: 0, Snapshot: -1, Output: "body",
			}
		}
		before := w.client.Metrics()
		if err := zipfStream(ctx, clients, perClient, universe, o.Seed, func(ctx context.Context, _, q int) error {
			_, err := w.client.SearchCompound(ctx, qs[q])
			return err
		}); err != nil {
			return 0, 0, err
		}
		delta := w.client.Metrics().Sub(before)
		return delta.Counter("search.probe_runs"), delta.Counter("search.probe_coalesced"), nil
	}

	onRuns, onCoalesced, err := run(core.DefaultProbeBatchBytes)
	if err != nil {
		return nil, err
	}
	offRuns, _, err := run(-1)
	if err != nil {
		return nil, err
	}
	bt.CoalescedProbeRuns = onRuns
	bt.IndependentProbeRuns = offRuns
	bt.ProbesCoalesced = onCoalesced
	if onRuns > 0 {
		bt.ProbeSavings = float64(offRuns) / float64(onRuns)
	}

	fmt.Fprintf(out, "Compound AND plan vs separate searches (%d queries, cold):\n", it.Queries)
	fmt.Fprintf(out, "  GETs/query      compound %.1f vs separate %.1f (%.2fx fewer)\n",
		it.CompoundGETs, it.SeparateGETs, it.GETSavings)
	fmt.Fprintf(out, "  pages/query     compound %.1f vs separate %.1f (candidate %.1f, pruned %.1f)\n",
		it.CompoundPages, it.SeparatePages, it.PagesCandidate, it.PagesPruned)
	fmt.Fprintf(out, "Shared-probe batching (%d clients x %d Zipf queries over %d distinct):\n",
		bt.Clients, perClient, bt.Universe)
	fmt.Fprintf(out, "  probe runs      batched %d vs independent %d (%.2fx fewer), %d coalesced\n",
		bt.CoalescedProbeRuns, bt.IndependentProbeRuns, bt.ProbeSavings, bt.ProbesCoalesced)
	return res, nil
}
