package bench

import (
	"context"
	"fmt"
	"time"

	"rottnest/internal/component"
	"rottnest/internal/fmindex"
	"rottnest/internal/ivfpq"
	"rottnest/internal/objectstore"
	"rottnest/internal/parquet"
	"rottnest/internal/postings"
	"rottnest/internal/simtime"
	"rottnest/internal/trie"
	"rottnest/internal/workload"
)

// AblationResult holds the design-choice ablations of DESIGN.md §8.
type AblationResult struct {
	// Componentized vs whole-file-download trie lookups.
	ComponentizedLookup time.Duration
	WholeFileLookup     time.Duration
	// FM block-size sweep: block size -> (query latency, index bytes).
	FMBlockLatency map[int]time.Duration
	FMBlockBytes   map[int]int64
	// Trie leaf-component-size sweep.
	TrieComponentLatency map[int]time.Duration
	// PQ M sweep: M -> (recall@10, index bytes).
	PQRecall map[int]float64
	PQBytes  map[int]int64
	// Page-size sweep: page bytes -> probe latency.
	PageProbeLatency map[int]time.Duration
}

// Ablations measures the cost of Rottnest's individual design
// choices, the knobs Section V motivates:
//
//   - componentization vs downloading the whole index per query;
//   - FM-index BWT block size (rank granularity vs request count);
//   - trie leaf component size (transfer size vs request count);
//   - PQ subquantizer count M (accuracy vs index size);
//   - Parquet page size (probe transfer vs page count).
func Ablations(opts Options) (*AblationResult, error) {
	ctx := context.Background()
	out := opts.out()
	res := &AblationResult{
		FMBlockLatency:       map[int]time.Duration{},
		FMBlockBytes:         map[int]int64{},
		TrieComponentLatency: map[int]time.Duration{},
		PQRecall:             map[int]float64{},
		PQBytes:              map[int]int64{},
		PageProbeLatency:     map[int]time.Duration{},
	}
	clock := simtime.NewVirtualClock()
	model := objectstore.DefaultS3Model()
	store := objectstore.NewStack(objectstore.NewMemStore(clock), objectstore.StackOptions{
		Latency:    &model,
		CacheBytes: -1,
	})

	// --- Componentization vs whole-file download (trie). ---
	// Large enough that the whole index is throughput-bound to
	// download while a single component stays latency-bound.
	nKeys := opts.scaleInt(6000000, 2500000)
	keys := workload.NewUUIDGen(opts.Seed).Batch(nKeys)
	refs := make([]postings.PageRef, nKeys)
	for i := range refs {
		refs[i] = postings.PageRef{Page: uint32(i / 1000)}
	}
	trieBytes, err := trie.Build(keys, refs, trie.BuildOptions{})
	if err != nil {
		return nil, err
	}
	if err := store.Put(ctx, "ab/trie.index", trieBytes); err != nil {
		return nil, err
	}
	measure := func(fn func(context.Context) error) (time.Duration, error) {
		session := simtime.NewSession()
		err := fn(simtime.With(ctx, session))
		return session.Elapsed(), err
	}
	res.ComponentizedLookup, err = measure(func(ctx context.Context) error {
		r, err := component.Open(ctx, store, "ab/trie.index", component.OpenOptions{})
		if err != nil {
			return err
		}
		ix, err := trie.Open(ctx, r)
		if err != nil {
			return err
		}
		_, err = ix.Lookup(ctx, keys[7])
		return err
	})
	if err != nil {
		return nil, err
	}
	res.WholeFileLookup, err = measure(func(ctx context.Context) error {
		// The serialize-the-whole-structure approach of Section V-B:
		// download and decompress everything, then query in memory.
		if _, err := store.Get(ctx, "ab/trie.index"); err != nil {
			return err
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "# Ablation: componentization (trie, %.1f MB index)\n", float64(len(trieBytes))/1e6)
	fmt.Fprintf(out, "componentized lookup: %-10s whole-file download: %s\n\n",
		res.ComponentizedLookup.Round(time.Millisecond), res.WholeFileLookup.Round(time.Millisecond))

	// --- FM block size sweep. ---
	gen := workload.NewTextGen(workload.DefaultTextConfig(opts.Seed + 1))
	docs := workload.PlantNeedle(gen.Docs(opts.scaleInt(8000, 2500)), "AblationNdl", []int{100})
	var text []byte
	var starts []int64
	var pageRefs []postings.PageRef
	for i, d := range docs {
		if i%200 == 0 {
			starts = append(starts, int64(len(text)))
			pageRefs = append(pageRefs, postings.PageRef{Page: uint32(len(pageRefs))})
		}
		text = append(text, d...)
		text = append(text, fmindex.Separator)
	}
	fmt.Fprintf(out, "# Ablation: FM-index block size (%.1f MB text)\n", float64(len(text))/1e6)
	fmt.Fprintf(out, "%-12s %-14s %-12s\n", "block", "query", "index bytes")
	for _, block := range []int{16 << 10, 64 << 10, 256 << 10, 1 << 20} {
		data, err := fmindex.Build(text, starts, pageRefs, fmindex.BuildOptions{BlockSize: block})
		if err != nil {
			return nil, err
		}
		key := fmt.Sprintf("ab/fm-%d.index", block)
		if err := store.Put(ctx, key, data); err != nil {
			return nil, err
		}
		lat, err := measure(func(ctx context.Context) error {
			r, err := component.Open(ctx, store, key, component.OpenOptions{})
			if err != nil {
				return err
			}
			ix, err := fmindex.Open(ctx, r)
			if err != nil {
				return err
			}
			_, err = ix.Lookup(ctx, []byte("AblationNdl"), 100)
			return err
		})
		if err != nil {
			return nil, err
		}
		res.FMBlockLatency[block] = lat
		res.FMBlockBytes[block] = int64(len(data))
		fmt.Fprintf(out, "%-12s %-14s %-12d\n", byteSize(int64(block)), lat.Round(time.Millisecond), len(data))
	}
	fmt.Fprintln(out)

	// --- Trie leaf component size sweep. ---
	fmt.Fprintf(out, "# Ablation: trie leaf component size (%d keys)\n", nKeys)
	fmt.Fprintf(out, "%-12s %-14s\n", "component", "lookup")
	for _, target := range []int{16 << 10, 128 << 10, 1 << 20, 8 << 20} {
		data, err := trie.Build(keys, refs, trie.BuildOptions{TargetComponentBytes: target})
		if err != nil {
			return nil, err
		}
		key := fmt.Sprintf("ab/trie-%d.index", target)
		if err := store.Put(ctx, key, data); err != nil {
			return nil, err
		}
		lat, err := measure(func(ctx context.Context) error {
			r, err := component.Open(ctx, store, key, component.OpenOptions{})
			if err != nil {
				return err
			}
			ix, err := trie.Open(ctx, r)
			if err != nil {
				return err
			}
			_, err = ix.Lookup(ctx, keys[12345])
			return err
		})
		if err != nil {
			return nil, err
		}
		res.TrieComponentLatency[target] = lat
		fmt.Fprintf(out, "%-12s %-14s\n", byteSize(int64(target)), lat.Round(time.Millisecond))
	}
	fmt.Fprintln(out)

	// --- PQ M sweep. ---
	vgen := workload.NewVectorGen(workload.VectorConfig{Seed: opts.Seed + 2, Dim: 32, Clusters: 256, Spread: 0.5})
	nv := opts.scaleInt(30000, 10000)
	vecs := vgen.Batch(nv)
	queries := vgen.Queries(opts.scaleInt(20, 10))
	rowRefs := make([]postings.RowRef, nv)
	for i := range rowRefs {
		rowRefs[i] = postings.RowRef{Row: int64(i)}
	}
	fmt.Fprintf(out, "# Ablation: PQ subquantizers M (dim 32, %d vectors)\n", nv)
	fmt.Fprintf(out, "%-6s %-12s %-12s %-12s\n", "M", "recall@10", "bytes/vec", "index bytes")
	for _, m := range []int{4, 8, 16} {
		data, err := ivfpq.Build(vecs, rowRefs, ivfpq.BuildOptions{M: m, Seed: opts.Seed})
		if err != nil {
			return nil, err
		}
		key := fmt.Sprintf("ab/pq-%d.index", m)
		if err := store.Put(ctx, key, data); err != nil {
			return nil, err
		}
		r, err := component.Open(ctx, store, key, component.OpenOptions{})
		if err != nil {
			return nil, err
		}
		ix, err := ivfpq.Open(ctx, r)
		if err != nil {
			return nil, err
		}
		var recallSum float64
		for _, q := range queries {
			cands, err := ix.Search(ctx, q, 16, 10)
			if err != nil {
				return nil, err
			}
			got := make([]int, len(cands))
			for i, c := range cands {
				got[i] = int(c.Ref.Row)
			}
			recallSum += workload.Recall(got, workload.ExactNearest(vecs, q, 10))
		}
		recall := recallSum / float64(len(queries))
		res.PQRecall[m] = recall
		res.PQBytes[m] = int64(len(data))
		fmt.Fprintf(out, "%-6d %-12.3f %-12.1f %-12d\n", m, recall, float64(len(data))/float64(nv), len(data))
	}
	fmt.Fprintln(out)

	// --- Page size sweep: the raw in-situ probe cost (one page read
	// and decode), isolated from index query time. Pages up to ~1MB
	// sit in the flat latency region; beyond it each probe pays the
	// transfer — the exact trade Section V-A tunes with ~1MB pages.
	fmt.Fprintln(out, "# Ablation: Parquet page size (single-page in-situ probe)")
	fmt.Fprintf(out, "%-12s %-14s %-14s %-8s\n", "page target", "probe", "physical", "pages")
	uw2 := workload.NewTextGen(workload.DefaultTextConfig(opts.Seed + 3))
	probeDocs := uw2.Docs(opts.scaleInt(60000, 25000))
	batchVals := make([][]byte, len(probeDocs))
	for i, d := range probeDocs {
		batchVals[i] = []byte(d)
	}
	for _, pageBytes := range []int{64 << 10, 300 << 10, 1 << 20, 4 << 20, 16 << 20} {
		batch := parquet.NewBatch(textSchema)
		batch.Cols[0] = parquet.ColumnValues{Bytes: batchVals}
		key := fmt.Sprintf("ab/pages-%d.rpq", pageBytes)
		_, tables, err := parquet.WriteFile(ctx, store, key, batch, parquet.WriterOptions{
			PageBytes: pageBytes, RowGroupRows: len(probeDocs),
		})
		if err != nil {
			return nil, err
		}
		page := tables[0][len(tables[0])/2]
		lat, err := measure(func(ctx context.Context) error {
			_, err := parquet.ReadPages(ctx, store, key, textSchema.Columns[0], []parquet.PageInfo{page})
			return err
		})
		if err != nil {
			return nil, err
		}
		res.PageProbeLatency[pageBytes] = lat
		fmt.Fprintf(out, "%-12s %-14s %-14s %-8d\n",
			byteSize(int64(pageBytes)), lat.Round(time.Millisecond), byteSize(page.Size), len(tables[0]))
	}
	return res, nil
}
