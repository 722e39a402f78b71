package bench

import (
	"context"
	"fmt"
	"time"

	"rottnest/internal/component"
	"rottnest/internal/core"
	"rottnest/internal/fmindex"
	"rottnest/internal/ivfpq"
	"rottnest/internal/objectstore"
	"rottnest/internal/parquet"
	"rottnest/internal/postings"
	"rottnest/internal/trie"
	"rottnest/internal/workload"
)

// SAStageResult compares the SA-IS suffix-array builder against the
// retained prefix-doubling oracle on the same text.
type SAStageResult struct {
	TextBytes int     `json:"text_bytes"`
	SAISMs    float64 `json:"sais_ms"`
	OracleMs  float64 `json:"oracle_ms"`
	Speedup   float64 `json:"speedup"`
}

// FMStageResult compares the full FM build pipelines: SA-IS plus the
// parallel encode against the retained serial seed path. The two emit
// byte-identical files, so the speedup is pure build-path improvement.
type FMStageResult struct {
	TextBytes   int     `json:"text_bytes"`
	BuildMs     float64 `json:"build_ms"`
	ReferenceMs float64 `json:"reference_ms"`
	Speedup     float64 `json:"speedup"`
	MBPerSec    float64 `json:"mb_per_sec"`
}

// KindThroughput is a direct single-kind build rate measurement.
type KindThroughput struct {
	Rows       int     `json:"rows"`
	BuildMs    float64 `json:"build_ms"`
	RowsPerSec float64 `json:"rows_per_sec"`
}

// EndToEndResult is the wall-clock rate of Client.Index — column scan,
// input assembly, index build, and upload — over a freshly ingested
// table.
type EndToEndResult struct {
	Kind       string  `json:"kind"`
	Rows       int     `json:"rows"`
	IndexMs    float64 `json:"index_ms"`
	RowsPerSec float64 `json:"rows_per_sec"`
}

// MaintenanceDepth is the request shape of one maintenance call, as
// counts only: the GETs it issues and the dependent round trips it
// waits through — its virtual time on a store where every request
// costs one unit. Both are exact for a seed, so benchgate holds them
// to "may not grow".
type MaintenanceDepth struct {
	Call   string `json:"call"`
	Gets   int64  `json:"maint_gets"`
	Levels int64  `json:"maint_levels"`
}

// BuildResult aggregates the build-path experiment, written to
// BENCH_build.json by `rottnest-bench build`.
type BuildResult struct {
	SuffixArray SAStageResult      `json:"suffix_array"`
	FM          FMStageResult      `json:"fm"`
	Trie        KindThroughput     `json:"trie"`
	IVFPQ       KindThroughput     `json:"ivfpq"`
	EndToEnd    []EndToEndResult   `json:"end_to_end"`
	Maintenance []MaintenanceDepth `json:"maintenance"`
}

// buildText generates ~size bytes of separator-joined workload text
// with a page boundary every 16 documents, shaped like the FM build's
// real input.
func buildText(seed int64, size int) ([]byte, []int64, []postings.PageRef) {
	gen := workload.NewTextGen(workload.DefaultTextConfig(seed))
	var text []byte
	var starts []int64
	var refs []postings.PageRef
	for i := 0; len(text) < size; i++ {
		if i%16 == 0 {
			starts = append(starts, int64(len(text)))
			refs = append(refs, postings.PageRef{File: 0, Page: uint32(len(refs))})
		}
		text = append(text, []byte(gen.Docs(1)[0])...)
		text = append(text, fmindex.Separator)
	}
	return text, starts, refs
}

// bestOf runs fn reps times and returns the fastest wall-clock run —
// the standard guard against scheduler noise when comparing two
// implementations on the same input.
func bestOf(reps int, fn func()) float64 {
	best := time.Duration(1<<63 - 1)
	for r := 0; r < reps; r++ {
		start := time.Now()
		fn()
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return float64(best) / float64(time.Millisecond)
}

// IndexBuild benchmarks the index-build fast path: SA-IS versus the
// prefix-doubling oracle, the full FM pipeline versus the retained
// serial seed path (byte-identical output), direct trie and IVF-PQ
// build rates, and end-to-end Client.Index throughput per index kind.
// The suffix-array and FM comparisons always run on a full 1 MB of
// text — -quick shrinks only the secondary measurements — because the
// ">= 2x on 1 MB" acceptance bar is measured here.
func IndexBuild(opts Options) (*BuildResult, error) {
	ctx := context.Background()
	out := opts.out()
	res := &BuildResult{}
	reps := opts.scaleInt(5, 3)

	// Stage 1: suffix array, SA-IS vs oracle.
	text, starts, refs := buildText(opts.Seed, 1<<20)
	full := append(append(make([]byte, 0, len(text)+1), text...), fmindex.Sentinel)
	fmindex.SuffixArray(full) // warm up
	fmindex.ReferenceSuffixArray(full)
	res.SuffixArray = SAStageResult{TextBytes: len(full)}
	res.SuffixArray.SAISMs = bestOf(reps, func() { fmindex.SuffixArray(full) })
	res.SuffixArray.OracleMs = bestOf(reps, func() { fmindex.ReferenceSuffixArray(full) })
	res.SuffixArray.Speedup = res.SuffixArray.OracleMs / res.SuffixArray.SAISMs
	fmt.Fprintf(out, "# build: suffix array, 1 MB text\nsais %.1fms  oracle %.1fms  speedup %.2fx\n",
		res.SuffixArray.SAISMs, res.SuffixArray.OracleMs, res.SuffixArray.Speedup)

	// Stage 2: full FM build, new pipeline vs retained seed path.
	fmOpts := fmindex.BuildOptions{}
	res.FM = FMStageResult{TextBytes: len(text)}
	res.FM.BuildMs = bestOf(reps, func() {
		if _, err := fmindex.Build(text, starts, refs, fmOpts); err != nil {
			panic(err)
		}
	})
	res.FM.ReferenceMs = bestOf(reps, func() {
		if _, err := fmindex.ReferenceBuild(text, starts, refs, fmOpts); err != nil {
			panic(err)
		}
	})
	res.FM.Speedup = res.FM.ReferenceMs / res.FM.BuildMs
	res.FM.MBPerSec = float64(len(text)) / (1 << 20) / (res.FM.BuildMs / 1000)
	fmt.Fprintf(out, "# build: full FM pipeline, 1 MB text\nnew %.1fms  seed %.1fms  speedup %.2fx  (%.1f MB/s)\n",
		res.FM.BuildMs, res.FM.ReferenceMs, res.FM.Speedup, res.FM.MBPerSec)

	// Stage 3: direct trie and IVF-PQ build rates.
	nKeys := opts.scaleInt(200_000, 50_000)
	keys := workload.NewUUIDGen(opts.Seed + 1).Batch(nKeys)
	keyRefs := make([]postings.PageRef, nKeys)
	for i := range keyRefs {
		keyRefs[i] = postings.PageRef{File: uint32(i / 1024), Page: uint32(i % 1024)}
	}
	res.Trie = KindThroughput{Rows: nKeys}
	res.Trie.BuildMs = bestOf(reps, func() {
		if _, err := trie.Build(keys, keyRefs, trie.BuildOptions{}); err != nil {
			panic(err)
		}
	})
	res.Trie.RowsPerSec = float64(nKeys) / (res.Trie.BuildMs / 1000)

	nVecs := opts.scaleInt(30_000, 8_000)
	vecs := workload.NewVectorGen(workload.VectorConfig{Seed: opts.Seed + 2, Dim: 32, Clusters: 64, Spread: 0.2}).Batch(nVecs)
	rowRefs := make([]postings.RowRef, nVecs)
	for i := range rowRefs {
		rowRefs[i] = postings.RowRef{File: uint32(i % 4), Row: int64(i)}
	}
	res.IVFPQ = KindThroughput{Rows: nVecs}
	res.IVFPQ.BuildMs = bestOf(reps, func() {
		if _, err := ivfpq.Build(vecs, rowRefs, ivfpq.BuildOptions{Seed: opts.Seed, NList: 64, KMeansIters: 8, TrainSample: 10_000}); err != nil {
			panic(err)
		}
	})
	res.IVFPQ.RowsPerSec = float64(nVecs) / (res.IVFPQ.BuildMs / 1000)
	fmt.Fprintf(out, "# build: direct index rates\ntrie  %d keys in %.1fms (%.0f rows/s)\nivfpq %d vecs in %.1fms (%.0f rows/s)\n",
		res.Trie.Rows, res.Trie.BuildMs, res.Trie.RowsPerSec,
		res.IVFPQ.Rows, res.IVFPQ.BuildMs, res.IVFPQ.RowsPerSec)

	// Stage 4: end-to-end Client.Index per kind (scan + assemble +
	// build + upload), real wall clock.
	fmt.Fprintf(out, "# build: end-to-end Client.Index\n")
	endToEnd := func(kind string, rows int, index func(ctx context.Context) error) error {
		start := time.Now()
		if err := index(ctx); err != nil {
			return err
		}
		ms := float64(time.Since(start)) / float64(time.Millisecond)
		e := EndToEndResult{Kind: kind, Rows: rows, IndexMs: ms, RowsPerSec: float64(rows) / (ms / 1000)}
		res.EndToEnd = append(res.EndToEnd, e)
		fmt.Fprintf(out, "%-6s %d rows in %.1fms (%.0f rows/s)\n", kind, rows, e.IndexMs, e.RowsPerSec)
		return nil
	}

	textRows := opts.scaleInt(4000, 1200)
	tw, err := newTextWorld(opts.Seed+3, 4, textRows/4, core.Config{})
	if err != nil {
		return nil, err
	}
	if err := endToEnd("fm", textRows, func(ctx context.Context) error {
		_, err := tw.client.Index(ctx, "body", component.KindFM)
		return err
	}); err != nil {
		return nil, err
	}

	uuidRows := opts.scaleInt(120_000, 30_000)
	uw, err := newUUIDWorld(opts.Seed+4, 4, uuidRows/4, core.Config{})
	if err != nil {
		return nil, err
	}
	if err := endToEnd("trie", uuidRows, func(ctx context.Context) error {
		_, err := uw.client.Index(ctx, "id", component.KindTrie)
		return err
	}); err != nil {
		return nil, err
	}

	vecRows := opts.scaleInt(30_000, 8_000)
	vw, err := newVectorWorld(opts.Seed+5, vecRows, 32, 1, core.Config{})
	if err != nil {
		return nil, err
	}
	if err := endToEnd("ivfpq", vecRows, func(ctx context.Context) error {
		_, err := vw.client.Index(ctx, "emb", component.KindIVFPQ)
		return err
	}); err != nil {
		return nil, err
	}

	// Stage 5: how deep maintenance is, in requests and round trips.
	if res.Maintenance, err = maintenanceDepths(ctx, opts.Seed+6); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "# build: maintenance depth (GETs, dependent round trips)\n")
	for _, d := range res.Maintenance {
		fmt.Fprintf(out, "%-14s %3d GETs  %2d levels\n", d.Call, d.Gets, d.Levels)
	}
	return res, nil
}

// depthUnit is what every request costs on the depth world's store.
const depthUnit = time.Millisecond

// maintenanceDepths measures one Index call and one FM Compact of
// three sources on a store whose every request costs depthUnit of
// virtual time and moves bytes for free, so a call's virtual latency
// over the unit is the number of round trips it could not overlap.
func maintenanceDepths(ctx context.Context, seed int64) ([]MaintenanceDepth, error) {
	w, err := newWorldOn(objectstore.LatencyModel{GetTTFB: depthUnit, PutTTFB: depthUnit, ListTTFB: depthUnit}, textSchema, core.Config{})
	if err != nil {
		return nil, err
	}
	gen := workload.NewTextGen(workload.DefaultTextConfig(seed))
	// Three batches, each indexed on its own: three sources to merge,
	// and the last Index call — one new file beside two covered ones —
	// is the one recorded.
	var index MaintenanceDepth
	for i := 0; i < 3; i++ {
		batch := parquet.NewBatch(textSchema)
		for _, d := range gen.Docs(1500) {
			batch.Cols[0].Bytes = append(batch.Cols[0].Bytes, []byte(d))
		}
		if _, err := w.table.Append(ctx, batch, parquet.WriterOptions{RowGroupRows: 256, PageBytes: 32 << 10}); err != nil {
			return nil, err
		}
		if index, err = w.depthOf(ctx, "index", func(ctx context.Context) error {
			_, err := w.client.Index(ctx, "body", component.KindFM)
			return err
		}); err != nil {
			return nil, err
		}
	}
	compact, err := w.depthOf(ctx, "compact_fm_3", func(ctx context.Context) error {
		_, err := w.client.Compact(ctx, "body", component.KindFM, core.CompactOptions{})
		return err
	})
	return []MaintenanceDepth{index, compact}, err
}

// depthOf runs one call on a fresh session and returns its shape.
func (w *world) depthOf(ctx context.Context, call string, fn func(context.Context) error) (MaintenanceDepth, error) {
	before := w.metrics.Snapshot()
	virtual, err := virtualOp(ctx, fn)
	return MaintenanceDepth{
		Call:   call,
		Gets:   w.metrics.Snapshot().Sub(before).Gets,
		Levels: int64(virtual / depthUnit),
	}, err
}
