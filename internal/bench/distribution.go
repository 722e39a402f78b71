package bench

import (
	"context"
	"fmt"

	"rottnest/internal/component"
	"rottnest/internal/core"
	"rottnest/internal/parquet"
	"rottnest/internal/workload"
)

// DistributionPoint is one text distribution's measured outcome.
type DistributionPoint struct {
	// ZipfS is the word-frequency skew (higher = more repetitive =
	// lower entropy).
	ZipfS float64
	// VocabSize is the vocabulary size.
	VocabSize int
	// RawBytes / IndexBytes are the measured footprints.
	RawBytes, IndexBytes int64
	// IndexRatio is IndexBytes / RawBytes — what drives cpm_r.
	IndexRatio float64
	// WindowLo is the 10-month brute-force boundary of the derived
	// phase diagram.
	WindowLo float64
}

// DistributionResult holds the entropy sweep.
type DistributionResult struct {
	Points []DistributionPoint
}

// DistributionSensitivity is an extension experiment for Section
// VII-D2's observation that the TCO parameters depend on the *data
// distribution* in nonlinear ways ("entropy influences compression
// efficacy for text datasets"): the same byte volume of text at
// different entropies yields different index/raw size ratios, moving
// the brute-force phase boundary exactly as Figure 12's cpm_r knob
// predicts.
func DistributionSensitivity(opts Options) (*DistributionResult, error) {
	ctx := context.Background()
	out := opts.out()
	res := &DistributionResult{}

	configs := []struct {
		zipfS float64
		vocab int
	}{
		{1.01, 60000}, // near-uniform words: high entropy
		{1.1, 30000},  // web-like
		{1.4, 8000},   // skewed
		{2.0, 2000},   // highly repetitive: low entropy
	}
	docs := opts.scaleInt(6000, 2000)

	fmt.Fprintln(out, "# Distribution sensitivity (VII-D2): text entropy vs index ratio vs boundary")
	fmt.Fprintf(out, "%-8s %-8s %-10s %-10s %-10s %-12s\n", "zipfS", "vocab", "raw MB", "index MB", "idx/raw", "boundary@10mo")
	for _, cfg := range configs {
		w, err := newWorld(textSchema)
		if err != nil {
			return nil, err
		}
		gen := workload.NewTextGen(workload.TextConfig{
			Seed: opts.Seed, VocabSize: cfg.vocab, ZipfS: cfg.zipfS, DocWords: 80,
		})
		ds := gen.Docs(docs)
		batch := parquet.NewBatch(textSchema)
		vals := make([][]byte, len(ds))
		for i, d := range ds {
			vals[i] = []byte(d)
		}
		batch.Cols[0] = parquet.ColumnValues{Bytes: vals}
		if _, err := w.table.Append(ctx, batch, parquet.WriterOptions{RowGroupRows: 2048, PageBytes: 32 << 10}); err != nil {
			return nil, err
		}
		buildTime, err := w.indexAndCompact(ctx, "body", component.KindFM)
		if err != nil {
			return nil, err
		}
		raw, err := w.rawBytes(ctx)
		if err != nil {
			return nil, err
		}
		index, err := w.indexBytes(ctx)
		if err != nil {
			return nil, err
		}
		w.traced(opts.Trace, fmt.Sprintf("distribution.s%.1f", cfg.zipfS))
		lat, err := w.searchLatency(ctx, []core.Query{{
			Column: "body", Substring: []byte(ds[docs/2][:10]), K: 10, Snapshot: -1,
		}})
		if err != nil {
			return nil, err
		}
		m := derive("text", raw, index, buildTime, lat, PaperTextBytes)
		lo, _, ok := m.Params.RottnestWindow(10)
		if !ok {
			lo = 0
		}
		point := DistributionPoint{
			ZipfS:      cfg.zipfS,
			VocabSize:  cfg.vocab,
			RawBytes:   raw,
			IndexBytes: index,
			IndexRatio: float64(index) / float64(raw),
			WindowLo:   lo,
		}
		res.Points = append(res.Points, point)
		fmt.Fprintf(out, "%-8.2f %-8d %-10.2f %-10.2f %-10.2f %-12.1e\n",
			cfg.zipfS, cfg.vocab, float64(raw)/1e6, float64(index)/1e6, point.IndexRatio, lo)
	}
	fmt.Fprintln(out, "\n(the brute-force boundary tracks the index/raw ratio: distributions that")
	fmt.Fprintln(out, "compress the raw data well but not the index push the boundary up — the")
	fmt.Fprintln(out, "cpm_r effect of Fig 12 arising from data entropy rather than a knob)")
	return res, nil
}
