package bench

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"rottnest/internal/objectstore"
	"rottnest/internal/parquet"
	"rottnest/internal/simtime"
)

// Fig10Result holds the series of Figure 10.
type Fig10Result struct {
	// Granularity[conc][size] is the latency of one fan of conc
	// byte-range GETs of the given size (Fig 10a).
	Granularity map[int]map[int64]time.Duration
	// RawRangeLatency and PageReadLatency compare a 300 KB raw byte
	// range with a real data-page read-and-decode (Fig 10b).
	RawRangeLatency  time.Duration
	PageReadLatency  time.Duration
	PageDecodeReal   time.Duration
	PageSizeObserved int64
}

// Fig10ReadGranularity reproduces Figure 10: (a) S3 byte-range read
// latency is flat in read size until ~1 MB and then grows linearly,
// at every concurrency level; (b) reading and decoding real Parquet
// pages costs about the same as raw 300 KB byte ranges, so
// decompression overhead is not a concern.
func Fig10ReadGranularity(opts Options) (*Fig10Result, error) {
	ctx := context.Background()
	out := opts.out()
	clock := simtime.NewVirtualClock()
	model := objectstore.DefaultS3Model()
	store := objectstore.NewStack(objectstore.NewMemStore(clock), objectstore.StackOptions{
		Latency:    &model,
		CacheBytes: -1,
	})

	// One big incompressible object to read ranges from.
	blob := make([]byte, 128<<20)
	rand.New(rand.NewSource(opts.Seed)).Read(blob[:1<<20])
	for off := 1 << 20; off < len(blob); off *= 2 {
		copy(blob[off:], blob[:off])
	}
	if err := store.Put(ctx, "blob", blob); err != nil {
		return nil, err
	}

	res := &Fig10Result{Granularity: make(map[int]map[int64]time.Duration)}
	sizes := []int64{4 << 10, 64 << 10, 300 << 10, 1 << 20, 4 << 20, 16 << 20, 64 << 20}
	concs := []int{1, 8, 64, 512}
	if opts.Quick {
		concs = []int{1, 64}
	}
	fmt.Fprintln(out, "# Fig 10a: byte-range GET latency vs read size (per concurrency)")
	fmt.Fprintf(out, "%-12s", "size")
	for _, c := range concs {
		fmt.Fprintf(out, "conc=%-9d", c)
	}
	fmt.Fprintln(out)
	for _, size := range sizes {
		fmt.Fprintf(out, "%-12s", byteSize(size))
		for _, conc := range concs {
			res.Granularity[conc] = ensure(res.Granularity[conc])
			// A fan's virtual latency is the max of its branches plus
			// the per-prefix RPS queueing delay. Requests execute
			// physically one at a time so 512 x 64MB buffers never
			// coexist; the virtual semantics are identical to FanGet.
			var maxBranch time.Duration
			for i := 0; i < conc; i++ {
				branch := simtime.NewSession()
				off := int64(i) * size % (int64(len(blob)) - size)
				if _, err := store.GetRange(simtime.With(ctx, branch), "blob", off, size); err != nil {
					return nil, err
				}
				if branch.Elapsed() > maxBranch {
					maxBranch = branch.Elapsed()
				}
			}
			total := maxBranch + model.QueueDelay(conc)
			res.Granularity[conc][size] = total
			fmt.Fprintf(out, "%-13s", total.Round(time.Millisecond))
		}
		fmt.Fprintln(out)
	}

	// (b) Raw 300KB ranges vs real page reads.
	docs := make([][]byte, 0, 4096)
	rng := rand.New(rand.NewSource(opts.Seed + 1))
	for i := 0; i < 4096; i++ {
		doc := make([]byte, 250+rng.Intn(100))
		for j := range doc {
			doc[j] = byte('a' + rng.Intn(26))
		}
		docs = append(docs, doc)
	}
	batch := parquet.NewBatch(textSchema)
	batch.Cols[0] = parquet.ColumnValues{Bytes: docs}
	_, tables, err := parquet.WriteFile(ctx, store, "pages.rpq", batch, parquet.WriterOptions{PageBytes: 300 << 10})
	if err != nil {
		return nil, err
	}
	page := tables[0][0]
	res.PageSizeObserved = page.Size

	// Raw range of the page's physical size.
	session := simtime.NewSession()
	if _, err := store.GetRange(simtime.With(ctx, session), "pages.rpq", page.Offset, page.Size); err != nil {
		return nil, err
	}
	res.RawRangeLatency = session.Elapsed()

	// Real page read + decode; decode cost is real CPU time.
	session = simtime.NewSession()
	startReal := time.Now()
	if _, err := parquet.ReadPages(simtime.With(ctx, session), store, "pages.rpq", textSchema.Columns[0], tables[0][:1]); err != nil {
		return nil, err
	}
	res.PageDecodeReal = time.Since(startReal)
	res.PageReadLatency = session.Elapsed() + res.PageDecodeReal

	fmt.Fprintf(out, "\n# Fig 10b: raw %s range vs real page read+decode\n", byteSize(page.Size))
	fmt.Fprintf(out, "raw byte range:    %v\n", res.RawRangeLatency.Round(time.Microsecond))
	fmt.Fprintf(out, "page read+decode:  %v (decode %v)\n",
		res.PageReadLatency.Round(time.Microsecond), res.PageDecodeReal.Round(time.Microsecond))
	return res, nil
}

func ensure(m map[int64]time.Duration) map[int64]time.Duration {
	if m == nil {
		return make(map[int64]time.Duration)
	}
	return m
}

func byteSize(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%dMB", n>>20)
	case n >= 1<<10:
		return fmt.Sprintf("%dKB", n>>10)
	default:
		return fmt.Sprintf("%dB", n)
	}
}
