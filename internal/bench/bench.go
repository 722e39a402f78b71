// Package bench implements the experiment runners that regenerate
// every figure of the paper's evaluation (Section VII) on the
// simulated substrate. Each runner builds the workload, executes the
// measured operations under virtual-time sessions, prints the same
// series the paper plots, and returns the numbers so tests can assert
// the shapes (who wins, where the knees and crossovers fall).
//
// Scale bridging follows Section VII-D2: per-unit costs are measured
// at laptop scale and extrapolated linearly to the paper's dataset
// sizes, except the post-compaction Rottnest query latency, which is
// size-insensitive.
package bench

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"time"

	"rottnest/internal/bruteforce"
	"rottnest/internal/component"
	"rottnest/internal/core"
	"rottnest/internal/lake"
	"rottnest/internal/objectstore"
	"rottnest/internal/obs"
	"rottnest/internal/parquet"
	"rottnest/internal/simtime"
	"rottnest/internal/workload"
)

// Paper-scale dataset sizes (bytes) used for linear extrapolation of
// the TCO parameters: the C4 substring corpus (304 GB compressed),
// the 2-billion-record hash workload, and SIFT-1B as float32.
const (
	PaperTextBytes   = 304e9
	PaperUUIDBytes   = 256e9
	PaperVectorBytes = 512e9
)

// Options tune an experiment run.
type Options struct {
	// Seed drives every generator.
	Seed int64
	// Quick shrinks workloads for CI/bench loops.
	Quick bool
	// Out receives the printed tables; nil discards them.
	Out io.Writer
	// Trace, when non-nil, collects one exemplar span tree per
	// labelled search site (see TraceLog); rottnest-bench -trace
	// writes the collected trees as JSON.
	Trace *TraceLog
}

func (o Options) out() io.Writer {
	if o.Out == nil {
		return io.Discard
	}
	return o.Out
}

func (o Options) scaleInt(full, quick int) int {
	if o.Quick {
		return quick
	}
	return full
}

// world bundles one simulated deployment: clock, store stack, lake
// table, Rottnest client.
type world struct {
	clock  *simtime.VirtualClock
	store  *objectstore.Stack
	table  *lake.Table
	client *core.Client

	// trace/traceLabel make the next measured search record its span
	// tree (see traced in trace.go).
	trace      *TraceLog
	traceLabel string
}

// newWorld builds a deployment on the paper's S3 latency model.
func newWorld(schema *parquet.Schema, cfg core.Config) (*world, error) {
	model := objectstore.DefaultS3Model()
	return newWorldOn(objectstore.StackOptions{Latency: &model}, schema, cfg)
}

// newWorldOn is newWorld over other store layers: a latency model other
// than the paper's S3 measurements, or faults and retries. The lake and
// the client both read through the one objectstore.NewStack it builds;
// its cache is cfg.CacheBytes, and off unless that is positive.
func newWorldOn(layers objectstore.StackOptions, schema *parquet.Schema, cfg core.Config) (*world, error) {
	ctx := context.Background()
	clock := simtime.NewVirtualClock()
	// When an experiment asks for a warm deployment, the lake and the
	// client share one cache (NewClient joins the stack's), so snapshot
	// log reads are accelerated too.
	layers.CacheBytes = -1
	if cfg.CacheBytes > 0 {
		layers.CacheBytes = cfg.CacheBytes
	}
	store := objectstore.NewStack(objectstore.NewMemStore(clock), layers)
	table, err := lake.CreateWith(ctx, store, "lake", schema, lake.OpenOptions{Clock: clock})
	if err != nil {
		return nil, err
	}
	if cfg.IndexDir == "" {
		cfg.IndexDir = "rottnest"
	}
	// Figure reproductions model the paper's uncached read path: every
	// GET pays the Figure 10a latency. Keep the client's read,
	// decoded-object and plan caches off unless an experiment (Serve)
	// asks for them explicitly.
	if cfg.CacheBytes == 0 {
		cfg.CacheBytes = -1
	}
	if cfg.DecodedCacheBytes == 0 {
		cfg.DecodedCacheBytes = -1
	}
	if cfg.PlanCacheTTLVersions == 0 {
		cfg.PlanCacheTTLVersions = -1
	}
	// Probe batching memoizes index probes, which would change the GET
	// shapes the figures assert; experiments that measure coalescing
	// (Multi) opt in explicitly.
	if cfg.ProbeBatchBytes == 0 {
		cfg.ProbeBatchBytes = -1
	}
	cfg.Clock = clock
	return &world{
		clock:  clock,
		store:  store,
		table:  table,
		client: core.NewClient(table, cfg),
	}, nil
}

// rawBytes returns the lake's current data footprint.
func (w *world) rawBytes(ctx context.Context) (int64, error) {
	snap, err := w.table.Snapshot(ctx)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, f := range snap.Files {
		total += f.Size
	}
	return total, nil
}

// indexBytes sums the committed index file sizes.
func (w *world) indexBytes(ctx context.Context) (int64, error) {
	entries, err := w.client.Meta().List(ctx)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range entries {
		total += e.SizeBytes
	}
	return total, nil
}

// searchLatency runs the query n times and returns the mean virtual
// latency.
func (w *world) searchLatency(ctx context.Context, queries []core.Query) (time.Duration, error) {
	var total time.Duration
	for i, q := range queries {
		sctx := simtime.With(ctx, simtime.NewSession())
		var (
			res *core.Result
			err error
		)
		if i == 0 && w.trace != nil {
			// Tracing does not perturb the measurement: spans read the
			// same session the plain path uses.
			var node *obs.Node
			res, node, err = w.client.Trace(sctx, q)
			w.trace.Record(w.traceLabel, node)
		} else {
			res, err = w.client.Search(sctx, q)
		}
		if err != nil {
			return 0, err
		}
		total += res.Stats.Latency
	}
	return total / time.Duration(len(queries)), nil
}

// timedOp measures an operation's cost as virtual IO latency plus
// real compute time (index builds are CPU-heavy: suffix arrays,
// k-means).
func timedOp(ctx context.Context, fn func(context.Context) error) (time.Duration, error) {
	start := time.Now()
	virtual, err := virtualOp(ctx, fn)
	return virtual + time.Since(start), err
}

// virtualOp runs an operation on a fresh session and returns its
// virtual IO latency alone, which is exact for a seed.
func virtualOp(ctx context.Context, fn func(context.Context) error) (time.Duration, error) {
	session := simtime.NewSession()
	err := fn(simtime.With(ctx, session))
	return session.Elapsed(), err
}

// zipfStream replays a Zipf(1.2) query stream the way the serving
// experiments model concurrent clients: `clients` goroutines share the
// deployment, client c draws perClient ranks over [0, universe) from
// its own source (seed + c·7919), and each query runs under a fresh
// virtual-time session. do runs rank q for client c; a client stops
// at its first error.
func zipfStream(ctx context.Context, clients, perClient, universe int, seed int64, do func(ctx context.Context, c, q int) error) error {
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			zipf := rand.NewZipf(rand.New(rand.NewSource(seed+int64(c)*7919)), 1.2, 1, uint64(universe-1))
			for i := 0; i < perClient && errs[c] == nil; i++ {
				errs[c] = do(simtime.With(ctx, simtime.NewSession()), c, int(zipf.Uint64()))
			}
		}(c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// uuidWorld builds a UUID-search deployment: batches of 16-byte keys.
type uuidWorld struct {
	*world
	keys [][16]byte
}

var uuidSchema = parquet.MustSchema(
	parquet.Column{Name: "id", Type: parquet.TypeFixedLenByteArray, TypeLen: 16},
)

func newUUIDWorld(seed int64, batches, rowsPerBatch int, cfg core.Config) (*uuidWorld, error) {
	w, err := newWorld(uuidSchema, cfg)
	if err != nil {
		return nil, err
	}
	return w.appendUUIDs(seed, batches, rowsPerBatch)
}

// appendUUIDs appends batches of rowsPerBatch keys drawn from seed, one
// data file each.
func (w *world) appendUUIDs(seed int64, batches, rowsPerBatch int) (*uuidWorld, error) {
	ctx := context.Background()
	gen := workload.NewUUIDGen(seed)
	uw := &uuidWorld{world: w}
	for b := 0; b < batches; b++ {
		ks := gen.Batch(rowsPerBatch)
		uw.keys = append(uw.keys, ks...)
		batch := parquet.NewBatch(uuidSchema)
		ids := make([][]byte, len(ks))
		for i := range ks {
			k := ks[i]
			ids[i] = k[:]
		}
		batch.Cols[0] = parquet.ColumnValues{Bytes: ids}
		if _, err := w.table.Append(ctx, batch, parquet.WriterOptions{RowGroupRows: 1024, PageBytes: 16 << 10}); err != nil {
			return nil, err
		}
	}
	return uw, nil
}

func (u *uuidWorld) queries(n int) []core.Query {
	qs := make([]core.Query, n)
	for i := range qs {
		k := u.keys[(i*7919)%len(u.keys)]
		qs[i] = core.Query{Column: "id", UUID: &k, K: 10, Snapshot: -1}
	}
	return qs
}

// textWorld builds a substring-search deployment.
type textWorld struct {
	*world
	needles []string
}

var textSchema = parquet.MustSchema(
	parquet.Column{Name: "body", Type: parquet.TypeByteArray},
)

func newTextWorld(seed int64, batches, docsPerBatch int, cfg core.Config) (*textWorld, error) {
	ctx := context.Background()
	w, err := newWorld(textSchema, cfg)
	if err != nil {
		return nil, err
	}
	gen := workload.NewTextGen(workload.DefaultTextConfig(seed))
	tw := &textWorld{world: w}
	for b := 0; b < batches; b++ {
		docs := gen.Docs(docsPerBatch)
		needle := fmt.Sprintf("Ndl%dXq", b)
		docs = workload.PlantNeedle(docs, needle, []int{docsPerBatch / 3, 2 * docsPerBatch / 3})
		tw.needles = append(tw.needles, needle)
		batch := parquet.NewBatch(textSchema)
		vals := make([][]byte, len(docs))
		for i, d := range docs {
			vals[i] = []byte(d)
		}
		batch.Cols[0] = parquet.ColumnValues{Bytes: vals}
		if _, err := w.table.Append(ctx, batch, parquet.WriterOptions{RowGroupRows: 256, PageBytes: 32 << 10}); err != nil {
			return nil, err
		}
	}
	return tw, nil
}

func (t *textWorld) queries(n int) []core.Query {
	qs := make([]core.Query, n)
	for i := range qs {
		qs[i] = core.Query{Column: "body", Substring: []byte(t.needles[i%len(t.needles)]), K: 10, Snapshot: -1}
	}
	return qs
}

// vectorWorld builds an ANN deployment.
type vectorWorld struct {
	*world
	dim     int
	vecs    [][]float32
	queryVs [][]float32
}

func vectorSchema(dim int) *parquet.Schema {
	return parquet.MustSchema(
		parquet.Column{Name: "emb", Type: parquet.TypeFixedLenByteArray, TypeLen: 4 * dim},
	)
}

func newVectorWorld(seed int64, n, dim, nQueries int, cfg core.Config) (*vectorWorld, error) {
	return newVectorWorldSpread(seed, n, dim, nQueries, 64, 0.18, cfg)
}

// newVectorWorldSpread controls the mixture difficulty: more clusters
// and higher spread blur cell boundaries, so recall actually depends
// on nprobe/refine (as with real embedding distributions).
func newVectorWorldSpread(seed int64, n, dim, nQueries, clusters int, spread float64, cfg core.Config) (*vectorWorld, error) {
	ctx := context.Background()
	w, err := newWorld(vectorSchema(dim), cfg)
	if err != nil {
		return nil, err
	}
	gen := workload.NewVectorGen(workload.VectorConfig{Seed: seed, Dim: dim, Clusters: clusters, Spread: spread})
	vw := &vectorWorld{world: w, dim: dim, vecs: gen.Batch(n), queryVs: gen.Queries(nQueries)}
	batch := parquet.NewBatch(vectorSchema(dim))
	vals := make([][]byte, n)
	for i, v := range vw.vecs {
		vals[i] = workload.Float32sToBytes(v)
	}
	batch.Cols[0] = parquet.ColumnValues{Bytes: vals}
	if _, err := w.table.Append(ctx, batch, parquet.WriterOptions{RowGroupRows: 512, PageBytes: 64 << 10}); err != nil {
		return nil, err
	}
	return vw, nil
}

// recallAt measures mean recall@k and mean virtual latency at the
// given (nprobe, refine) setting.
func (v *vectorWorld) recallAt(ctx context.Context, k, nprobe, refine int) (float64, time.Duration, error) {
	var recallSum float64
	var latency time.Duration
	for qi, q := range v.queryVs {
		sctx := simtime.With(ctx, simtime.NewSession())
		query := core.Query{
			Column: "emb", Vector: q, K: k, NProbe: nprobe, Refine: refine, Snapshot: -1,
		}
		var (
			res *core.Result
			err error
		)
		if qi == 0 && v.trace != nil {
			var node *obs.Node
			res, node, err = v.client.Trace(sctx, query)
			v.trace.Record(v.traceLabel, node)
		} else {
			res, err = v.client.Search(sctx, query)
		}
		if err != nil {
			return 0, 0, err
		}
		got := make([]int, len(res.Matches))
		for i, m := range res.Matches {
			got[i] = int(m.Row)
		}
		recallSum += workload.Recall(got, workload.ExactNearest(v.vecs, q, k))
		latency += res.Stats.Latency
	}
	n := float64(len(v.queryVs))
	return recallSum / n, latency / time.Duration(len(v.queryVs)), nil
}

// bruteForceLatency runs one representative full-scan query on a
// W-worker cluster and returns its virtual latency. The modelled
// per-worker decode rate is sized so a single worker's scan takes
// ~2 minutes — fixing the work-to-overhead ratio to match a
// paper-scale dataset rather than the laptop-scale one actually
// stored, so the scaling curve's knee falls where the paper's does.
func bruteForceLatency(ctx context.Context, table *lake.Table, workers int, column string, pred func([]byte) bool) (time.Duration, error) {
	snap, err := table.Snapshot(ctx)
	if err != nil {
		return 0, err
	}
	var bytes int64
	for _, f := range snap.Files {
		bytes += f.Size
	}
	decodeBps := float64(bytes) / 120.0
	cluster := bruteforce.NewCluster(table, bruteforce.ClusterConfig{Workers: workers, DecodeBps: decodeBps})
	session := simtime.NewSession()
	_, report, err := cluster.Scan(simtime.With(ctx, session), -1, column, func(v []byte) (bool, float64) {
		return pred(v), 0
	})
	if err != nil {
		return 0, err
	}
	return report.Latency, nil
}

// indexAndCompact brings the (column, kind) index up to date and
// fully compacts it, returning the combined virtual+real build cost.
func (w *world) indexAndCompact(ctx context.Context, column string, kind component.Kind) (time.Duration, error) {
	return timedOp(ctx, func(ctx context.Context) error {
		if _, err := w.client.Index(ctx, column, kind); err != nil {
			return err
		}
		if _, err := w.client.Compact(ctx, column, kind, core.CompactOptions{}); err != nil {
			return err
		}
		_, err := w.client.Vacuum(ctx, core.VacuumOptions{})
		return err
	})
}
