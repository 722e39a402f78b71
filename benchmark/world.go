package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"time"

	"rottnest/internal/component"
	"rottnest/internal/core"
	"rottnest/internal/ingest"
	"rottnest/internal/lake"
	"rottnest/internal/objectstore"
	"rottnest/internal/parquet"
	"rottnest/internal/workload"
)

// World lake3: one table, three columns, one index kind per column.
const (
	tableRoot = "lake"
	indexDir  = "rottnest"
	vecDim    = 32
	topK      = 10
	nProbe    = 8
	refine    = 40
)

var lakeSchema = parquet.MustSchema(
	parquet.Column{Name: "id", Type: parquet.TypeFixedLenByteArray, TypeLen: 16},
	parquet.Column{Name: "body", Type: parquet.TypeByteArray},
	parquet.Column{Name: "emb", Type: parquet.TypeFixedLenByteArray, TypeLen: 4 * vecDim},
)

var lakeSpecs = []core.IndexSpec{
	{Column: "id", Kind: component.KindTrie},
	{Column: "body", Kind: component.KindFM},
	{Column: "emb", Kind: component.KindIVFPQ},
}

var fileOptions = parquet.WriterOptions{RowGroupRows: 2048, PageBytes: 64 << 10}

// fileData is one generated data file and, once loaded, where the
// lake put it. The oracle answers from these: the program under test
// only ever sees the batch.
type fileData struct {
	seq        int
	keys       [][16]byte
	vecs       [][]float32
	needle     string
	needleRows [2]int
	batch      *parquet.Batch
	// rawBytes is the size of the three indexed columns' values.
	rawBytes int64

	path    string
	version int64
	ackedAt time.Time
}

// corpusSeed fixes the text corpus. TextGen draws its vocabulary from
// its seed, and the length of the few most frequent words moves a
// corpus's size, its index's size and its build time by close to a
// tenth from one vocabulary to the next. So the corpus is one fixed
// Zipfian sample, as a real corpus would be, and the run's seed decides
// where each document goes, as it decides keys, vectors and queries.
const corpusSeed = 1

// generator makes the files of a world from a seed: UUID keys, the
// corpus's next documents shuffled over the file's rows with a per-file
// needle planted at rows n/3 and 2n/3, and Gaussian-cluster embeddings.
type generator struct {
	rows int
	next int
	rng  *rand.Rand
	ids  *workload.UUIDGen
	text *workload.TextGen
	vecs *workload.VectorGen
}

func newGenerator(seed int64, rowsPerFile int) *generator {
	return &generator{
		rows: rowsPerFile,
		ids:  workload.NewUUIDGen(seed),
		rng:  rand.New(rand.NewSource(seed ^ 0xd0c5)),
		text: workload.NewTextGen(workload.DefaultTextConfig(corpusSeed)),
		vecs: workload.NewVectorGen(workload.VectorConfig{Seed: seed, Dim: vecDim, Clusters: 64, Spread: 0.18}),
	}
}

func (g *generator) file() *fileData {
	n := g.rows
	f := &fileData{
		seq:        g.next,
		keys:       g.ids.Batch(n),
		vecs:       g.vecs.Batch(n),
		needle:     fmt.Sprintf("Ndl%dXq", g.next),
		needleRows: [2]int{n / 3, 2 * n / 3},
	}
	g.next++
	docs := g.text.Docs(n)
	g.rng.Shuffle(n, func(i, j int) { docs[i], docs[j] = docs[j], docs[i] })
	docs = workload.PlantNeedle(docs, f.needle, f.needleRows[:])
	ids := make([][]byte, n)
	bodies := make([][]byte, n)
	embs := make([][]byte, n)
	for i := 0; i < n; i++ {
		ids[i] = f.keys[i][:]
		bodies[i] = []byte(docs[i])
		embs[i] = workload.Float32sToBytes(f.vecs[i])
		f.rawBytes += int64(len(ids[i]) + len(bodies[i]) + len(embs[i]))
	}
	f.batch = parquet.NewBatch(lakeSchema)
	f.batch.Cols[0] = parquet.ColumnValues{Bytes: ids}
	f.batch.Cols[1] = parquet.ColumnValues{Bytes: bodies}
	f.batch.Cols[2] = parquet.ColumnValues{Bytes: embs}
	return f
}

func (g *generator) files(n int) []*fileData {
	out := make([]*fileData, n)
	for i := range out {
		out[i] = g.file()
	}
	return out
}

// world is one real-clock deployment: a directory store under a
// delayStore, a lake table on it, and the generated files loaded so
// far, in commit order.
type world struct {
	dir   string
	bare  *objectstore.DirStore
	store *delayStore
	table *lake.Table
	// mu guards files: ingest_live acks files while queries read them.
	mu    sync.Mutex
	files []*fileData
}

// newWorld creates an empty table in a fresh directory under tmpRoot.
// It returns with sleeps off: set-up turns them on before anything is
// measured.
func newWorld(ctx context.Context, tmpRoot string, sleepScale float64) (*world, error) {
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(tmpRoot, "world-")
	if err != nil {
		return nil, err
	}
	bare, err := objectstore.NewDirStore(dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	w := &world{dir: dir, bare: bare, store: newDelayStore(bare, sleepScale)}
	// Creating the table sleeps like everything measured: set-up time is
	// a metric, and a set-up of pure CPU reads a quarter higher or lower
	// from one quarter of an hour to the next on a shared host.
	w.store.setSleeping(true)
	w.table, err = lake.CreateWith(ctx, w.store, tableRoot, lakeSchema, lake.OpenOptions{})
	w.store.setSleeping(false)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return w, nil
}

func (w *world) close() { os.RemoveAll(w.dir) }

// newWriter returns an ingest writer that lands every Append of
// rowsPerFile rows as one data file with the world's file options.
func (w *world) newWriter(rowsPerFile int) *ingest.Writer {
	return ingest.NewWriter(w.table, ingest.WriterOptions{MaxBatchRows: rowsPerFile, Parquet: fileOptions})
}

// load appends one file through the writer and waits for its ack; all
// user data enters every world this way. The latency runs from due.
func (w *world) load(ctx context.Context, wr *ingest.Writer, f *fileData, due time.Time) (time.Duration, error) {
	ack, err := wr.Append(ctx, f.batch)
	if err != nil {
		return 0, err
	}
	version, err := ack.Wait(ctx)
	if err != nil {
		return 0, err
	}
	f.ackedAt = time.Now()
	f.path, f.version = ack.Path(), version
	w.mu.Lock()
	w.files = append(w.files, f)
	w.mu.Unlock()
	return f.ackedAt.Sub(due), nil
}

// loaded returns the files acked so far.
func (w *world) loaded() []*fileData {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]*fileData(nil), w.files...)
}

func (w *world) rawBytes() int64 {
	var n int64
	for _, f := range w.files {
		n += f.rawBytes
	}
	return n
}

// newClient opens the table afresh and builds a default-config client
// on it: what a stateless searcher or the CLI does on every call.
func (w *world) newClient(ctx context.Context, store objectstore.Store, cfg core.Config) (*core.Client, error) {
	table, err := lake.OpenWith(ctx, store, tableRoot, lake.OpenOptions{})
	if err != nil {
		return nil, err
	}
	cfg.IndexDir = indexDir
	return core.NewClient(table, cfg), nil
}

// sizes reports committed index bytes and live data-file bytes, read
// through the bare store so they cost the measured run nothing.
func (w *world) sizes(ctx context.Context) (indexBytes, dataBytes int64, perKind map[component.Kind]int64, err error) {
	cli, err := w.newClient(ctx, w.bare, core.Config{})
	if err != nil {
		return 0, 0, nil, err
	}
	statuses, err := cli.Status(ctx)
	if err != nil {
		return 0, 0, nil, err
	}
	perKind = make(map[component.Kind]int64)
	for _, st := range statuses {
		indexBytes += st.IndexBytes
		perKind[st.Kind] += st.IndexBytes
	}
	snap, err := cli.Table().Snapshot(ctx)
	if err != nil {
		return 0, 0, nil, err
	}
	for _, f := range snap.Files {
		dataBytes += f.Size
	}
	return indexBytes, dataBytes, perKind, nil
}

// buildTimes is the wall time the world spent inside each maintenance
// call, per index kind where the call has one.
type buildTimes struct {
	index   map[component.Kind]time.Duration
	compact map[component.Kind]time.Duration
	vacuum  time.Duration
}

func newBuildTimes() *buildTimes {
	return &buildTimes{index: make(map[component.Kind]time.Duration), compact: make(map[component.Kind]time.Duration)}
}

func (b *buildTimes) total() time.Duration {
	return sumDurations(b.index) + sumDurations(b.compact) + b.vacuum
}

func sumDurations(m map[component.Kind]time.Duration) time.Duration {
	var d time.Duration
	for _, v := range m {
		d += v
	}
	return d
}

// indexRound is one step of the batch pipeline: append the files
// through the writer (sleeps on: an ack is store round trips, not a disk
// write), then Index each kind with sleeps as indexSleeps says. It
// records each file's ack and its lag from ack to the end of the Index
// calls.
func (w *world) indexRound(ctx context.Context, wr *ingest.Writer, cli *core.Client, files []*fileData, ls *loadStats, indexSleeps bool) error {
	w.store.setSleeping(true)
	for _, f := range files {
		lat, err := w.load(ctx, wr, f, time.Now())
		if err != nil {
			return err
		}
		ls.acks = append(ls.acks, ms(lat))
	}
	w.store.setSleeping(indexSleeps)
	if err := indexAll(ctx, cli, ls.bt); err != nil {
		return err
	}
	covered := time.Now()
	for _, f := range files {
		ls.lags = append(ls.lags, ms(covered.Sub(f.ackedAt)))
	}
	return nil
}

// indexAll runs Client.Index for the three specs.
func indexAll(ctx context.Context, cli *core.Client, bt *buildTimes) error {
	for _, spec := range lakeSpecs {
		start := time.Now()
		if _, err := cli.Index(ctx, spec.Column, spec.Kind); err != nil {
			return fmt.Errorf("index %s: %w", spec.Column, err)
		}
		bt.index[spec.Kind] += time.Since(start)
	}
	return nil
}

// compactAll merges each kind's index files into one and vacuums.
func compactAll(ctx context.Context, cli *core.Client, bt *buildTimes) error {
	for _, spec := range lakeSpecs {
		start := time.Now()
		if _, err := cli.Compact(ctx, spec.Column, spec.Kind, core.CompactOptions{}); err != nil {
			return fmt.Errorf("compact %s: %w", spec.Column, err)
		}
		bt.compact[spec.Kind] += time.Since(start)
	}
	start := time.Now()
	if _, err := cli.Vacuum(ctx, core.VacuumOptions{}); err != nil {
		return fmt.Errorf("vacuum: %w", err)
	}
	bt.vacuum += time.Since(start)
	return nil
}
