package ingest

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rottnest/internal/component"
	"rottnest/internal/core"
	"rottnest/internal/lake"
	"rottnest/internal/objectstore"
	"rottnest/internal/parquet"
	"rottnest/internal/simtime"
	"rottnest/internal/workload"
)

// logReads counts the LISTs and GETs a store serves under one prefix.
type logReads struct {
	objectstore.Store
	prefix string
	n      atomic.Int64
}

func (s *logReads) Clock() simtime.Clock { return objectstore.ClockOf(s.Store) }

func (s *logReads) List(ctx context.Context, prefix string) ([]objectstore.ObjectInfo, error) {
	if strings.HasPrefix(prefix, s.prefix) {
		s.n.Add(1)
	}
	return s.Store.List(ctx, prefix)
}

func (s *logReads) GetRange(ctx context.Context, key string, off, n int64) ([]byte, error) {
	if strings.HasPrefix(key, s.prefix) {
		s.n.Add(1)
	}
	return s.Store.GetRange(ctx, key, off, n)
}

func (s *logReads) Get(ctx context.Context, key string) ([]byte, error) {
	if strings.HasPrefix(key, s.prefix) {
		s.n.Add(1)
	}
	return s.Store.Get(ctx, key)
}

// logDepthRow logs one measured operation as a row of the table make
// maint-table prints: its LISTs, GETs, PUTs, DELETEs and virtual ms.
func logDepthRow(t *testing.T, op string, elapsed time.Duration, reqs objectstore.Snapshot) {
	t.Helper()
	t.Logf("| %s | %s | %d | %d | %d | %d | %.1f |", t.Name(), op, reqs.Lists, reqs.Gets, reqs.Puts, reqs.Deletes, float64(elapsed)/float64(time.Millisecond))
}

// TestIngestDepth pins the write path at its data dependencies, in
// virtual time on the S3 model, through one long-lived table handle —
// the shape of a live ingest process. It fails on every count at the
// commit before internal/txlog: a commit listed the log before its
// conditional PUT (an ack was PUT, LIST, PUT — a serial PUT more per
// batch of the group), and every plan miss replayed the lake log from
// its checkpoint.
func TestIngestDepth(t *testing.T) {
	ctx := context.Background()
	clock := simtime.NewVirtualClock()
	model := objectstore.DefaultS3Model()
	inst, metrics := objectstore.Instrument(objectstore.NewMemStore(clock), model)
	store := &logReads{Store: inst, prefix: "tbl/_log/"}
	tbl := newTestTable(t, store)
	var commits []int64
	tbl.OnCommit(func(v int64) { commits = append(commits, v) })
	cli := core.NewClient(tbl, core.Config{IndexDir: "idx"})
	w := NewWriter(tbl, WriterOptions{MaxBatchRows: 2, GroupCommitBatches: 4, Manual: true})

	// measure runs fn on a fresh session and returns its virtual time
	// and the requests it issued.
	measure := func(fn func(ctx context.Context)) (time.Duration, objectstore.Snapshot) {
		session := simtime.NewSession()
		before := metrics.Snapshot()
		fn(simtime.With(ctx, session))
		return session.Elapsed(), metrics.Snapshot().Sub(before)
	}
	group := func(tag string) func(ctx context.Context) {
		return func(ctx context.Context) {
			for _, m := range []string{"a", "b", "c", "d"} {
				if _, err := w.Append(ctx, msgBatch(tag+m+"1", tag+m+"2")); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Flush(ctx); err != nil {
				t.Fatal(err)
			}
		}
	}

	// An ack is two PUT levels — the group's files side by side, then
	// the commit — and nothing else: the handle wrote the log's only
	// record, so it knows the next slot.
	elapsed, reqs := measure(group("one-"))
	logDepthRow(t, "group commit of 4", elapsed, reqs)
	if reqs.Puts != 5 || reqs.Lists != 0 || reqs.Gets != 0 || reqs.Heads != 0 {
		t.Errorf("group of 4 issued %+v, want 5 PUTs and nothing else", reqs)
	}
	if lo := 2 * model.PutTTFB; elapsed < lo || elapsed >= lo+5*time.Millisecond {
		t.Errorf("group of 4 acked after %v of virtual time, want two PUT levels (%v)", elapsed, lo)
	}

	// The plan miss that follows reads the lake log not at all: the
	// handle applied its own commit to the snapshot it remembers.
	search := func(ctx context.Context) {
		res, err := cli.Search(ctx, core.Query{Column: "msg", Substring: []byte("one-a1"), K: 10, Snapshot: -1})
		if err != nil || len(res.Matches) != 1 {
			t.Fatalf("search: %+v, %v", res, err)
		}
	}
	before := store.n.Load()
	elapsed, reqs = measure(search)
	logDepthRow(t, "plan miss after own commit", elapsed, reqs)
	if got := store.n.Load() - before; got != 0 {
		t.Errorf("plan miss after the handle's own commit read the lake log %d times, want 0", got)
	}
	if m := cli.Metrics(); m.Counter("search.plan_cache_misses") != 1 {
		t.Errorf("plan cache misses = %d, want the one just measured", m.Counter("search.plan_cache_misses"))
	}

	// Another writer commits in between: the slot is taken, one LIST
	// and the one record the handle has not seen say where the end moved
	// to, the retry lands, and OnCommit fires once, for the version it
	// landed at.
	foreign, err := lake.OpenWith(ctx, inst, "tbl", lake.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := foreign.Append(ctx, msgBatch("foreign"), w.opts.Parquet); err != nil {
		t.Fatal(err)
	}
	commits = nil
	elapsed, reqs = measure(group("two-"))
	logDepthRow(t, "group behind a foreign commit", elapsed, reqs)
	if reqs.Puts != 6 || reqs.Lists != 1 || reqs.Gets != 1 {
		t.Errorf("group behind a foreign commit issued %+v, want 4 files + 2 conditional PUTs, 1 LIST, 1 GET", reqs)
	}
	if len(commits) != 1 || commits[0] != 4 {
		t.Errorf("OnCommit fired for %v, want once for version 4", commits)
	}
	if snap, err := tbl.Snapshot(ctx); err != nil || snap.Version != 4 || snap.LiveRows() != 17 {
		t.Errorf("snapshot after the retry = %+v, %v; want v4 with 17 rows", snap, err)
	}

	// A handle that has read nothing reads before it commits: a root
	// with no table is ErrNoTable, and nothing is written there.
	empty, _ := lake.OpenWith(ctx, inst, "nowhere", lake.OpenOptions{})
	elapsed, reqs = measure(func(ctx context.Context) {
		if _, err := empty.CommitFiles(ctx, lake.PendingFile{Path: "data/x.rpq", Rows: 1}); !errors.Is(err, lake.ErrNoTable) {
			t.Errorf("commit on an empty root: %v, want ErrNoTable", err)
		}
	})
	logDepthRow(t, "commit on an empty root", elapsed, reqs)
	if reqs.Puts != 0 || reqs.Lists != 1 {
		t.Errorf("commit on an empty root issued %+v, want one LIST and no PUT", reqs)
	}
	if infos, err := inst.List(ctx, "nowhere/"); err != nil || len(infos) != 0 {
		t.Errorf("empty root now holds %v (%v)", infos, err)
	}
	if err := w.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

// specsDim is the vector width of specsSchema's emb column.
const specsDim = 8

// specsSchema has one column per index kind, and threeSpecs indexes
// each of them.
var (
	specsSchema = parquet.MustSchema(
		parquet.Column{Name: "id", Type: parquet.TypeFixedLenByteArray, TypeLen: 16},
		parquet.Column{Name: "msg", Type: parquet.TypeByteArray},
		parquet.Column{Name: "emb", Type: parquet.TypeFixedLenByteArray, TypeLen: 4 * specsDim},
	)
	threeSpecs = []core.IndexSpec{
		{Column: "id", Kind: component.KindTrie},
		{Column: "msg", Kind: component.KindFM},
		{Column: "emb", Kind: component.KindIVFPQ},
	}
)

// specsRows returns n rows of specsSchema drawn from seed, msg tagged.
func specsRows(seed int64, tag string, n int) *parquet.Batch {
	b := parquet.NewBatch(specsSchema)
	ids, msgs, vecs := make([][]byte, n), make([][]byte, n), make([][]byte, n)
	for i, k := range workload.NewUUIDGen(seed).Batch(n) {
		ids[i] = k[:]
		msgs[i] = []byte(fmt.Sprintf("%s-%d", tag, i))
	}
	gen := workload.NewVectorGen(workload.VectorConfig{Seed: seed, Dim: specsDim, Clusters: 4, Spread: 0.2})
	for i, v := range gen.Batch(n) {
		vecs[i] = workload.Float32sToBytes(v)
	}
	b.Cols[0] = parquet.ColumnValues{Bytes: ids}
	b.Cols[1] = parquet.ColumnValues{Bytes: msgs}
	b.Cols[2] = parquet.ColumnValues{Bytes: vecs}
	return b
}

// TestOneIndexJobCoversEverySpec pins the scheduler's index job in
// virtual time on the S3 model: after one group commit, one Step
// indexes all three specs from its one observation — one LIST level,
// the plan the job indexes from — every spec's column scans share the
// footer level and the chunk level, the three index files upload in
// one PUT level and their rows land in one metadata commit, which
// drops the querying client's cached plans once and reports both files
// covered: commit → covered by every spec is 200 ms of virtual time.
// The job planned again after the observation (4 LISTs, 260 ms), and
// the next step's observation reported the files (320 ms). It was one
// spec per step: three jobs in series, each with its own observation,
// plan, scans, upload and commit (14 LISTs and 6 PUTs over four
// steps), three plan invalidations, and 840 ms.
func TestOneIndexJobCoversEverySpec(t *testing.T) {
	ctx := context.Background()
	clock := simtime.NewVirtualClock()
	model := objectstore.DefaultS3Model()
	store := objectstore.NewStack(objectstore.NewMemStore(clock), objectstore.StackOptions{Latency: &model, CacheBytes: -1})
	tbl, err := lake.CreateWith(ctx, store, "tbl", specsSchema, lake.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	w := NewWriter(tbl, WriterOptions{MaxBatchRows: 64, GroupCommitBatches: 2, Manual: true})
	var lags []time.Duration
	s := NewScheduler(tbl, SchedulerOptions{
		Writer:    w,
		Config:    core.Config{IndexDir: "idx", CacheBytes: -1},
		Specs:     threeSpecs,
		OnCovered: func(_ string, _ int64, lag time.Duration) { lags = append(lags, lag) },
	})
	for i := 0; i < 2; i++ {
		if _, err := w.Append(ctx, specsRows(int64(i+1), fmt.Sprint("g", i), 64)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(ctx); err != nil {
		t.Fatal(err)
	}

	session := simtime.NewSession()
	sctx := simtime.With(ctx, session)
	before, plans := store.Metrics.Snapshot(), s.cli.Metrics()
	if worked, err := s.Step(sctx); err != nil || !worked {
		t.Fatalf("step: worked=%v err=%v", worked, err)
	}
	job := session.Elapsed()
	reqs := store.Metrics.Snapshot().Sub(before)
	entries, err := s.cli.Meta().List(ctx)
	if err != nil || len(entries) != 3 {
		t.Fatalf("metadata rows after one step = %d (%v), want one per spec", len(entries), err)
	}
	var upload time.Duration // the slowest of the three uploads
	for _, e := range entries {
		if len(e.Files) != 2 {
			t.Errorf("%s/%v covers %d files, want both", e.Column, e.Kind, len(e.Files))
		}
		upload = max(upload, model.PutLatency(e.SizeBytes))
	}
	// Two files × three specs, each scan a footer GET and a chunk GET.
	if reqs.Lists != 2 || reqs.Gets != 12 || reqs.Puts != 4 || reqs.Deletes != 0 || reqs.Heads != 0 {
		t.Errorf("step issued %d LISTs, %d GETs, %d PUTs, %d DELETEs, %d HEADs; want 2, 12, 4, 0, 0",
			reqs.Lists, reqs.Gets, reqs.Puts, reqs.Deletes, reqs.Heads)
	}
	want := model.ListTTFB /* observe: the plan */ + 2*model.GetTTFB /* footers, chunks */ + upload + model.PutTTFB /* commit */
	if job < want || job >= want+5*time.Millisecond {
		t.Errorf("step took %v of virtual time, want %v", job, want)
	}
	if got := s.cli.Metrics().Sub(plans).Counter("search.plan_cache_invalidations"); got != 1 {
		t.Errorf("the job dropped cached plans %d times, want once", got)
	}
	// The job's commit reported both files covered by every spec.
	if len(lags) != 2 {
		t.Fatalf("OnCovered fired %d times at the job's commit, want once per file", len(lags))
	}
	t.Logf("commit → covered by every spec: %v of virtual time", job)
	logDepthRow(t, "index job, 3 specs", job, reqs)

	// The next step's observation finds nothing to do and reports no
	// file again.
	if worked, err := s.Step(sctx); err != nil || worked {
		t.Fatalf("second step: worked=%v err=%v, want no job", worked, err)
	}
	if len(lags) != 2 {
		t.Fatalf("OnCovered fired %d times, want once per file", len(lags))
	}
	if m := s.Registry().Snapshot(); m.Counter("ingest.jobs_index") != 1 {
		t.Errorf("jobs_index = %d, want 1", m.Counter("ingest.jobs_index"))
	}
	if err := w.Close(ctx); err != nil {
		t.Fatal(err)
	}
}
