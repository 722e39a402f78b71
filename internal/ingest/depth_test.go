package ingest

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rottnest/internal/core"
	"rottnest/internal/lake"
	"rottnest/internal/objectstore"
	"rottnest/internal/simtime"
)

// logReads counts the LISTs and GETs a store serves under one prefix.
type logReads struct {
	objectstore.Store
	prefix string
	n      atomic.Int64
}

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
	tbl := newTestTable(t, store, clock)
	var commits []int64
	tbl.OnCommit(func(v int64) { commits = append(commits, v) })
	cli := core.NewClient(tbl, core.Config{IndexDir: "idx", Clock: clock})
	w := NewWriter(tbl, WriterOptions{MaxBatchRows: 2, GroupCommitBatches: 4, Clock: clock, Manual: true})

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
	measure(search)
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
	foreign, err := lake.OpenWith(ctx, inst, "tbl", lake.OpenOptions{Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := foreign.Append(ctx, msgBatch("foreign"), w.opts.Parquet); err != nil {
		t.Fatal(err)
	}
	commits = nil
	_, reqs = measure(group("two-"))
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
	empty, _ := lake.OpenWith(ctx, inst, "nowhere", lake.OpenOptions{Clock: clock})
	_, reqs = measure(func(ctx context.Context) {
		if _, err := empty.CommitFiles(ctx, lake.PendingFile{Path: "data/x.rpq", Rows: 1}); !errors.Is(err, lake.ErrNoTable) {
			t.Errorf("commit on an empty root: %v, want ErrNoTable", err)
		}
	})
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
