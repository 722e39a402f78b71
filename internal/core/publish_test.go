package core

import (
	"context"
	"errors"
	"reflect"
	"sort"
	"strings"
	"testing"

	"rottnest/internal/component"
	"rottnest/internal/ivfpq"
	"rottnest/internal/meta"
	"rottnest/internal/parquet"
	"rottnest/internal/workload"
)

// threeSpecs is one index job's specs over threeSpecWorld's columns.
var threeSpecs = []IndexSpec{
	{Column: "id", Kind: component.KindTrie},
	{Column: "body", Kind: component.KindFM},
	{Column: "emb", Kind: component.KindIVFPQ},
}

// threeSpecWorld has one data file of uuid, text and vector columns,
// none of them indexed.
func threeSpecWorld(t *testing.T) *invWorld {
	const rows, dim = 200, 8
	w := newInvWorld(t, parquet.MustSchema(
		parquet.Column{Name: "id", Type: parquet.TypeFixedLenByteArray, TypeLen: 16},
		parquet.Column{Name: "body", Type: parquet.TypeByteArray},
		parquet.Column{Name: "emb", Type: parquet.TypeFixedLenByteArray, TypeLen: 4 * dim},
	))
	ids, bodies, vecs := make([][]byte, rows), make([][]byte, rows), make([][]byte, rows)
	for i, k := range workload.NewUUIDGen(5).Batch(rows) {
		ids[i] = k[:]
	}
	for i, d := range workload.NewTextGen(workload.DefaultTextConfig(6)).Docs(rows) {
		bodies[i] = []byte(d)
	}
	gen := workload.NewVectorGen(workload.VectorConfig{Seed: 7, Dim: dim, Clusters: 4, Spread: 0.2})
	for i, v := range gen.Batch(rows) {
		vecs[i] = workload.Float32sToBytes(v)
	}
	w.appendColumns(t, parquet.WriterOptions{}, ids, bodies, vecs)
	return w
}

// TestPublishTimeouts pins the one commit protocol through its callers
// on the virtual clock: an index job of one spec and of three, a
// compaction and a refinement. When the index timeout passes before
// the commit, the operation returns ErrTimeout having written no
// metadata row, and its uploads stay behind for vacuum. When it passes
// between the commit and the re-check, the operation rolls back: the
// new row is gone, the row a refine replaced is back, and cached plans
// were dropped twice (commit, rollback). Either way the metadata table
// is what it was, Existence holds, no cached object was invalidated,
// and a retry with time to spare succeeds.
func TestPublishTimeouts(t *testing.T) {
	ctx := context.Background()
	ops := []struct {
		name    string
		world   func(*testing.T) *invWorld
		run     func(w *invWorld) (published bool, err error)
		uploads int // index files the operation uploads
	}{
		{"index", func(t *testing.T) *invWorld {
			w := uuidWorld(t)
			w.appendUUIDs(t, workload.NewUUIDGen(4), 100)
			return w
		}, func(w *invWorld) (bool, error) {
			e, err := w.cli.Index(ctx, "id", component.KindTrie)
			return e != nil, err
		}, 1},
		{"index three specs", threeSpecWorld, func(w *invWorld) (bool, error) {
			plan, err := w.cli.PlanInputs(ctx, -1)
			if err != nil {
				return false, err
			}
			results, err := w.cli.IndexSpecs(ctx, plan, threeSpecs, IndexOptions{})
			published := err == nil
			for _, r := range results {
				published = published && r.Entry != nil && r.Err == nil
			}
			return published, err
		}, 3},
		{"compact", uuidWorld, func(w *invWorld) (bool, error) {
			merged, err := w.cli.Compact(ctx, "id", component.KindTrie, CompactOptions{})
			return len(merged) == 1, err
		}, 1},
		{"refine", vectorWorld, func(w *invWorld) (bool, error) {
			old, err := w.cli.ListIndexes(ctx, "emb", component.KindIVFPQ)
			if err != nil || len(old) != 1 {
				return false, errors.Join(err, errors.New("want exactly one vector index file"))
			}
			e, err := w.cli.RefineVectorIndex(ctx, "emb", old[0].IndexKey, w.vecs, 4, ivfpq.RefineOptions{MaxCells: 4, Seed: 1})
			return e != nil, err
		}, 1},
	}
	deadlines := []struct {
		name     string
		arm      func(w *invWorld)
		wantMeta int64 // metaChanged calls
	}{
		{"deadline passes before commit", (*invWorld).overrunNextUpload, 0},
		{"deadline passes between commit and re-check", (*invWorld).overrunNextCommit, 2},
	}
	// rows and uploads list the metadata table and the index objects in
	// the bucket.
	rows := func(t *testing.T, w *invWorld) []string {
		t.Helper()
		entries, err := w.cli.Meta().List(ctx)
		if err != nil {
			t.Fatal(err)
		}
		keys := make([]string, len(entries))
		for i, e := range entries {
			keys[i] = e.IndexKey
		}
		sort.Strings(keys)
		return keys
	}
	uploads := func(t *testing.T, w *invWorld) int {
		t.Helper()
		objs, err := w.mem.List(ctx, "rottnest/"+indexFilePrefix)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, o := range objs {
			if strings.HasSuffix(o.Key, ".index") {
				n++
			}
		}
		return n
	}
	for _, op := range ops {
		for _, dl := range deadlines {
			t.Run(op.name+"/"+dl.name, func(t *testing.T) {
				w := op.world(t)
				rowsBefore, uploadsBefore, before := rows(t, w), uploads(t, w), w.cli.Metrics()
				dl.arm(w)
				if _, err := op.run(w); !errors.Is(err, ErrTimeout) {
					t.Fatalf("err = %v, want ErrTimeout", err)
				}
				if w.hooked.armed() {
					t.Fatal("the armed delay never fired; scenario not exercised")
				}
				if got := rows(t, w); !reflect.DeepEqual(got, rowsBefore) {
					t.Errorf("metadata rows = %v, want them as before the operation: %v", got, rowsBefore)
				}
				if got, want := uploads(t, w), uploadsBefore+op.uploads; got != want {
					t.Errorf("%d index objects in the bucket, want %d: the uploads are left for vacuum", got, want)
				}
				delta := w.cli.Metrics().Sub(before)
				if got := delta.Counter("search.plan_cache_invalidations"); got != dl.wantMeta {
					t.Errorf("metaChanged fired %d times, want %d", got, dl.wantMeta)
				}
				if got := delta.Counter("objcache.invalidations"); got != 0 {
					t.Errorf("objectGone fired %d times, want 0: no object was deleted", got)
				}
				if err := w.cli.CheckExistence(ctx); err != nil {
					t.Error(err)
				}
				// The caller retries cleanly.
				if published, err := op.run(w); err != nil || !published {
					t.Fatalf("retry published=%v err=%v", published, err)
				}
				if err := w.cli.CheckExistence(ctx); err != nil {
					t.Error(err)
				}
			})
		}
	}
}

// TestRefineCommitsOneRecord: a refinement swaps its new row for the one
// it replaces in one metadata record, so no reader sees both rows or
// neither, and the commit is one PUT: a refine issues two, the index
// file's upload and that record. It committed the insert and the delete
// as two records, one PUT after the other.
func TestRefineCommitsOneRecord(t *testing.T) {
	ctx := context.Background()
	w := vectorWorld(t)
	old, err := w.cli.ListIndexes(ctx, "emb", component.KindIVFPQ)
	if err != nil || len(old) != 1 {
		t.Fatalf("vector index files = %d, %v; want one", len(old), err)
	}
	records := func() int {
		t.Helper()
		objs, err := w.mem.List(ctx, w.cli.Meta().Root())
		if err != nil {
			t.Fatal(err)
		}
		return len(objs)
	}
	recordsBefore, before := records(), w.store.Metrics.Snapshot()
	e, err := w.cli.RefineVectorIndex(ctx, "emb", old[0].IndexKey, w.vecs, 4, ivfpq.RefineOptions{MaxCells: 4, Seed: 1})
	if err != nil || e == nil {
		t.Fatalf("refine: entry %v, err %v", e, err)
	}
	if got := records() - recordsBefore; got != 1 {
		t.Errorf("refine wrote %d metadata records, want 1", got)
	}
	if puts := w.store.Metrics.Snapshot().Sub(before).Puts; puts != 2 {
		t.Errorf("refine issued %d PUTs, want 2: the index file and one metadata record", puts)
	}
	now, err := w.cli.ListIndexes(ctx, "emb", component.KindIVFPQ)
	if err != nil || len(now) != 1 || now[0].IndexKey != e.IndexKey {
		t.Fatalf("rows after refine = %+v, %v; want only the refined one", now, err)
	}
}

// TestRefineWithZeroOptions: RefineOptions' defaults apply before the
// hot cells are picked, so a refinement with zero options splits at
// most the default 8 cells and publishes one replacement row. The pick
// read MaxCells before any default applied, and zero picked no cell:
// a refinement with zero options published nothing.
func TestRefineWithZeroOptions(t *testing.T) {
	ctx := context.Background()
	w := vectorWorld(t)
	old, err := w.cli.ListIndexes(ctx, "emb", component.KindIVFPQ)
	if err != nil || len(old) != 1 {
		t.Fatalf("vector index files = %d, %v; want one", len(old), err)
	}
	open := func(e meta.IndexEntry) *ivfpq.Index {
		t.Helper()
		r, err := w.cli.openReader(ctx, e)
		if err != nil {
			t.Fatal(err)
		}
		ix, err := w.cli.openIVF(ctx, r)
		if err != nil {
			t.Fatal(err)
		}
		return ix
	}
	const nprobe = 4
	before := open(old[0])
	probes := workload.NewVectorGen(workload.VectorConfig{Seed: 9, Dim: 8, Clusters: 8, Spread: 0.2}).Queries(64)
	if hot := ivfpq.HotCells(before, probes, nprobe, before.NumLists()); len(hot) <= 8 {
		t.Fatalf("the probes hit %d refinable cells, want more than the default 8", len(hot))
	}
	e, err := w.cli.RefineVectorIndex(ctx, "emb", old[0].IndexKey, probes, nprobe, ivfpq.RefineOptions{})
	if err != nil || e == nil {
		t.Fatalf("refine with zero options: entry %v, err %v", e, err)
	}
	now, err := w.cli.ListIndexes(ctx, "emb", component.KindIVFPQ)
	if err != nil || len(now) != 1 || now[0].IndexKey != e.IndexKey {
		t.Fatalf("rows after refine = %+v, %v; want only the refined one", now, err)
	}
	// Each split cell becomes at most SplitFactor (4) cells.
	if grown := open(now[0]).NumLists() - before.NumLists(); grown <= 0 || grown > 8*3 {
		t.Errorf("refine grew %d cells into %d more, want 1 to %d: at most 8 cells split", before.NumLists(), grown, 8*3)
	}
}
