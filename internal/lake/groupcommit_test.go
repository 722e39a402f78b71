package lake

import (
	"context"
	"errors"
	"sync"
	"testing"

	"rottnest/internal/objectstore"
	"rottnest/internal/parquet"
	"rottnest/internal/simtime"
)

// TestCommitFilesOneRound verifies a group of staged files lands as
// one log entry: one version advance for N batches.
func TestCommitFilesOneRound(t *testing.T) {
	ctx := context.Background()
	tbl, _, _ := newTestTable(t)
	before, err := tbl.Version(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var pending []PendingFile
	for i := 0; i < 4; i++ {
		pf, err := tbl.WriteFile(ctx, msgBatch("a", "b"), parquet.WriterOptions{})
		if err != nil {
			t.Fatal(err)
		}
		pending = append(pending, pf)
	}
	// Staged files are invisible until committed.
	snap, err := tbl.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Files) != 0 {
		t.Fatalf("staged files visible before commit: %d", len(snap.Files))
	}
	v, err := tbl.CommitFiles(ctx, pending...)
	if err != nil {
		t.Fatal(err)
	}
	if v != before+1 {
		t.Fatalf("group commit advanced %d versions, want 1", v-before)
	}
	snap, err = tbl.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Files) != 4 || snap.LiveRows() != 8 {
		t.Fatalf("snapshot files=%d rows=%d, want 4/8", len(snap.Files), snap.LiveRows())
	}
	if _, err := tbl.CommitFiles(ctx); err == nil {
		t.Fatal("empty group commit accepted")
	}
}

// TestRacingGroupCommitsBothLand verifies the commit retry loop under
// contention: two concurrent group commits must both land at disjoint
// versions with no lost batches, and OnCommit must fire exactly once
// per committed version.
func TestRacingGroupCommitsBothLand(t *testing.T) {
	ctx := context.Background()
	for trial := 0; trial < 10; trial++ {
		tbl, _, _ := newTestTable(t)

		var hookMu sync.Mutex
		fired := make(map[int64]int)
		tbl.OnCommit(func(v int64) {
			hookMu.Lock()
			fired[v]++
			hookMu.Unlock()
		})

		stage := func(n int) []PendingFile {
			var out []PendingFile
			for i := 0; i < n; i++ {
				pf, err := tbl.WriteFile(ctx, msgBatch("x"), parquet.WriterOptions{})
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, pf)
			}
			return out
		}
		g1, g2 := stage(3), stage(3)

		var wg sync.WaitGroup
		versions := make([]int64, 2)
		errs := make([]error, 2)
		wg.Add(2)
		go func() { defer wg.Done(); versions[0], errs[0] = tbl.CommitFiles(ctx, g1...) }()
		go func() { defer wg.Done(); versions[1], errs[1] = tbl.CommitFiles(ctx, g2...) }()
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("commit %d: %v", i, err)
			}
		}
		if versions[0] == versions[1] {
			t.Fatalf("both commits claimed version %d", versions[0])
		}

		snap, err := tbl.Snapshot(ctx)
		if err != nil {
			t.Fatal(err)
		}
		want := map[string]bool{}
		for _, pf := range append(g1, g2...) {
			want[pf.Path] = true
		}
		if len(snap.Files) != len(want) {
			t.Fatalf("snapshot has %d files, want %d", len(snap.Files), len(want))
		}
		for _, f := range snap.Files {
			if !want[f.Path] {
				t.Fatalf("unexpected file %s", f.Path)
			}
		}

		hookMu.Lock()
		for _, v := range versions {
			if fired[v] != 1 {
				t.Fatalf("OnCommit fired %d times for version %d", fired[v], v)
			}
		}
		hookMu.Unlock()
	}
}

// TestCommitResolvesAmbiguousPut verifies that when every conditional
// PUT reports an ambiguous outcome (the write lands, the response is
// lost), the commit loop resolves it by read-back: the caller sees
// success, the version advances exactly once, no batch is duplicated,
// and OnCommit fires exactly once.
func TestCommitResolvesAmbiguousPut(t *testing.T) {
	ctx := context.Background()
	clock := simtime.NewVirtualClock()
	mem := objectstore.NewMemStore(clock)
	if _, err := CreateWith(ctx, mem, "tbl", tblSchema, OpenOptions{}); err != nil {
		t.Fatal(err)
	}
	faulty := objectstore.NewFaultStoreWithProfile(mem, objectstore.FaultProfile{AmbiguousPut: 1.0})
	tbl, err := OpenWith(ctx, faulty, "tbl", OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}

	var hookMu sync.Mutex
	fired := make(map[int64]int)
	tbl.OnCommit(func(v int64) {
		hookMu.Lock()
		fired[v]++
		hookMu.Unlock()
	})

	g := make([]PendingFile, 0, 2)
	for i := 0; i < 2; i++ {
		pf, err := tbl.WriteFile(ctx, msgBatch("a"), parquet.WriterOptions{})
		if err != nil {
			t.Fatal(err)
		}
		g = append(g, pf)
	}
	v, err := tbl.CommitFiles(ctx, g...)
	if err != nil {
		t.Fatalf("ambiguous commit not resolved: %v", err)
	}
	if v != 2 {
		t.Fatalf("version = %d, want 2", v)
	}
	if got := faulty.Counts().AmbiguousPuts; got < 1 {
		t.Fatalf("no ambiguous put injected (counts=%d)", got)
	}
	hookMu.Lock()
	if fired[v] != 1 || len(fired) != 1 {
		t.Fatalf("OnCommit fired %v, want exactly once for version %d", fired, v)
	}
	hookMu.Unlock()

	snap, err := tbl.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Files) != 2 || snap.LiveRows() != 2 {
		t.Fatalf("snapshot files=%d rows=%d, want 2/2", len(snap.Files), snap.LiveRows())
	}
}

// TestCommitCleanFailureFiresNoHook verifies the complementary path: a
// conditional PUT that never reaches the store (read-back finds no log
// entry) must surface the error, fire no hook, and leave the table
// retryable without duplication.
func TestCommitCleanFailureFiresNoHook(t *testing.T) {
	ctx := context.Background()
	clock := simtime.NewVirtualClock()
	mem := objectstore.NewMemStore(clock)
	if _, err := CreateWith(ctx, mem, "tbl", tblSchema, OpenOptions{}); err != nil {
		t.Fatal(err)
	}
	// The first conditional PUT through the faulty handle is the group
	// commit (WriteFile uses plain Put); fail exactly that one.
	var conds int
	faulty := objectstore.NewFaultStore(mem, func(op objectstore.Op, key string, _ int64) bool {
		if op != objectstore.OpPut {
			return false
		}
		if len(key) < 9 || key[len(key)-5:] != ".json" {
			return false
		}
		conds++
		return conds == 1
	})
	tbl, err := OpenWith(ctx, faulty, "tbl", OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fires := 0
	tbl.OnCommit(func(int64) { fires++ })

	pf, err := tbl.WriteFile(ctx, msgBatch("a"), parquet.WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.CommitFiles(ctx, pf); !errors.Is(err, objectstore.ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if fires != 0 {
		t.Fatalf("OnCommit fired %d times on failed commit", fires)
	}
	// The caller may retry the same staged file: exactly one copy lands.
	v, err := tbl.CommitFiles(ctx, pf)
	if err != nil {
		t.Fatal(err)
	}
	if fires != 1 {
		t.Fatalf("OnCommit fired %d times, want 1", fires)
	}
	snap, err := tbl.SnapshotAt(ctx, v)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Files) != 1 || snap.Files[0].Path != pf.Path {
		t.Fatalf("snapshot %+v, want exactly %s", snap.Files, pf.Path)
	}
}
