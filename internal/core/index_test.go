package core

import (
	"context"
	"slices"
	"testing"

	"rottnest/internal/component"
	"rottnest/internal/workload"
)

// TestIndexOnlyIsPerSpec: IndexOptions.Only restricts the specs it
// names to their listed uncovered files — a listed file already
// covered, or outside the snapshot, is ignored — and a spec it does not
// name indexes its whole backlog in the same job.
func TestIndexOnlyIsPerSpec(t *testing.T) {
	ctx := context.Background()
	e := newEnv(t, uuidSchema, Config{})
	gen := workload.NewUUIDGen(9)
	var paths []string
	for i := 0; i < 4; i++ {
		_, path := e.appendUUIDs(t, gen, 100)
		paths = append(paths, path)
	}
	trie := IndexSpec{Column: "id", Kind: component.KindTrie}
	fm := IndexSpec{Column: "payload", Kind: component.KindFM}

	first, err := e.cli.IndexWithOptions(ctx, trie.Column, trie.Kind, IndexOptions{Only: map[IndexSpec][]string{trie: {paths[0]}}})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(first.Files, paths[:1]) {
		t.Fatalf("first trie entry covers %v, want %v", first.Files, paths[:1])
	}

	plan, err := e.cli.PlanInputs(ctx, -1)
	if err != nil {
		t.Fatal(err)
	}
	results, err := e.cli.IndexSpecs(ctx, plan, []IndexSpec{trie, fm}, IndexOptions{
		Only: map[IndexSpec][]string{trie: {paths[2], paths[0], "data/not-in-the-snapshot.parquet"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range [][]string{{paths[2]}, paths} {
		r := results[i]
		if r.Err != nil || r.Entry == nil {
			t.Fatalf("spec %d: entry %v, err %v", i, r.Entry, r.Err)
		}
		got, want := slices.Clone(r.Entry.Files), slices.Clone(want)
		slices.Sort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Errorf("spec %d's entry covers %v, want %v", i, got, want)
		}
	}
}
