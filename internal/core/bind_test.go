package core

import (
	"errors"
	"reflect"
	"testing"

	"rottnest/internal/component"
	"rottnest/internal/lake"
	"rottnest/internal/meta"
	"rottnest/internal/parquet"
)

// TestBindPlansWithoutAStore drives the bind stage on hand-built
// snapshots and listings: no store, no client, no context. Each case
// pins the searched file set, every leaf's chosen index files and
// covered files, and the plan statistics.
func TestBindPlansWithoutAStore(t *testing.T) {
	schema := parquet.MustSchema(
		parquet.Column{Name: "id", Type: parquet.TypeFixedLenByteArray, TypeLen: 16},
		parquet.Column{Name: "body", Type: parquet.TypeByteArray},
		parquet.Column{Name: "ts", Type: parquet.TypeInt64},
	)
	tsFile := func(path string, min, max int64) lake.DataFile {
		return lake.DataFile{Path: path, Rows: 100, Stats: map[string]lake.ColumnStats{
			"ts": {Min: parquet.OrderableInt64(min), Max: parquet.OrderableInt64(max)},
		}}
	}
	snap := &lake.Snapshot{Version: 7, Schema: schema, Files: []lake.DataFile{
		tsFile("a", 0, 9), tsFile("b", 10, 19), tsFile("c", 20, 29), tsFile("d", 30, 39),
	}}
	entry := func(key, column string, kind component.Kind, files ...string) meta.IndexEntry {
		return meta.IndexEntry{IndexKey: key, Column: column, Kind: kind, Files: files}
	}
	var key [16]byte
	uuid, sub := PredUUID("id", key), PredSubstring("body", []byte("needle"))
	trieAll := entry("t-abcd", "id", component.KindTrie, "a", "b", "c", "d")
	type leafWant struct {
		chosen  []string
		covered []string
	}
	cases := []struct {
		name     string
		cq       CompoundQuery
		listings [][]meta.IndexEntry // aligned with the shape's units
		excluded map[string]bool
		searched []string
		leaves   []leafWant
		stats    Stats
	}{
		{
			name:     "one index covers every file",
			cq:       CompoundQuery{Expr: uuid},
			listings: [][]meta.IndexEntry{{trieAll}},
			searched: []string{"a", "b", "c", "d"},
			leaves:   []leafWant{{[]string{"t-abcd"}, []string{"a", "b", "c", "d"}}},
			stats:    Stats{IndexFiles: 1, CoveredFiles: 4},
		},
		{
			name:     "partition filter prunes by file stats",
			cq:       CompoundQuery{Expr: uuid, Partition: &PartitionFilter{Column: "ts", Min: 12, Max: 25}},
			listings: [][]meta.IndexEntry{{trieAll}},
			searched: []string{"b", "c"},
			leaves:   []leafWant{{[]string{"t-abcd"}, []string{"b", "c"}}},
			stats:    Stats{IndexFiles: 1, CoveredFiles: 2, PrunedFiles: 2},
		},
		{
			name:     "file range is a half-open path interval",
			cq:       CompoundQuery{Expr: uuid, FileRange: &FileRange{Start: "b", End: "d"}},
			listings: [][]meta.IndexEntry{{trieAll}},
			searched: []string{"b", "c"},
			leaves:   []leafWant{{[]string{"t-abcd"}, []string{"b", "c"}}},
			stats:    Stats{IndexFiles: 1, CoveredFiles: 2, PrunedFiles: 2},
		},
		{
			name: "greedy cover picks the larger of overlapping entries, then what adds coverage",
			cq:   CompoundQuery{Expr: uuid},
			listings: [][]meta.IndexEntry{{
				entry("t-ab", "id", component.KindTrie, "a", "b"),
				entry("t-abc", "id", component.KindTrie, "a", "b", "c"),
				entry("t-cd", "id", component.KindTrie, "c", "d"),
			}},
			searched: []string{"a", "b", "c", "d"},
			leaves:   []leafWant{{[]string{"t-abc", "t-cd"}, []string{"a", "b", "c", "d"}}},
			stats:    Stats{IndexFiles: 2, CoveredFiles: 4},
		},
		{
			name:     "a leaf with no index leaves every file to the scan path",
			cq:       CompoundQuery{Expr: And(uuid, sub), Output: "id"},
			listings: [][]meta.IndexEntry{{trieAll}, nil},
			searched: []string{"a", "b", "c", "d"},
			leaves:   []leafWant{{[]string{"t-abcd"}, []string{"a", "b", "c", "d"}}, {nil, nil}},
			stats:    Stats{IndexFiles: 1, UnindexedFiles: 4},
		},
		{
			name: "a file is covered only when every leaf covers it",
			cq:   CompoundQuery{Expr: And(uuid, sub), Output: "id"},
			listings: [][]meta.IndexEntry{
				{trieAll},
				{entry("f-ab", "body", component.KindFM, "a", "b", "gone")},
			},
			searched: []string{"a", "b", "c", "d"},
			leaves:   []leafWant{{[]string{"t-abcd"}, []string{"a", "b", "c", "d"}}, {[]string{"f-ab"}, []string{"a", "b"}}},
			stats:    Stats{IndexFiles: 2, CoveredFiles: 2, UnindexedFiles: 2},
		},
		{
			name: "a replan ignores the excluded index file",
			cq:   CompoundQuery{Expr: uuid},
			listings: [][]meta.IndexEntry{{
				trieAll,
				entry("t-ab", "id", component.KindTrie, "a", "b"),
			}},
			excluded: map[string]bool{"t-abcd": true},
			searched: []string{"a", "b", "c", "d"},
			leaves:   []leafWant{{[]string{"t-ab"}, []string{"a", "b"}}},
			stats:    Stats{IndexFiles: 1, CoveredFiles: 2, UnindexedFiles: 2},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			shape, err := compileShape(tc.cq)
			if err != nil {
				t.Fatal(err)
			}
			env, err := bind(tc.cq, shape, snap, tc.listings, tc.excluded)
			if err != nil {
				t.Fatal(err)
			}
			var searched []string
			for _, f := range env.searched {
				searched = append(searched, f.Path)
			}
			if !reflect.DeepEqual(searched, tc.searched) {
				t.Errorf("searched = %v, want %v", searched, tc.searched)
			}
			if len(env.leaves) != len(tc.leaves) {
				t.Fatalf("%d leaves bound, want %d", len(env.leaves), len(tc.leaves))
			}
			for i, want := range tc.leaves {
				var chosen, covered []string
				for _, e := range env.leaves[i].chosen {
					chosen = append(chosen, e.IndexKey)
				}
				for _, f := range env.searched {
					if env.leaves[i].covered[f.Path] {
						covered = append(covered, f.Path)
					}
				}
				if !reflect.DeepEqual(chosen, want.chosen) || !reflect.DeepEqual(covered, want.covered) {
					t.Errorf("leaf %d: chosen %v covered %v, want %v %v", i, chosen, covered, want.chosen, want.covered)
				}
			}
			if *env.stats != tc.stats {
				t.Errorf("stats = %+v, want %+v", *env.stats, tc.stats)
			}
			if len(snap.Files) != 4 {
				t.Fatalf("bind modified the shared snapshot: %d files", len(snap.Files))
			}
		})
	}

	// Schema errors surface from bind, before any index is consulted.
	for _, cq := range []CompoundQuery{
		{Expr: PredUUID("nope", key)},
		{Expr: PredUUID("body", key)}, // a trie needs FIXED_LEN_BYTE_ARRAY(16)
		{Expr: uuid, Partition: &PartitionFilter{Column: "nope"}},
	} {
		shape, err := compileShape(cq)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := bind(cq, shape, snap, [][]meta.IndexEntry{nil}, nil); !errors.Is(err, ErrBadColumn) {
			t.Errorf("bind(%s) = %v, want ErrBadColumn", exprKey(cq.Expr), err)
		}
	}
}
