package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rottnest"
)

// captureStdout returns what fn printed to standard output.
func captureStdout(t *testing.T, fn func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = stdout }()
	done := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		done <- string(b)
	}()
	fn()
	w.Close()
	return <-done
}

// metered runs one cold substring search on fresh handles over a
// metered stack of the directory store and returns the GETs it served.
func metered(t *testing.T, dir, column, substring string, k int) int64 {
	t.Helper()
	ctx := context.Background()
	base, err := rottnest.NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	stack := rottnest.NewStack(base, rottnest.StackOptions{Latency: &rottnest.LatencyModel{}, CacheBytes: -1})
	table, err := rottnest.OpenTable(ctx, stack, "lake")
	if err != nil {
		t.Fatal(err)
	}
	client := rottnest.NewClient(table, rottnest.Config{
		IndexDir: "lake-index", CacheBytes: -1, DecodedCacheBytes: -1, PlanCacheTTLVersions: -1,
	})
	if _, err := client.Search(ctx, rottnest.Query{Column: column, Substring: []byte(substring), K: k, Snapshot: -1}); err != nil {
		t.Fatal(err)
	}
	return stack.Metrics.Gets.Load()
}

func TestParseSchema(t *testing.T) {
	schema, err := parseSchema("id:uuid, msg:text,ts:int,score:double,ok:bool,emb:vec:8")
	if err != nil {
		t.Fatal(err)
	}
	if len(schema.Columns) != 6 {
		t.Fatalf("columns = %d", len(schema.Columns))
	}
	if schema.Columns[0].Type != rottnest.TypeFixedLenByteArray || schema.Columns[0].TypeLen != 16 {
		t.Fatalf("uuid column = %+v", schema.Columns[0])
	}
	if schema.Columns[5].TypeLen != 32 {
		t.Fatalf("vec column = %+v", schema.Columns[5])
	}
	for _, bad := range []string{"", "noname", "x:unknown", "v:vec", "v:vec:zero", "v:vec:-1"} {
		if _, err := parseSchema(bad); err == nil {
			t.Fatalf("accepted %q", bad)
		}
	}
}

func TestParseKind(t *testing.T) {
	cases := map[string]rottnest.IndexKind{
		"trie": rottnest.KindTrie, "uuid": rottnest.KindTrie,
		"fm": rottnest.KindFM, "substring": rottnest.KindFM,
		"ivfpq": rottnest.KindIVFPQ, "vector": rottnest.KindIVFPQ,
	}
	for in, want := range cases {
		got, err := parseKind(in)
		if err != nil || got != want {
			t.Fatalf("parseKind(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := parseKind("btree"); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

// TestCLIWorkflow drives the subcommand functions end to end against
// a temp directory store, exactly as the CLI would.
func TestCLIWorkflow(t *testing.T) {
	dir := t.TempDir()
	run := func(fn func([]string) error, args ...string) {
		t.Helper()
		if err := fn(args); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
	}
	run(cmdCreate, "-store", dir, "-table", "lake", "-schema", "id:uuid,msg:text")
	run(cmdGen, "-store", dir, "-table", "lake", "-rows", "500", "-batches", "2", "-seed", "7")
	run(cmdIndex, "-store", dir, "-table", "lake", "-column", "id", "-kind", "trie")
	run(cmdIndex, "-store", dir, "-table", "lake", "-column", "msg", "-kind", "fm")
	run(cmdSearch, "-store", dir, "-table", "lake", "-column", "msg", "-substring", "a", "-k", "3")
	run(cmdSearch, "-store", dir, "-table", "lake", "-where", `msg~a AND (msg~e OR msg~"th")`, "-k", "3", "-explain")
	// A cold search has no cache to meter at: it reports the GETs the
	// metering layer under its table served, here the same search run
	// over a stack of our own.
	out := captureStdout(t, func() {
		run(cmdSearch, "-store", dir, "-table", "lake", "-column", "msg", "-substring", "a", "-k", "3", "-cold")
	})
	var reported int64
	if i := strings.Index(out, "reads: "); i < 0 {
		t.Fatalf("no reads line in %q", out)
	} else if _, err := fmt.Sscanf(out[i:], "reads: %d GETs", &reported); err != nil {
		t.Fatal(err)
	}
	if served := metered(t, dir, "msg", "a", 3); reported == 0 || reported != served {
		t.Fatalf("-cold reported %d GETs, the metering layer served %d", reported, served)
	}
	// ingest -maintain runs the scheduler on the command's one client,
	// -cold and all, in both modes, and converges before it exits.
	for _, mode := range [][]string{nil, {"-adaptive"}} {
		out := captureStdout(t, func() {
			run(cmdIngest, append([]string{"-store", dir, "-table", "lake", "-rows", "50", "-batches", "4",
				"-seed", "9", "-maintain", "id:trie,msg:fm", "-cold"}, mode...)...)
		})
		if !strings.Contains(out, "; 0 rows unindexed") {
			t.Fatalf("ingest -maintain %v did not converge:\n%s", mode, out)
		}
	}
	run(cmdCompact, "-store", dir, "-table", "lake", "-column", "id", "-kind", "trie")
	run(cmdLakeCompact, "-store", dir, "-table", "lake")
	run(cmdIndex, "-store", dir, "-table", "lake", "-column", "id", "-kind", "trie")
	run(cmdVacuum, "-store", dir, "-table", "lake")
	run(cmdStatus, "-store", dir, "-table", "lake")

	// The store really is a directory tree.
	entries, err := os.ReadDir(filepath.Join(dir, "lake"))
	if err != nil || len(entries) == 0 {
		t.Fatalf("store dir empty: %v", err)
	}

	// Error paths.
	if err := cmdCreate([]string{"-store", dir, "-table", "lake", "-schema", "id:uuid"}); err == nil {
		t.Fatal("double create accepted")
	}
	if err := cmdSearch([]string{"-store", dir, "-table", "lake", "-column", "msg"}); err == nil {
		t.Fatal("search without predicate accepted")
	}
	if err := cmdSearch([]string{"-store", dir, "-table", "lake", "-column", "id", "-uuid", "nothex"}); err == nil {
		t.Fatal("bad uuid accepted")
	}
	if err := cmdSearch([]string{"-store", dir, "-table", "lake", "-where", "msg~a AND"}); err == nil {
		t.Fatal("bad -where accepted")
	}
	if err := cmdIndex([]string{"-store", dir, "-table", "lake", "-column", "id", "-kind", "wat"}); err == nil {
		t.Fatal("bad kind accepted")
	}
	if err := cmdGen([]string{"-table", "lake"}); err == nil {
		t.Fatal("missing -store accepted")
	}
}

// TestCLIPersistenceAcrossProcesses simulates two separate process
// invocations sharing only the directory store: one indexes, the
// other searches.
func TestCLIPersistenceAcrossProcesses(t *testing.T) {
	dir := t.TempDir()
	if err := cmdCreate([]string{"-store", dir, "-schema", "msg:text"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdGen([]string{"-store", dir, "-rows", "300", "-seed", "3"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdIndex([]string{"-store", dir, "-column", "msg", "-kind", "fm"}); err != nil {
		t.Fatal(err)
	}
	// "Another process": fresh handles via the search command.
	if err := cmdSearch([]string{"-store", dir, "-column", "msg", "-substring", "the", "-k", "2"}); err != nil {
		t.Fatal(err)
	}
}

func TestCLIMaintain(t *testing.T) {
	dir := t.TempDir()
	for _, args := range [][]string{
		{"-store", dir, "-schema", "id:uuid"},
	} {
		if err := cmdCreate(args); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if err := cmdGen([]string{"-store", dir, "-rows", "200", "-seed", "9"}); err != nil {
			t.Fatal(err)
		}
		if err := cmdMaintain([]string{"-store", dir, "-column", "id", "-kind", "trie", "-compact-at", "3"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := cmdStatus([]string{"-store", dir}); err != nil {
		t.Fatal(err)
	}
	if err := cmdMaintain([]string{"-store", dir, "-column", "id"}); err == nil {
		t.Fatal("missing -kind accepted")
	}
}
