package core

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"time"

	"rottnest/internal/component"
	"rottnest/internal/lake"
	"rottnest/internal/meta"
	"rottnest/internal/objectstore"
	"rottnest/internal/parquet"
	"rottnest/internal/simtime"
	"rottnest/internal/workload"
)

// coldWorld is a fixed-seed lake of three indexed columns — id/trie,
// body/fm, emb/ivfpq, one index file each — on the S3 latency model,
// shaped like the wall-clock benchmark's search world.
type coldWorld struct {
	clock   *simtime.VirtualClock
	store   *objectstore.Stack
	metrics *objectstore.Metrics
	keys    [][16]byte
	vecs    [][]float32
	needle  string
	// needleRow is a row of the first file holding the needle.
	needleRow int
	// docs is the first file's body column.
	docs []string

	// The generators and the handle files are appended through; the
	// maintenance depth tests grow the lake with more of the same.
	table  *lake.Table
	ids    *workload.UUIDGen
	text   *workload.TextGen
	vecGen *workload.VectorGen
}

const (
	coldDim  = 32
	coldRows = 2048
)

var coldSchema = parquet.MustSchema(
	parquet.Column{Name: "id", Type: parquet.TypeFixedLenByteArray, TypeLen: 16},
	parquet.Column{Name: "body", Type: parquet.TypeByteArray},
	parquet.Column{Name: "emb", Type: parquet.TypeFixedLenByteArray, TypeLen: 4 * coldDim},
)

func newColdWorld(t *testing.T) *coldWorld {
	t.Helper()
	ctx := context.Background()
	w := &coldWorld{
		clock:     simtime.NewVirtualClock(),
		needle:    "Ndl0Xq",
		needleRow: coldRows / 3,
		ids:       workload.NewUUIDGen(7),
		text:      workload.NewTextGen(workload.DefaultTextConfig(1)),
		vecGen:    workload.NewVectorGen(workload.VectorConfig{Seed: 7, Dim: coldDim, Clusters: 64, Spread: 0.18}),
	}
	model := objectstore.DefaultS3Model()
	w.store = objectstore.NewStack(objectstore.NewMemStore(w.clock), objectstore.StackOptions{Latency: &model, CacheBytes: -1})
	w.metrics = w.store.Metrics
	var err error
	if w.table, err = lake.CreateWith(ctx, w.store, "lake", coldSchema, lake.OpenOptions{}); err != nil {
		t.Fatal(err)
	}
	w.appendFile(t)
	w.appendFile(t)
	cli := NewClient(w.table, Config{IndexDir: "rottnest"})
	for _, spec := range []IndexSpec{{"id", component.KindTrie}, {"body", component.KindFM}, {"emb", component.KindIVFPQ}} {
		if _, err := cli.Index(ctx, spec.Column, spec.Kind); err != nil {
			t.Fatal(err)
		}
	}
	return w
}

// compactVectors appends ten more files, indexes their vectors and
// merges all twelve files' IVF-PQ indexes into one file, which lies
// between component.DefaultTailBytes and component.WholeFileBytes.
func (w *coldWorld) compactVectors(t *testing.T) meta.IndexEntry {
	t.Helper()
	ctx := context.Background()
	for range 10 {
		w.appendFile(t)
	}
	cli := NewClient(w.table, Config{IndexDir: "rottnest"})
	if _, err := cli.Index(ctx, "emb", component.KindIVFPQ); err != nil {
		t.Fatal(err)
	}
	merged, err := cli.Compact(ctx, "emb", component.KindIVFPQ, CompactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(merged) != 1 || merged[0].SizeBytes <= component.DefaultTailBytes || merged[0].SizeBytes > component.WholeFileBytes {
		t.Fatalf("compacted IVF-PQ index %+v, want one file of (256 KiB, 1 MiB]", merged)
	}
	return merged[0]
}

// appendFile appends the generators' next coldRows rows as one data
// file; the first file carries the needle and keeps its keys and
// vectors for the queries.
func (w *coldWorld) appendFile(t *testing.T) {
	t.Helper()
	keys, embs := w.ids.Batch(coldRows), w.vecGen.Batch(coldRows)
	docs := w.text.Docs(coldRows)
	if w.keys == nil {
		docs = workload.PlantNeedle(docs, w.needle, []int{w.needleRow, 2 * coldRows / 3})
		w.keys, w.vecs, w.docs = keys, embs, docs
	}
	b := parquet.NewBatch(coldSchema)
	cols := [3][][]byte{}
	for i := 0; i < coldRows; i++ {
		cols[0] = append(cols[0], keys[i][:])
		cols[1] = append(cols[1], []byte(docs[i]))
		cols[2] = append(cols[2], workload.Float32sToBytes(embs[i]))
	}
	for c := range cols {
		b.Cols[c] = parquet.ColumnValues{Bytes: cols[c]}
	}
	if _, err := w.table.Append(context.Background(), b, parquet.WriterOptions{RowGroupRows: 2048, PageBytes: 64 << 10}); err != nil {
		t.Fatal(err)
	}
}

// indexEach appends n files and indexes the id and body columns after
// each, so each column gains n index files; the first also covers any
// files appended since the column was last indexed.
func (w *coldWorld) indexEach(t *testing.T, n int) {
	t.Helper()
	ctx := context.Background()
	cli := NewClient(w.table, Config{IndexDir: "rottnest"})
	for range n {
		w.appendFile(t)
		for _, spec := range []IndexSpec{{"id", component.KindTrie}, {"body", component.KindFM}} {
			if _, err := cli.Index(ctx, spec.Column, spec.Kind); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// cold runs one query the way a stateless searcher does — a fresh
// table handle and a fresh client of cfg — and returns its virtual
// latency and the requests it issued.
func (w *coldWorld) cold(t *testing.T, cfg Config, cq CompoundQuery) (*Result, time.Duration, objectstore.Snapshot) {
	t.Helper()
	session := simtime.NewSession()
	ctx := simtime.With(context.Background(), session)
	before := w.metrics.Snapshot()
	table, err := lake.OpenWith(ctx, w.store, "lake", lake.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cfg.IndexDir = "rottnest"
	res, err := NewClient(table, cfg).SearchCompound(ctx, cq)
	if err != nil {
		t.Fatal(err)
	}
	return res, session.Elapsed(), w.metrics.Snapshot().Sub(before)
}

// depthRow is one class of the cold-path table: a query, the levels
// it waits through, each named, and the requests and bytes it issues.
type depthRow struct {
	name    string
	expr    *Expr
	output  string
	levels  []string
	gets    int64
	bytes   int64
	matches int
}

// logDepth logs one row of the class table as a markdown table line
// (make depth-table prints them): measured levels past the LIST, GETs,
// bytes and virtual milliseconds.
func logDepth(t *testing.T, table, name string, elapsed time.Duration, reqs objectstore.Snapshot) {
	t.Helper()
	t.Logf("| %s | %s | LIST + %d | %d | %d | %.1f |", table, name, (elapsed-60*time.Millisecond)/(30*time.Millisecond),
		reqs.Gets, reqs.BytesRead, float64(elapsed)/float64(time.Millisecond))
}

// checkDepth runs each row cold on a client of cfg and checks it. A
// level is one round trip nothing earlier could have issued — 60 ms
// for the LIST, 30 ms for each GET fan — so the virtual latency is
// their sum, plus under slack the model's per-prefix queueing of a
// wide fan: under 3 ms on the one-file world, under 4 ms on a fan over
// ten index files.
func (w *coldWorld) checkDepth(t *testing.T, table string, cfg Config, slack time.Duration, rows []depthRow) {
	t.Helper()
	for _, tc := range rows {
		res, elapsed, reqs := w.cold(t, cfg, CompoundQuery{Expr: tc.expr, K: 10, Snapshot: -1, Output: tc.output})
		logDepth(t, table, tc.name, elapsed, reqs)
		if len(res.Matches) != tc.matches {
			t.Errorf("%s, %s: %d matches, want %d", table, tc.name, len(res.Matches), tc.matches)
		}
		if reqs.Heads != 0 || reqs.Lists != 2 || reqs.Gets != tc.gets {
			t.Errorf("%s, %s: issued %d HEADs, %d LISTs, %d GETs; want 0, 2, %d", table, tc.name, reqs.Heads, reqs.Lists, reqs.Gets, tc.gets)
		}
		// Object names are random, and the index files and log records
		// that carry them compress a few bytes shorter or longer from
		// run to run.
		if d := reqs.BytesRead - tc.bytes; d < -512 || d > 512 {
			t.Errorf("%s, %s: read %d B, want %d ± 512", table, tc.name, reqs.BytesRead, tc.bytes)
		}
		want := 60*time.Millisecond + time.Duration(len(tc.levels)-1)*30*time.Millisecond
		if elapsed < want || elapsed >= want+slack {
			t.Errorf("%s, %s: %v of virtual time, want %v: %d levels %q", table, tc.name, elapsed, want, len(tc.levels), tc.levels)
		}
	}
}

// TestColdPathDepth is the cold path's class table (DESIGN.md §18): per
// query class, the requests a cold query issues and the dependent
// levels it waits through, each level named. Under -v it logs one
// markdown line per row; make depth-table prints them.
//
// An FM probe predicts its walk from the root's checkpoints and fetches
// the BWT blocks and page-map blocks it predicts in one fan beside the
// manifest: a pattern whose prediction completes costs one level after
// the FM tail however long it is, where this world's needle once
// waited on three walk steps and the page map. The misses pin what
// prediction costs when there is little to find: a needle with a
// symbol the text lacks reads no block and waits only on the manifest,
// a common word is one fan like the needle, and an absent run of
// present symbols, which the checkpoints cannot prove empty, pays one
// GET for the page-map block of the rows its bounds allow, and no
// level. An index file of at most 1 MiB is read whole at open, so a
// vector query on an IVF-PQ file past the 256 KiB tail waits on no
// manifest or list fan after it.
//
// The meta log's LIST covers the index directory, so a cold plan opens
// the index files it predicts in the fan of the log records: every
// class waits on its index tails there, not one level after. A staged
// AND's FM files open there too, so a matching AND waits on the FM
// walk, not on the FM tail and then the walk, and an AND whose trie
// stage rules out every file pays the FM tail it discards, and no
// level. The opens are all or none: on a world of five trie and five
// FM files, a client of width 2 cannot open ten files in one wave,
// opens nothing early, and its rows keep the levels they had before
// the opens existed.
func TestColdPathDepth(t *testing.T) {
	w := newColdWorld(t)
	rng := rand.New(rand.NewSource(3))
	vec := append([]float32(nil), w.vecs[100]...)
	for i := range vec {
		vec[i] += float32(rng.NormFloat64() * 0.09)
	}
	needle := PredSubstring("body", []byte(w.needle))
	// opened names the levels of a plan that opens tails in its log fan.
	opened := func(tails string, rest ...string) []string {
		return append([]string{"LIST lake log + meta log", "log fans ‖ " + tails}, rest...)
	}
	walk := func(fans int) []string {
		out := []string{}
		for range fans {
			out = append(out, "walk fan")
		}
		return append(out, "data pages")
	}
	and := PredUUID("id", w.keys[w.needleRow])
	absent := PredUUID("id", [16]byte{0xff, 1, 2, 3})
	// The selective AND: its uuid leaf hits one page of one file, its
	// common word every page.
	sel := 0
	for !strings.Contains(w.docs[sel], "the") {
		sel++
	}
	selective := And(PredUUID("id", w.keys[sel]), PredSubstring("body", []byte("the")))
	trieThenWalk := opened("trie tail ‖ fm tail", walk(1)...)
	shortCircuit := opened("trie tail ‖ fm tail")
	w.checkDepth(t, "default", Config{}, 3*time.Millisecond, []depthRow{
		{"uuid", PredUUID("id", w.keys[5]), "id", opened("trie tail", "data pages"), 8, 54_950, 1},
		{"substring", needle, "body", opened("fm tail", walk(1)...), 12, 581_390, 2},
		{"vector", PredVector("emb", vec, 8, 40), "emb", opened("ivfpq tail", "data pages"), 9, 611_010, 10},
		{"and(uuid,substring)", And(and, needle), "id", trieThenWalk, 14, 634_215, 1},
		// A third leaf on a column already planned is one more pattern in
		// the same walk and nothing more in the plan.
		{"and(uuid,substring,substring)", And(and, needle, PredSubstring("body", []byte("Xq"))), "id", trieThenWalk, 14, 634_215, 1},
		{"and(uuid,common word)", selective, "id", trieThenWalk, 13, 621_450, 1},
		// An absent key rules out every file at the trie stage, so the
		// FM file opened beside it is discarded, walked by no one.
		{"and(absent uuid,substring)", And(absent, needle), "id", shortCircuit, 8, 284_275, 0},
		// Both branches are probed in one fan.
		{"or(uuid,substring)", Or(PredUUID("id", w.keys[5]), needle), "id", trieThenWalk, 13, 1_053_800, 3},
		{"substring miss", PredSubstring("body", []byte("Ndl9Xq")), "body", opened("fm tail", "manifest"), 8, 265_050, 0},
		{"common word", PredSubstring("body", []byte("the")), "body", opened("fm tail", walk(1)...), 13, 805_430, 10},
		{"absent run", PredSubstring("body", []byte("qqqq")), "body", opened("fm tail", "walk fan"), 10, 327_750, 0},
		{"32-byte match", PredSubstring("body", []byte(w.docs[100][:32])), "body", opened("fm tail", walk(5)...), 19, 1_108_650, 1},
		{"32-byte miss", PredSubstring("body", []byte(w.docs[100][:18]+w.docs[200][:14])), "body", opened("fm tail", "walk fan", "walk fan", "walk fan"), 12, 1_074_560, 0},
	})
	// A client with no cache keeps no reader it opens: the probe stage
	// takes the log fan's readers directly, so no file opens twice.
	w.checkDepth(t, "no caches", coldConfig(), 3*time.Millisecond, []depthRow{
		{"uuid", PredUUID("id", w.keys[5]), "id", opened("trie tail", "data pages"), 8, 54_950, 1},
		{"and(uuid,substring)", And(and, needle), "id", trieThenWalk, 16, 490_500, 1},
		{"and(absent uuid,substring)", And(absent, needle), "id", shortCircuit, 8, 284_275, 0},
	})
	// The two files the plan predicts fit one wave of two.
	w.checkDepth(t, "width 2", Config{SearchWidth: 2}, 3*time.Millisecond, []depthRow{
		{"and(uuid,substring)", And(and, needle), "id", trieThenWalk, 14, 634_215, 1},
		{"and(uuid,common word)", selective, "id", trieThenWalk, 13, 621_450, 1},
		{"and(absent uuid,substring)", And(absent, needle), "id", shortCircuit, 8, 284_275, 0},
	})

	// An IVF-PQ file past the 256 KiB tail, like the wall-clock
	// benchmark's: its manifest and the lists the query probes sit
	// outside a tail read, and were one fan after it. Its rows pin
	// levels, not GETs or bytes: the merge orders its file table by the
	// sources' random names, so which data pages the candidates land
	// on, and how a fan merges them, varies run to run.
	merged := w.compactVectors(t)
	res, elapsed, reqs := w.cold(t, Config{}, CompoundQuery{Expr: PredVector("emb", vec, 8, 40), K: 10, Snapshot: -1, Output: "emb"})
	logDepth(t, "12 files, IVF-PQ compacted", "vector", elapsed, reqs)
	if len(res.Matches) != 10 || reqs.Lists != 2 {
		t.Errorf("vector over %d B of IVF-PQ: %d matches, %d LISTs; want 10, 2", merged.SizeBytes, len(res.Matches), reqs.Lists)
	}
	// LIST lake log + meta log, log fans ‖ the whole merged IVF-PQ file
	// (its two sources, still named by the meta table, sort before it
	// and stay shut), data pages.
	if want := 60*time.Millisecond + 2*30*time.Millisecond; elapsed < want || elapsed >= want+3*time.Millisecond {
		t.Errorf("vector over %d B of IVF-PQ: %v of virtual time, want %v", merged.SizeBytes, elapsed, want)
	}

	// Five trie and five FM index files. The default client opens all
	// ten in its log fan; a client of width 2 cannot, so it opens none
	// and waits, as before the opens existed, on three trie waves and
	// three FM waves of two levels each.
	w.indexEach(t, 4)
	w.checkDepth(t, "5+5 index files", Config{}, 5*time.Millisecond, []depthRow{
		{"and(uuid,substring)", And(and, needle), "id", trieThenWalk, 50, 1_846_450, 1},
		{"and(uuid,common word)", selective, "id", trieThenWalk, 54, 2_011_030, 1},
		{"and(absent uuid,substring)", And(absent, needle), "id", shortCircuit, 40, 1_491_620, 0},
	})
	logFans := []string{"LIST lake log + meta log", "log fans"}
	trieWaves := append(logFans, "trie tails 1–2", "trie tails 3–4", "trie tail 5")
	fmWaves := append(trieWaves, "fm tails 1–2", "walk fans 1–2", "fm tails 3–4", "walk fans 3–4", "fm tail 5", "walk fan 5", "data pages")
	w.checkDepth(t, "5+5 index files, width 2", Config{SearchWidth: 2}, 5*time.Millisecond, []depthRow{
		{"and(uuid,substring)", And(and, needle), "id", fmWaves, 50, 1_846_450, 1},
		{"and(uuid,common word)", selective, "id", fmWaves, 54, 2_011_030, 1},
		{"and(absent uuid,substring)", And(absent, needle), "id", trieWaves, 35, 180_900, 0},
	})

	// build_compact's shape: three index rounds per kind, each compacted
	// and vacuumed, the sources' objects still listed inside the
	// timeout. Only the merged files open in the log fan.
	c := newColdWorld(t)
	c.compactRounds(t, 2)
	c.checkDepth(t, "3 rounds, compacted", Config{}, 4*time.Millisecond, []depthRow{
		{"uuid", PredUUID("id", c.keys[5]), "id", opened("trie tail", "data pages"), 20, 78_990, 1},
		{"substring", needle, "body", opened("fm tail", walk(1)...), 25, 551_150, 2},
		{"and(uuid,substring)", And(PredUUID("id", c.keys[c.needleRow]), needle), "id", trieThenWalk, 27, 623_390, 1},
	})
	// The price of prediction: an index file uploaded and not yet
	// committed sorts after the merge, opens beside it, and is dropped.
	trie := c.upload(t, "id", component.KindTrie)
	c.checkDepth(t, "3 rounds, compacted, trie uploaded", Config{}, 4*time.Millisecond, []depthRow{
		{"uuid", PredUUID("id", c.keys[5]), "id", opened("trie tail ‖ uploaded trie tail", "data pages"), 21, 118_410, 1},
	})
	// A file named in the flat layout of older releases is never
	// predicted: its unit opens after the log fan, as before.
	c.flatten(t, trie)
	c.checkDepth(t, "3 rounds, compacted, trie flat", Config{}, 4*time.Millisecond, []depthRow{
		{"uuid", PredUUID("id", c.keys[5]), "id", append(logFans, "trie tail", "data pages"), 22, 79_480, 1},
	})
}

// compactRounds gives every column rounds more index files, one data
// file each, then compacts each (column, kind) unit into one file and
// vacuums: the sources' rows go, their objects stay inside the
// timeout.
func (w *coldWorld) compactRounds(t *testing.T, rounds int) {
	t.Helper()
	ctx := context.Background()
	cli := NewClient(w.table, Config{IndexDir: "rottnest"})
	specs := []IndexSpec{{"id", component.KindTrie}, {"body", component.KindFM}, {"emb", component.KindIVFPQ}}
	for range rounds {
		w.appendFile(t)
		for _, spec := range specs {
			if _, err := cli.Index(ctx, spec.Column, spec.Kind); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, spec := range specs {
		if merged, err := cli.Compact(ctx, spec.Column, spec.Kind, CompactOptions{}); err != nil || len(merged) != 1 {
			t.Fatalf("compact %s: %+v, %v", spec.Column, merged, err)
		}
	}
	report, err := cli.Vacuum(ctx, VacuumOptions{})
	if err != nil || len(report.DroppedEntries) != 3*(rounds+1) || len(report.RemovedObjects) != 0 {
		t.Fatalf("vacuum: %+v, %v; want %d rows dropped, no object removed", report, err, 3*(rounds+1))
	}
}

// upload puts a copy of the unit's one committed index file under a
// fresh key of the unit, as an index job does before it commits, and
// returns the committed row.
func (w *coldWorld) upload(t *testing.T, column string, kind component.Kind) meta.IndexEntry {
	t.Helper()
	ctx := context.Background()
	cli := NewClient(w.table, Config{IndexDir: "rottnest"})
	all, version, err := cli.meta.ListBeside(ctx, cli.meta.Root(), nil)
	rows := meta.EntriesFor(all, column, kind)
	if err != nil || len(rows) != 1 {
		t.Fatalf("%s rows %+v, %v", column, rows, err)
	}
	data, err := w.store.Get(ctx, rows[0].IndexKey)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.store.Put(ctx, cli.indexKey(column, kind, version, false), data); err != nil {
		t.Fatal(err)
	}
	return rows[0]
}

// flatten moves the committed file of row under the flat key layout of
// older releases (files/<random>.index) and, as a vacuum past the
// timeout would, deletes every other object of its unit.
func (w *coldWorld) flatten(t *testing.T, row meta.IndexEntry) {
	t.Helper()
	ctx := context.Background()
	cli := NewClient(w.table, Config{IndexDir: "rottnest"})
	data, err := w.store.Get(ctx, row.IndexKey)
	if err != nil {
		t.Fatal(err)
	}
	flat := row
	flat.IndexKey = cli.cfg.IndexDir + indexFilePrefix + "0123456789abcdef0123456789abcdef.index"
	if err := w.store.Put(ctx, flat.IndexKey, data); err != nil {
		t.Fatal(err)
	}
	if err := cli.meta.Insert(ctx, flat); err != nil {
		t.Fatal(err)
	}
	if err := cli.meta.Delete(ctx, row.IndexKey); err != nil {
		t.Fatal(err)
	}
	unit, err := w.store.List(ctx, cli.unitDir(row.Column, row.Kind))
	if err != nil {
		t.Fatal(err)
	}
	for _, info := range unit {
		if err := w.store.Delete(ctx, info.Key); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMissingTableSurfacesAtFirstRead: opening is free, so a root with
// no table says so from the search, with the lake's own error.
func TestMissingTableSurfacesAtFirstRead(t *testing.T) {
	w := newColdWorld(t)
	ctx := context.Background()
	table, err := lake.OpenWith(ctx, w.store, "nowhere", lake.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cli := NewClient(table, Config{IndexDir: "rottnest"})
	if _, err := cli.SearchCompound(ctx, CompoundQuery{Expr: PredUUID("id", w.keys[0]), K: 1, Snapshot: -1}); !errors.Is(err, lake.ErrNoTable) {
		t.Fatalf("search on a missing table: %v", err)
	}
	if _, err := cli.Status(ctx); !errors.Is(err, lake.ErrNoTable) {
		t.Fatalf("status on a missing table: %v", err)
	}
}
