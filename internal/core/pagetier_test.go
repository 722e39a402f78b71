package core

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"rottnest/internal/lake"
	"rottnest/internal/objectstore"
	"rottnest/internal/parquet"
	"rottnest/internal/simtime"
)

// serve opens the cold world's table under one long-lived client.
func (w *coldWorld) serve(t *testing.T, cfg Config) (*lake.Table, *Client) {
	t.Helper()
	table, err := lake.OpenWith(context.Background(), w.store, "lake", lake.OpenOptions{Clock: w.clock})
	if err != nil {
		t.Fatal(err)
	}
	cfg.IndexDir, cfg.Clock = "rottnest", w.clock
	return table, NewClient(table, cfg)
}

// dataKeys returns the object keys of the table's data files.
func dataKeys(t *testing.T, table *lake.Table) []string {
	t.Helper()
	snap, err := table.Snapshot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, len(snap.Files))
	for i, f := range snap.Files {
		keys[i] = table.Root() + f.Path
	}
	return keys
}

func (w *coldWorld) classQueries() map[string]CompoundQuery {
	needle := PredSubstring("body", []byte(w.needle))
	return map[string]CompoundQuery{
		"uuid":      {Expr: PredUUID("id", w.keys[5]), K: 10, Snapshot: -1, Output: "id"},
		"substring": {Expr: needle, K: 10, Snapshot: -1, Output: "body"},
		"vector":    {Expr: PredVector("emb", w.vecs[100], 8, 40), K: 10, Snapshot: -1, Output: "emb"},
		"compound":  {Expr: And(PredUUID("id", w.keys[w.needleRow]), needle), K: 10, Snapshot: -1, Output: "body"},
	}
}

// TestRepeatedQueryDecodesNoPage: the second run of a query finds
// every page it selects decoded — the decoded-object cache's hits rise
// and its misses do not, no request is issued, PagesProbed still
// counts the pages selected and the matches are the same bytes. What
// the pages contribute to the hits is then measured by dropping the
// data files' entries (nothing but pages is tagged with a data file):
// the third run decodes exactly those pages again and hits that many
// fewer times.
func TestRepeatedQueryDecodesNoPage(t *testing.T) {
	ctx := context.Background()
	w := newColdWorld(t)
	for name, cq := range w.classQueries() {
		table, cli := w.serve(t, Config{})
		run := func() (*Result, int64, int64) {
			t.Helper()
			before := cli.Metrics()
			res, err := cli.SearchCompound(ctx, cq)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			d := cli.Metrics().Sub(before)
			return res, d.Counter("objcache.hits"), d.Counter("objcache.misses")
		}
		cold, _, _ := run()
		if cold.Stats.PagesProbed == 0 || len(cold.Matches) == 0 {
			t.Fatalf("%s: %d pages, %d matches; scenario not exercised", name, cold.Stats.PagesProbed, len(cold.Matches))
		}
		warm, hits, misses := run()
		if misses != 0 || warm.Stats.GETs != 0 {
			t.Errorf("%s: repeat decoded %d objects and issued %d GETs, want none", name, misses, warm.Stats.GETs)
		}
		if warm.Stats.PagesProbed != cold.Stats.PagesProbed {
			t.Errorf("%s: PagesProbed %d on the repeat, %d cold: resident pages must still count", name, warm.Stats.PagesProbed, cold.Stats.PagesProbed)
		}
		if !reflect.DeepEqual(warm.Matches, cold.Matches) {
			t.Errorf("%s: repeat's matches differ from the cold run's", name)
		}
		pages := int64(0)
		for _, key := range dataKeys(t, table) {
			pages += int64(cli.objc.Invalidate(key))
		}
		if pages != int64(cold.Stats.PagesProbed) {
			t.Errorf("%s: %d pages resident after reading %d", name, pages, cold.Stats.PagesProbed)
		}
		again, hits3, misses3 := run()
		if misses3 != pages || hits3 != hits-pages {
			t.Errorf("%s: with its %d pages dropped the query decoded %d objects and hit %d times; resident it hit %d times", name, pages, misses3, hits3, hits)
		}
		if !reflect.DeepEqual(again.Matches, cold.Matches) {
			t.Errorf("%s: matches changed after the pages were dropped", name)
		}
	}
}

// TestPartlyResidentReadFetchesTheMisses: a read that finds some of
// its pages decoded hands only the others to parquet.ReadPages — one
// fan, as deep and as wide as a direct read of just those pages — and
// returns what a direct read of all of them returns. The byte cache is
// off so every page fetched is a GET.
func TestPartlyResidentReadFetchesTheMisses(t *testing.T) {
	w := newColdWorld(t)
	table, cli := w.serve(t, Config{CacheBytes: -1})
	key := dataKeys(t, table)[0]
	_, pages, meta, err := parquet.ScanColumn(context.Background(), w.store, key, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(pages) < 4 {
		t.Fatalf("column has %d pages; scenario needs 4", len(pages))
	}
	col := meta.Schema.Columns[2]
	read := func(fn func(context.Context, objectstore.Store, string, parquet.Column, []parquet.PageInfo) ([]parquet.Page, error), infos []parquet.PageInfo) ([]parquet.Page, int64, int64) {
		t.Helper()
		session := simtime.NewSession()
		before := w.metrics.Snapshot()
		got, err := fn(simtime.With(context.Background(), session), cli.store, key, col, infos)
		if err != nil {
			t.Fatal(err)
		}
		return got, w.metrics.Snapshot().Sub(before).Gets, int64(session.Elapsed())
	}
	if _, gets, _ := read(cli.readPages, pages[1:2]); gets != 1 {
		t.Fatalf("first read of one page issued %d GETs", gets)
	}
	want, _, _ := read(parquet.ReadPages, pages[0:4])
	_, wantGets, wantElapsed := read(parquet.ReadPages, []parquet.PageInfo{pages[0], pages[2], pages[3]})
	got, gets, elapsed := read(cli.readPages, pages[0:4])
	if gets != wantGets || gets != 3 || elapsed != wantElapsed {
		t.Errorf("read with 1 of 4 pages resident: %d GETs in %d ns of virtual time, a direct read of the other 3 takes %d in %d", gets, elapsed, wantGets, wantElapsed)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("pages differ from a direct read's")
	}
	if _, gets, elapsed := read(cli.readPages, pages[0:4]); gets != 0 || elapsed != 0 {
		t.Errorf("fully resident read issued %d GETs and took %d ns of virtual time", gets, elapsed)
	}
}

// TestDeletionVectorAppliesToResidentPage: a delete that only adds a
// deletion vector leaves the file's decoded pages resident and valid —
// vectors are applied after decode — and the next query honours it
// without decoding the page again.
func TestDeletionVectorAppliesToResidentPage(t *testing.T) {
	ctx := context.Background()
	w := uuidWorld(t)
	q := uuidQuery(w.keys[3])
	if res, err := w.cli.Search(ctx, q); err != nil || len(res.Matches) != 1 {
		t.Fatalf("before the delete: %v, %v", res, err)
	}
	if err := w.table.DeleteRows(ctx, w.path, []uint32{3}); err != nil {
		t.Fatal(err)
	}
	res, err := w.cli.Search(ctx, q)
	if err != nil || len(res.Matches) != 0 {
		t.Fatalf("after the delete: %d matches, %v; want none", len(res.Matches), err)
	}
	if res.Stats.PagesProbed == 0 {
		t.Fatal("the query selected no page; scenario not exercised")
	}
	if n := w.cli.objc.Invalidate(w.table.Root() + w.path); n == 0 {
		t.Error("the delete dropped the file's decoded pages; only a removed object may")
	}
	// The neighbour in the same page is still there.
	if res, err := w.cli.Search(ctx, uuidQuery(w.keys[4])); err != nil || len(res.Matches) != 1 {
		t.Fatalf("undeleted neighbour: %v, %v", res, err)
	}
}

// TestReturnedValuesAreCopies: nothing a caller does to a Result —
// overwriting a value's bytes, appending to it — reaches the decoded
// pages later queries are answered from.
func TestReturnedValuesAreCopies(t *testing.T) {
	ctx := context.Background()
	w := newColdWorld(t)
	_, cli := w.serve(t, Config{})
	for name, cq := range w.classQueries() {
		first, err := cli.SearchCompound(ctx, cq)
		if err != nil || len(first.Matches) == 0 {
			t.Fatalf("%s: %v, %v", name, first, err)
		}
		want := make([][]byte, len(first.Matches))
		for i := range first.Matches {
			m := &first.Matches[i]
			want[i] = bytes.Clone(m.Value)
			_ = append(m.Value, "overrun into the next value"...)
			for j := range m.Value {
				m.Value[j] ^= 0xff
			}
		}
		second, err := cli.SearchCompound(ctx, cq)
		if err != nil || len(second.Matches) != len(want) {
			t.Fatalf("%s: repeat: %v, %v", name, second, err)
		}
		for i, m := range second.Matches {
			if !bytes.Equal(m.Value, want[i]) {
				t.Fatalf("%s: match %d changed after the caller wrote to the first result", name, i)
			}
		}
	}
}

// TestPageTierOffIsTheDirectRead: with the decoded-object cache
// disabled there is no page tier at all — the same matches, and every
// run of a query decodes (and, without a byte cache, fetches) its
// pages again.
func TestPageTierOffIsTheDirectRead(t *testing.T) {
	ctx := context.Background()
	w := newColdWorld(t)
	_, on := w.serve(t, Config{})
	_, off := w.serve(t, Config{CacheBytes: -1, DecodedCacheBytes: -1})
	if off.objc != nil {
		t.Fatal("DecodedCacheBytes < 0 built a decoded-object cache")
	}
	for name, cq := range w.classQueries() {
		want, err := on.SearchCompound(ctx, cq)
		if err != nil {
			t.Fatal(err)
		}
		var gets [2]int64
		for i := range gets {
			got, err := off.SearchCompound(ctx, cq)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Matches, want.Matches) {
				t.Errorf("%s: matches differ with the page tier off", name)
			}
			gets[i] = got.Stats.GETs
		}
		if gets[1] < int64(want.Stats.PagesProbed) {
			t.Errorf("%s: repeat without caches issued %d GETs for %d pages", name, gets[1], want.Stats.PagesProbed)
		}
	}
}
