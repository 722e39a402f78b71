package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"rottnest/internal/component"
	"rottnest/internal/lake"
	"rottnest/internal/objectstore"
	"rottnest/internal/simtime"
)

// failKeyStore fails the ranged reads of one object: every one, or
// with tails set only its suffix reads — the tail read of an open —
// and with once set only the first of those.
type failKeyStore struct {
	objectstore.Store
	key         string
	err         error
	tails, once bool
	failed      atomic.Bool
}

func (s *failKeyStore) Clock() simtime.Clock { return objectstore.ClockOf(s.Store) }

func (s *failKeyStore) GetRange(ctx context.Context, key string, off, n int64) ([]byte, error) {
	if key == s.key && (!s.tails || off < 0) && !(s.once && s.failed.Swap(true)) {
		return nil, s.err
	}
	return s.Store.GetRange(ctx, key, off, n)
}

// TestStagedANDUnreadableStageB: what a staged AND's FM file holds
// counts only if the FM stage runs. The plan's log fan opens the FM
// file ahead, and an open that fails there is dropped: an early open's
// error is not the query's. When the FM file cannot be read, cannot be
// opened, or is gone, an AND the trie stage rules out still answers;
// one whose trie stage matches fails on the read error, or replans
// around the vanished file to the scan path — as it did before the FM
// file was opened ahead. When only the early open fails, the FM stage
// opens the file itself and answers. All of
// it with the decoded-object cache on, off, and with every cache off.
func TestStagedANDUnreadableStageB(t *testing.T) {
	w := newColdWorld(t)
	ctx := context.Background()
	entries, err := NewClient(w.table, Config{IndexDir: "rottnest"}).ListIndexes(ctx, "body", component.KindFM)
	if err != nil || len(entries) != 1 {
		t.Fatalf("FM index rows %+v, %v", entries, err)
	}
	fmKey := entries[0].IndexKey
	needle := PredSubstring("body", []byte(w.needle))
	hit := And(PredUUID("id", w.keys[w.needleRow]), needle)
	miss := And(PredUUID("id", [16]byte{0xff, 1, 2, 3}), needle)
	search := func(store objectstore.Store, cfg Config, expr *Expr) (*Result, error) {
		ctx := simtime.With(context.Background(), simtime.NewSession())
		table, err := lake.OpenWith(ctx, store, "lake", lake.OpenOptions{})
		if err != nil {
			return nil, err
		}
		cfg.IndexDir = "rottnest"
		return NewClient(table, cfg).SearchCompound(ctx, CompoundQuery{Expr: expr, K: 10, Snapshot: -1, Output: "id"})
	}
	configs := map[string]Config{"default": {}, "no decoded cache": {DecodedCacheBytes: -1}, "uncached": coldConfig()}
	// check runs each query on a store of its own.
	check := func(what string, store func() objectstore.Store, hitErr error) {
		t.Helper()
		for name, cfg := range configs {
			res, err := search(store(), cfg, miss)
			if err != nil || len(res.Matches) != 0 || !res.Stats.ShortCircuited {
				t.Errorf("%s, %s client: short-circuited AND returned %v, %v; want no matches, short-circuited", what, name, res, err)
			}
			res, err = search(store(), cfg, hit)
			switch {
			case hitErr != nil && !errors.Is(err, hitErr):
				t.Errorf("%s, %s client: AND running its FM stage returned %v, want %v", what, name, err, hitErr)
			case hitErr == nil && (err != nil || len(res.Matches) != 1):
				t.Errorf("%s, %s client: AND running its FM stage returned %v, %v; want its one match", what, name, res, err)
			}
		}
	}

	injected := errors.New("injected FM read failure")
	check("FM reads failing", func() objectstore.Store { return &failKeyStore{Store: w.store, key: fmKey, err: injected} }, injected)
	check("FM tail reads failing", func() objectstore.Store {
		return &failKeyStore{Store: w.store, key: fmKey, err: injected, tails: true}
	}, injected)
	check("the early FM open failing", func() objectstore.Store {
		return &failKeyStore{Store: w.store, key: fmKey, err: injected, tails: true, once: true}
	}, nil)

	if err := w.store.Delete(ctx, fmKey); err != nil {
		t.Fatal(err)
	}
	check("FM object vacuumed", func() objectstore.Store { return w.store }, nil)
}

// TestOpenReaderMisstatedSize: the metadata row's size only sizes the
// open's read. A row that understates or overstates its file, or
// carries no size, opens a reader holding exactly the file's
// components; a true size within component.WholeFileBytes reads the
// file in the open's one GET.
func TestOpenReaderMisstatedSize(t *testing.T) {
	w := newColdWorld(t)
	ctx := context.Background()
	cfg := coldConfig()
	cfg.IndexDir = "rottnest"
	cli := NewClient(w.table, cfg)
	for _, spec := range []IndexSpec{{"id", component.KindTrie}, {"body", component.KindFM}, {"emb", component.KindIVFPQ}} {
		entries, err := cli.ListIndexes(ctx, spec.Column, spec.Kind)
		if err != nil || len(entries) != 1 {
			t.Fatalf("%v index rows %+v, %v", spec.Kind, entries, err)
		}
		truth := entries[0]
		want := readAll(t, ctx, w.store, truth.IndexKey)
		size := truth.SizeBytes
		for _, stated := range []int64{-1, 0, 1, 16, size / 2, size - 1, size, size + 1, 2 * size, component.WholeFileBytes, component.WholeFileBytes + 1} {
			e := truth
			e.SizeBytes = stated
			var got [][]byte
			n := gets(t, func(ctx context.Context) error {
				r, err := cli.openReader(ctx, e)
				if err != nil {
					return err
				}
				got, err = components(ctx, r)
				return err
			})
			if len(got) != len(want) {
				t.Fatalf("%v file of %d B stated as %d B: %d components, want %d", spec.Kind, size, stated, len(got), len(want))
			}
			for i := range want {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("%v file of %d B stated as %d B: component %d differs", spec.Kind, size, stated, i)
				}
			}
			if stated >= size && stated <= component.WholeFileBytes && n != 1 {
				t.Errorf("%v file of %d B stated as %d B: open and every component took %d GETs, want 1", spec.Kind, size, stated, n)
			}
		}
	}
}

// TestOpenReaderKeptByACache: a file past the 256 KiB tail and within
// component.WholeFileBytes is read whole at open only when the client
// can keep that read: a quarter of its decoded-object cache holds the
// file as a reader, or, with that cache off, a quarter of its byte
// cache holds it as bytes, or it has no cache and every open is cold.
// A client whose keeping tier is too small opens with the 256 KiB tail.
func TestOpenReaderKeptByACache(t *testing.T) {
	w := newColdWorld(t)
	ctx := context.Background()
	e := w.compactVectors(t)
	size := e.SizeBytes
	for _, tc := range []struct {
		name           string
		bytes, decoded int64
		whole          bool
	}{
		{"no caches", -1, -1, true},
		{"default caches", 0, 0, true},
		{"decoded cache keeps it", -1, 4 * size, true},
		{"byte cache keeps it", 4 * size, -1, true},
		{"byte cache too small", 2 * size, -1, false},
		{"decoded cache too small", 4 * size, 2 * size, false},
	} {
		cli := NewClient(w.table, Config{IndexDir: "rottnest", CacheBytes: tc.bytes, DecodedCacheBytes: tc.decoded})
		var m objectstore.Metrics
		if _, err := cli.openReader(objectstore.WithTally(ctx, &m), e); err != nil {
			t.Fatal(err)
		}
		want := int64(component.DefaultTailBytes)
		if tc.whole {
			want = size
		}
		if got := m.Snapshot(); got.Gets != 1 || got.BytesRead != want {
			t.Errorf("%s: open of a %d B file read %d B in %d GETs, want %d B in 1", tc.name, size, got.BytesRead, got.Gets, want)
		}
	}
}

// readAll returns every component of the index file at key.
func readAll(t *testing.T, ctx context.Context, store objectstore.Store, key string) [][]byte {
	t.Helper()
	r, err := component.Open(ctx, store, key, component.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := components(ctx, r)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// components reads every component of r in one call.
func components(ctx context.Context, r *component.Reader) ([][]byte, error) {
	ids := make([]int, r.NumComponents())
	for i := range ids {
		ids[i] = i
	}
	out, err := r.Components(ctx, ids)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", r.Key(), err)
	}
	return out, nil
}

// TestOpenAheadNeedsAPlanMiss: index files open ahead of the probe
// stage only in the log fan of a plan that misses the plan cache, so a
// staged AND's FM file is opened ahead once, not on every query whose
// trie stage rules it out. Each client keeps the trie file but not the
// FM file, in its one cache: a decoded cache keeps the trie reader, a
// byte cache the trie's open read. The first short-circuited AND
// misses the plan cache and pays both tails in its log fan, the FM
// tail discarded. Its repeat (the trie probe memoized on the
// decoded-cache client, whose probe memo comes with that cache; walked
// afresh, in memory, on the byte-cache client) and an AND on another
// absent key (the trie walked afresh) plan from the cache, open
// nothing and issue no GET.
func TestOpenAheadNeedsAPlanMiss(t *testing.T) {
	w := newColdWorld(t)
	miss := func(key byte) CompoundQuery {
		return CompoundQuery{Expr: And(PredUUID("id", [16]byte{0xff, key, 2, 3}), PredSubstring("body", []byte(w.needle))), K: 10, Snapshot: -1, Output: "id"}
	}
	for _, cc := range []struct {
		name                          string
		cacheBytes, decodedCacheBytes int64
		want                          []int64
	}{
		{"decoded cache", -1, 512 << 10, []int64{5, 0, 0}},
		{"byte cache", 512 << 10, -1, []int64{5, 0, 0}},
	} {
		cli := NewClient(w.table, Config{IndexDir: "rottnest", CacheBytes: cc.cacheBytes, DecodedCacheBytes: cc.decodedCacheBytes})
		for i, key := range []byte{1, 1, 2} {
			n := gets(t, func(ctx context.Context) error {
				res, err := cli.SearchCompound(session(ctx), miss(key))
				if err == nil && (len(res.Matches) != 0 || !res.Stats.ShortCircuited) {
					err = fmt.Errorf("%d matches, short-circuited %v; want none, true", len(res.Matches), res.Stats.ShortCircuited)
				}
				return err
			})
			if n != cc.want[i] {
				t.Errorf("%s: short-circuited AND %d issued %d GETs, want %d", cc.name, i+1, n, cc.want[i])
			}
		}
	}
}
