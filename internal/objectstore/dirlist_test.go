package objectstore

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// TestStoreListParity holds DirStore's List to MemStore's on the
// prefixes a directory walk could get wrong: one that ends mid-name,
// one naming a directory that does not exist, and keys nested a unit
// deep (files/<column>/<kind>/<name>), listed at every depth.
func TestStoreListParity(t *testing.T) {
	ctx := context.Background()
	keys := []string{
		"ix/_meta/00000000000000000001.json",
		"ix/_meta/00000000000000000002.json",
		"ix/files/body/fm/00000000000000000001-0-aa.index",
		"ix/files/body/fm/00000000000000000002-1-bb.index",
		"ix/files/body2/fm/00000000000000000001-0-cc.index",
		"ix/files/id/trie/00000000000000000001-0-dd.index",
		"ix/files/flat.index",
		"ix-other/x",
		"lake/_log/00000000000000000001.json",
		"lake/data/part-0.parquet",
	}
	prefixes := []string{
		"", "ix", "ix/", "ix/_meta/", "ix/files/", "ix/files/body", "ix/files/body/",
		"ix/files/body/fm/0000000000000000000", "ix/files/b", "ix/files/id/trie/",
		"ix/files/fl", "ix/fi", "missing/", "missing/deeper/", "ix/files/none/fm/",
		"lake/_log/", "lake/data/part-", "lake/data/part-0.parquet", "lake/data/part-0.parquet/",
	}
	stores := storeFactories(t)
	listed := make(map[string][][]string, len(stores))
	for name, mk := range stores {
		s := mk()
		for _, k := range keys {
			if err := s.Put(ctx, k, []byte(k)); err != nil {
				t.Fatalf("%s: Put %s: %v", name, k, err)
			}
		}
		for _, p := range prefixes {
			infos, err := s.List(ctx, p)
			if err != nil {
				t.Fatalf("%s: List(%q): %v", name, p, err)
			}
			var got []string
			for _, info := range infos {
				if info.Size != int64(len(info.Key)) {
					t.Errorf("%s: List(%q) sizes %s at %d B, want %d", name, p, info.Key, info.Size, len(info.Key))
				}
				got = append(got, info.Key)
			}
			listed[name] = append(listed[name], got)
		}
	}
	for i, p := range prefixes {
		mem, dir := fmt.Sprint(listed["mem"][i]), fmt.Sprint(listed["dir"][i])
		if mem != dir {
			t.Errorf("List(%q): mem %s, dir %s", p, mem, dir)
		}
	}
}

// TestDirStoreListSkipsStaging: a staging file a Put left behind is
// not an object, at the root of a listing or below it.
func TestDirStoreListSkipsStaging(t *testing.T) {
	ctx := context.Background()
	s, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(ctx, "a/b/c", []byte("c")); err != nil {
		t.Fatal(err)
	}
	for _, dir := range []string{"a", "a/b"} {
		if err := os.WriteFile(filepath.Join(s.Root(), dir, ".put-123"), []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, prefix := range []string{"", "a/", "a/b/", "a/b/c"} {
		infos, err := s.List(ctx, prefix)
		if err != nil || len(infos) != 1 || infos[0].Key != "a/b/c" {
			t.Fatalf("List(%q) = %+v, %v; want a/b/c alone", prefix, infos, err)
		}
	}
}

// TestDirStoreListBesideDeletes: a LIST that runs while objects and
// whole directories under its prefix are deleted never fails, and
// returns only keys that were stored under the prefix. One goroutine
// Puts and Deletes 64 keys a unit deep (files/c/k/<n>.index), another
// creates and removes directories beside them, and 2,000 LISTs of the
// prefix run meanwhile.
func TestDirStoreListBesideDeletes(t *testing.T) {
	ctx := context.Background()
	s, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	churn := func(f func(i int) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := f(i); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	churn(func(i int) error {
		key := fmt.Sprintf("idx/files/c/k/%d.index", i%64)
		if i%128 < 64 {
			return s.Put(ctx, key, []byte(key))
		}
		return s.Delete(ctx, key)
	})
	churn(func(i int) error {
		key := fmt.Sprintf("idx/files/d%d/k/x.index", i%4)
		if err := s.Put(ctx, key, []byte(key)); err != nil {
			return err
		}
		return os.RemoveAll(filepath.Join(s.Root(), "idx", "files", fmt.Sprintf("d%d", i%4)))
	})
	failed := 0
	var first error
	for range 2000 {
		infos, err := s.List(ctx, "idx/")
		if err != nil {
			if failed++; first == nil {
				first = err
			}
			continue
		}
		for _, info := range infos {
			if !strings.HasPrefix(info.Key, "idx/files/") || !strings.HasSuffix(info.Key, ".index") || info.Size != int64(len(info.Key)) {
				t.Errorf("List returned %+v, never stored", info)
			}
		}
	}
	close(stop)
	wg.Wait()
	if failed > 0 {
		t.Fatalf("%d of 2000 LISTs failed beside deletes, first: %v", failed, first)
	}
}

// BenchmarkDirStoreList lists a lake's log directory on a store of
// 10,000 objects: 9,900 data files under lake/data/ and 100 log
// records under lake/_log/.
func BenchmarkDirStoreList(b *testing.B) {
	ctx := context.Background()
	s, err := NewDirStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	for i := range 9900 {
		if err := s.Put(ctx, fmt.Sprintf("lake/data/part-%05d.parquet", i), nil); err != nil {
			b.Fatal(err)
		}
	}
	for i := range 100 {
		if err := s.Put(ctx, fmt.Sprintf("lake/_log/%020d.json", i+1), nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for range b.N {
		infos, err := s.List(ctx, "lake/_log/")
		if err != nil || len(infos) != 100 {
			b.Fatalf("List = %d objects, %v", len(infos), err)
		}
	}
}
