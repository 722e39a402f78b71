package txlog_test

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"rottnest/internal/lake"
	"rottnest/internal/meta"
	"rottnest/internal/objectstore"
	"rottnest/internal/simtime"
	"rottnest/internal/txlog"
)

// FuzzTxlogReplay feeds arbitrary bytes to both instances of the log as
// its newest record and as a checkpoint there: a lake table and a
// metadata table whose logs hold one good record and then the fuzzed
// pair must replay to an error or to a state — the same state through a
// second fresh handle — and never panic. A checkpoint that does not
// decode must fall back to the records, not fail the read.
func FuzzTxlogReplay(f *testing.F) {
	for _, dir := range []string{"../lake/testdata/parent_log", "../meta/testdata/parent_log"} {
		for _, name := range []string{"00000000000000000002.json", "00000000000000000033.json"} {
			record, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				f.Fatal(err)
			}
			checkpoint, err := os.ReadFile(filepath.Join(dir, "checkpoint-00000000000000000032.json"))
			if err != nil {
				f.Fatal(err)
			}
			f.Add(record, checkpoint)
			f.Add(record, []byte("not json"))
		}
	}
	f.Add([]byte(`{"version":2,"actions":[{"dv":{"file":"x"}},{"remove":{"path":"y"}},{}]}`), []byte(`{"version":2,"files":[{}]}`))
	f.Add([]byte(`{"version":2,"deletes":["a"],"inserts":[{}]}`), []byte(`{"version":-2,"entries":null}`))
	f.Add([]byte(`null`), []byte(`[]`))

	lakeFirst, err := os.ReadFile("../lake/testdata/parent_log/00000000000000000001.json")
	if err != nil {
		f.Fatal(err)
	}
	metaFirst, err := os.ReadFile("../meta/testdata/parent_log/00000000000000000001.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, record, checkpoint []byte) {
		ctx := context.Background()
		store := objectstore.NewMemStore(simtime.NewVirtualClock())
		for dir, first := range map[string][]byte{"tbl/_log/": lakeFirst, "ix/_meta/": metaFirst} {
			for key, body := range map[string][]byte{
				txlog.RecordKey(dir, 1):     first,
				txlog.RecordKey(dir, 2):     record,
				txlog.CheckpointKey(dir, 2): checkpoint,
			} {
				if err := store.Put(ctx, key, body); err != nil {
					t.Fatal(err)
				}
			}
		}
		readLake := func() (any, error) {
			tbl, _ := lake.OpenWith(ctx, store, "tbl", lake.OpenOptions{})
			if _, err := tbl.SnapshotAt(ctx, 1); err != nil {
				t.Fatalf("the good first record no longer reads: %v", err)
			}
			snaps, err := tbl.SnapshotsSince(ctx, 1)
			if err != nil {
				return nil, err
			}
			latest, err := tbl.Snapshot(ctx)
			return []any{snaps, latest}, err
		}
		readMeta := func() (any, error) { return meta.New(store, nil, "ix/_meta").List(ctx) }
		for name, read := range map[string]func() (any, error){"lake": readLake, "meta": readMeta} {
			got, err := read()
			again, err2 := read()
			if (err == nil) != (err2 == nil) || !reflect.DeepEqual(got, again) {
				t.Fatalf("%s: two fresh handles disagree: %v (%v) vs %v (%v)", name, got, err, again, err2)
			}
		}
	})
}
