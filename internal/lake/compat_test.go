package lake

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"rottnest/internal/objectstore"
	"rottnest/internal/simtime"
	"rottnest/internal/txlog"
)

// loadLog copies a checked-in log directory into a fresh store under
// prefix and returns it with the bodies by key.
func loadLog(t *testing.T, dir, prefix string) (*objectstore.MemStore, map[string][]byte) {
	t.Helper()
	ctx := context.Background()
	store := objectstore.NewMemStore(simtime.NewVirtualClock())
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	bodies := make(map[string][]byte)
	for _, f := range files {
		if !strings.HasSuffix(f.Name(), ".json") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := store.Put(ctx, prefix+f.Name(), data); err != nil {
			t.Fatal(err)
		}
		bodies[prefix+f.Name()] = data
	}
	return store, bodies
}

// TestOpensLogWrittenBeforeTxlog: testdata/parent_log is the _log/
// directory of a table written by the commit before internal/txlog
// existed (create, 30 appends, two row deletes, a compaction; a
// checkpoint at 32), with the snapshots that commit read back from it.
// This code reads the same snapshots from it — through the checkpoint,
// and by full replay without it — and would write the same bytes: the
// keys, every record and the checkpoint re-encode byte for byte.
func TestOpensLogWrittenBeforeTxlog(t *testing.T) {
	ctx := context.Background()
	store, bodies := loadLog(t, "testdata/parent_log", "tbl/_log/")
	golden, err := os.ReadFile("testdata/parent_log/snapshots.golden")
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]*Snapshot
	if err := json.Unmarshal(golden, &want); err != nil {
		t.Fatal(err)
	}
	check := func(name string, store objectstore.Store) {
		t.Helper()
		for vs, snap := range want {
			v, _ := strconv.ParseInt(vs, 10, 64)
			tbl, _ := OpenWith(ctx, store, "tbl", OpenOptions{})
			got, err := tbl.SnapshotAt(ctx, v)
			if err != nil || !reflect.DeepEqual(got, snap) {
				t.Fatalf("%s: SnapshotAt(%d) = %+v, %v; the writer read %+v", name, v, got, err, snap)
			}
		}
		tbl, _ := OpenWith(ctx, store, "tbl", OpenOptions{})
		if got, err := tbl.Snapshot(ctx); err != nil || !reflect.DeepEqual(got, want["34"]) {
			t.Fatalf("%s: Snapshot = %+v, %v", name, got, err)
		}
	}
	check("with the checkpoint", store)

	for key, body := range bodies {
		v, checkpoint, ok := txlog.ParseKey("tbl/_log/", key)
		if !ok {
			t.Fatalf("%s does not parse as a log key", key)
		}
		var again []byte
		if checkpoint {
			if key != txlog.CheckpointKey("tbl/_log/", v) {
				t.Fatalf("checkpoint %d is now named %s, was %s", v, txlog.CheckpointKey("tbl/_log/", v), key)
			}
			again, err = logFormat.EncodeCheckpoint(v, want[strconv.FormatInt(v, 10)])
		} else {
			if key != txlog.RecordKey("tbl/_log/", v) {
				t.Fatalf("record %d is now named %s, was %s", v, txlog.RecordKey("tbl/_log/", v), key)
			}
			var c Commit
			if err := json.Unmarshal(body, &c); err != nil {
				t.Fatal(err)
			}
			again, err = json.Marshal(c)
		}
		if err != nil || !bytes.Equal(again, body) {
			t.Fatalf("%s re-encodes as\n%s\nwas\n%s (%v)", key, again, body, err)
		}
	}

	if err := store.Delete(ctx, txlog.CheckpointKey("tbl/_log/", 32)); err != nil {
		t.Fatal(err)
	}
	check("by full replay", store)
}
