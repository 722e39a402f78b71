package meta

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"rottnest/internal/objectstore"
	"rottnest/internal/simtime"
	"rottnest/internal/txlog"
)

// TestOpensLogWrittenBeforeTxlog: testdata/parent_log is a metadata log
// written by the commit before internal/txlog existed (36 inserts, 4
// deletes; a checkpoint at 32), with the listing that commit read back
// from it. This code lists the same entries — through the checkpoint
// and by full replay — and would write the same bytes.
func TestOpensLogWrittenBeforeTxlog(t *testing.T) {
	ctx := context.Background()
	store := objectstore.NewMemStore(simtime.NewVirtualClock())
	files, err := os.ReadDir("testdata/parent_log")
	if err != nil {
		t.Fatal(err)
	}
	const dir = "ix/_meta/"
	bodies := make(map[string][]byte)
	for _, f := range files {
		if !strings.HasSuffix(f.Name(), ".json") {
			continue
		}
		data, err := os.ReadFile(filepath.Join("testdata/parent_log", f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := store.Put(ctx, dir+f.Name(), data); err != nil {
			t.Fatal(err)
		}
		bodies[dir+f.Name()] = data
	}
	golden, err := os.ReadFile("testdata/parent_log/entries.golden")
	if err != nil {
		t.Fatal(err)
	}
	var want []IndexEntry
	if err := json.Unmarshal(golden, &want); err != nil {
		t.Fatal(err)
	}
	list := func(name string) {
		t.Helper()
		got, err := New(store, nil, "ix/_meta").List(ctx)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: List = %+v, %v; the writer listed %+v", name, got, err, want)
		}
	}
	list("with the checkpoint")

	for key, body := range bodies {
		v, checkpoint, ok := txlog.ParseKey(dir, key)
		if !ok {
			t.Fatalf("%s does not parse as a log key", key)
		}
		if checkpoint {
			if v != 32 || key != txlog.CheckpointKey(dir, v) {
				t.Fatalf("checkpoint %d is now named %s, was %s", v, txlog.CheckpointKey(dir, v), key)
			}
			continue
		}
		if key != txlog.RecordKey(dir, v) {
			t.Fatalf("record %d is now named %s, was %s", v, txlog.RecordKey(dir, v), key)
		}
		var rec record
		if err := json.Unmarshal(body, &rec); err != nil {
			t.Fatal(err)
		}
		if again, err := json.Marshal(rec); err != nil || !bytes.Equal(again, body) {
			t.Fatalf("%s re-encodes as\n%s\nwas\n%s (%v)", key, again, body, err)
		}
	}

	// Without the checkpoint: the same listing by full replay, and the
	// state replayed to 32 encodes as the checkpoint that was there.
	if err := store.Delete(ctx, txlog.CheckpointKey(dir, 32)); err != nil {
		t.Fatal(err)
	}
	list("by full replay")
	at32, _, err := New(store, nil, "ix/_meta").log.Read(ctx, 32)
	if err != nil {
		t.Fatal(err)
	}
	if again, err := logFormat.EncodeCheckpoint(32, at32); err != nil || !bytes.Equal(again, bodies[txlog.CheckpointKey(dir, 32)]) {
		t.Fatalf("checkpoint 32 re-encodes as\n%s\nwas\n%s (%v)", again, bodies[txlog.CheckpointKey(dir, 32)], err)
	}
}
