package main

import (
	"context"
	"errors"
	"testing"
	"time"

	"rottnest/internal/objectstore"
)

func TestDelayStoreLatencyModel(t *testing.T) {
	s := newDelayStore(objectstore.NewMemStore(nil), 1)
	cases := []struct {
		name   string
		kind   opKind
		size   int64
		listed int
		want   time.Duration
	}{
		{"small get is one TTFB", opGet, 64 << 10, 0, 30 * time.Millisecond},
		{"get is flat to 1 MiB", opGet, 1 << 20, 0, 30 * time.Millisecond},
		{"get beyond 1 MiB pays bandwidth", opGet, 1<<20 + 9_000_000, 0, 130 * time.Millisecond},
		{"head costs a TTFB", opHead, 0, 0, 30 * time.Millisecond},
		{"put pays size from the first byte", opPut, 9_000_000, 0, 140 * time.Millisecond},
		{"delete costs an empty put", opDelete, 0, 0, 40 * time.Millisecond},
		{"list of one page", opList, 0, 1000, 60 * time.Millisecond},
		{"list pays per thousand keys", opList, 0, 2001, 180 * time.Millisecond},
	}
	for _, c := range cases {
		if got := s.latency(c.kind, c.size, c.listed); got != c.want {
			t.Errorf("%s: latency %v, want %v", c.name, got, c.want)
		}
	}
	s.scale = 0.1
	if got := s.latency(opGet, 1, 0); got != 3*time.Millisecond {
		t.Errorf("scaled get latency %v, want 3ms", got)
	}
}

func TestDelayStoreCountsPerKindAndScope(t *testing.T) {
	ctx := context.Background()
	s := newDelayStore(objectstore.NewMemStore(nil), 1)
	mine := &objectstore.Metrics{}
	scoped := withScope(ctx, &scope{op: 7, tally: mine})

	if err := s.Put(scoped, "a", make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if err := s.PutIfAbsent(ctx, "a", make([]byte, 5)); !errors.Is(err, objectstore.ErrExists) {
		t.Fatalf("PutIfAbsent on an existing key: %v", err)
	}
	if _, err := s.Get(scoped, "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.GetRange(ctx, "a", 10, 20); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(ctx, "missing"); !errors.Is(err, objectstore.ErrNotFound) {
		t.Fatalf("Get of a missing key: %v", err)
	}
	if _, err := s.Head(ctx, "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.List(scoped, ""); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(ctx, "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.GetRange(ctx, "a", 0, -5); err == nil {
		// a deleted key: not-found, which is not an error of the store
		t.Fatal("GetRange of a deleted key succeeded")
	}

	c := s.counts()
	want := objectstore.Snapshot{Gets: 4, Puts: 2, Lists: 1, Heads: 1, Deletes: 1, BytesRead: 120, BytesWritten: 105}
	if c != want {
		t.Errorf("store counts %+v, want %+v", c, want)
	}
	if c.Requests() != 9 {
		t.Errorf("requests %d, want 9", c.Requests())
	}
	if got, want := mine.Snapshot(), (objectstore.Snapshot{Gets: 1, Puts: 1, Lists: 1, BytesRead: 100, BytesWritten: 100}); got != want {
		t.Errorf("scoped counts %+v, want %+v", got, want)
	}
	if n := s.errs.Load(); n != 0 {
		t.Errorf("not-found and already-exists counted as %d errors", n)
	}
}

func TestDelayStoreSleepsOnlyWhenOn(t *testing.T) {
	ctx := context.Background()
	s := newDelayStore(objectstore.NewMemStore(nil), 0.5) // GET = 15 ms
	if err := s.Put(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := s.Get(ctx, "k"); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 10*time.Millisecond {
		t.Errorf("sleeps off: GET took %v", d)
	}
	s.setSleeping(true)
	start = time.Now()
	if _, err := s.Get(ctx, "k"); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 15*time.Millisecond {
		t.Errorf("sleeps on: GET took %v, want at least 15ms", d)
	}
}

func TestDelayStoreRecordsSpansUnderScope(t *testing.T) {
	ctx := context.Background()
	s := newDelayStore(objectstore.NewMemStore(nil), 1)
	rec := newRecorder()
	root := rec.newID()
	scoped := withScope(ctx, &scope{op: 3, parent: root, rec: rec, tally: &objectstore.Metrics{}})
	if err := s.Put(scoped, "k", []byte("value")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(scoped, "k"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(ctx, "k"); err != nil { // no scope: no span
		t.Fatal(err)
	}
	spans := rec.snapshot()
	if len(spans) != 2 {
		t.Fatalf("recorded %d spans, want 2", len(spans))
	}
	for i, name := range []string{"store.put", "store.get"} {
		sp := spans[i]
		if sp.Name != name || sp.Op != 3 || sp.Parent != root || sp.Bytes != 5 || sp.End < sp.Start || sp.ID == 0 {
			t.Errorf("span %d: %+v", i, sp)
		}
	}
}
