package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestBusyUnionTripsAndFan(t *testing.T) {
	cases := []struct {
		name       string
		ivs        []interval
		wait       int64
		trips, fan int
	}{
		{name: "no requests"},
		{name: "one request", ivs: []interval{{10, 40}}, wait: 30, trips: 1, fan: 1},
		{name: "two dependent requests", ivs: []interval{{0, 30}, {35, 65}}, wait: 60, trips: 2, fan: 1},
		{name: "touching requests are one busy period but do not overlap", ivs: []interval{{0, 30}, {30, 60}}, wait: 60, trips: 1, fan: 1},
		{name: "a fan of three counts once", ivs: []interval{{0, 30}, {1, 31}, {2, 33}}, wait: 33, trips: 1, fan: 3},
		{name: "fan then a dependent request, unsorted input",
			ivs: []interval{{50, 80}, {0, 30}, {5, 31}}, wait: 61, trips: 2, fan: 2},
		{name: "a long request covering short ones",
			ivs: []interval{{0, 100}, {10, 20}, {30, 40}}, wait: 100, trips: 1, fan: 2},
	}
	for _, c := range cases {
		wait, trips, fan := busy(c.ivs)
		if wait != c.wait || trips != c.trips || fan != c.fan {
			t.Errorf("%s: wait %d trips %d fan %d, want %d %d %d", c.name, wait, trips, fan, c.wait, c.trips, c.fan)
		}
	}
}

func TestSelfTimesSubtractCoveredChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},             // root
		{ID: 2, Parent: 1, Start: 10, End: 40},  // child
		{ID: 3, Parent: 1, Start: 30, End: 60},  // overlapping child
		{ID: 4, Parent: 2, Start: 15, End: 25},  // grandchild: counts against 2, not 1
		{ID: 5, Parent: 1, Start: 90, End: 120}, // child running past its parent is clipped
	}
	self := selfTimes(spans)
	want := map[int64]int64{1: 100 - 50 - 10, 2: 30 - 10, 3: 30, 4: 10, 5: 30}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d: %d, want %d", id, self[id], w)
		}
	}
}

func TestTraceRoundTripsThroughJSONL(t *testing.T) {
	rec := newRecorder()
	root := rec.newID()
	now := time.Now()
	child := rec.add(span{Parent: root, Op: 9, Name: "drive.call"}, now, now.Add(time.Millisecond))
	rec.add(span{Parent: child, Op: 9, Name: "store.get", Bytes: 42}, now, now.Add(time.Millisecond))
	rec.add(span{ID: root, Op: 9, Name: "op.uuid"}, rec.t0, now.Add(2*time.Millisecond))

	path := filepath.Join(t.TempDir(), "out", "t.trace.jsonl")
	if err := rec.writeJSONL(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	byID := make(map[int64]span)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("trace line %q: %v", sc.Text(), err)
		}
		byID[s.ID] = s
	}
	if len(byID) != 3 {
		t.Fatalf("trace holds %d spans, want 3", len(byID))
	}
	for _, s := range byID {
		if s.Op != 9 || s.End < s.Start {
			t.Errorf("span %+v", s)
		}
		if _, ok := byID[s.Parent]; !ok && s.Parent != 0 {
			t.Errorf("span %q has unknown parent %d", s.Name, s.Parent)
		}
	}
	if byID[root].Name != "op.uuid" || byID[child].Parent != root {
		t.Errorf("root %+v child %+v", byID[root], byID[child])
	}
}
