package core

import (
	"fmt"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"rottnest/internal/component"
	"rottnest/internal/objectstore"
)

// segmentColumn inverts columnSegment, or fails.
func segmentColumn(seg string) (string, error) {
	if seg == "%" {
		return "", nil
	}
	var out []byte
	for i := 0; i < len(seg); i++ {
		if seg[i] != '%' {
			out = append(out, seg[i])
			continue
		}
		if i+2 >= len(seg) {
			return "", fmt.Errorf("short escape in %q", seg)
		}
		b, err := strconv.ParseUint(seg[i+1:i+3], 16, 8)
		if err != nil {
			return "", err
		}
		out = append(out, byte(b))
		i += 2
	}
	return string(out), nil
}

// FuzzIndexKey: for every pair of column names and every kind, the
// column's key segment is one path segment that DirStore keeps as it
// is — no '/', never "." or "..", unchanged by the filepath.Clean that
// maps a key to a file — it decodes back to the column, and distinct
// columns never share it. A key the column's index job would upload
// lies in its unit's directory, in no other column's, and carries its
// build order.
func FuzzIndexKey(f *testing.F) {
	for _, seed := range [][2]string{
		{"", "%"}, {".", ".."}, {"/", "%2F"}, {"a/b", "a%2Fb"}, {"\xff\xfe", "名前"},
		{"id", "id "}, {"body", "body/"}, {"../files", "_meta"}, {"%", "%25"},
	} {
		f.Add(seed[0], seed[1], uint8(component.KindFM), int64(7))
	}
	c := &Client{cfg: Config{IndexDir: "rottnest/"}}
	f.Fuzz(func(t *testing.T, a, b string, kindByte uint8, planned int64) {
		kind := component.Kind(kindByte)
		if planned < 0 {
			planned = -planned
		}
		if planned < 0 { // the most negative int64
			planned = 0
		}
		segA, segB := columnSegment(a), columnSegment(b)
		for _, seg := range []string{segA, kind.String()} {
			if seg == "" || seg == "." || seg == ".." || strings.Contains(seg, "/") {
				t.Fatalf("column %q, kind %v: segment %q is not one path segment", a, kind, seg)
			}
		}
		if got, err := segmentColumn(segA); err != nil || got != a {
			t.Fatalf("segment %q of %q decodes as %q, %v", segA, a, got, err)
		}
		if a != b && segA == segB {
			t.Fatalf("columns %q and %q share the segment %q", a, b, segA)
		}
		for _, merge := range []bool{false, true} {
			key, mark := c.indexKey(a, kind, planned, merge), markBuild
			if merge {
				mark = markMerge
			}
			if clean := filepath.Clean("/" + key); clean != "/"+key {
				t.Fatalf("key %q is stored as %q", key, clean[1:])
			}
			order, ok := buildOrder(key, c.unitDir(a, kind))
			if want := fmt.Sprintf("%0*d-%c", buildWidth, planned, mark); !ok || order != want {
				t.Fatalf("key %q: build order %q, %v; want %q", key, order, ok, want)
			}
			if _, ok := buildOrder(key, c.unitDir(b, kind)); ok && a != b {
				t.Fatalf("key %q of column %q lies in column %q's unit", key, a, b)
			}
		}
	})
}

// TestPredictUnit: a unit's prediction is every file at or after its
// newest merge output, by build version then mark — the other outputs
// of that merge included, the index jobs of that version not — or all
// of its files when it has none. Files of other units, flat keys of
// older releases and foreign objects are never predicted.
func TestPredictUnit(t *testing.T) {
	c := &Client{cfg: Config{IndexDir: "ix/"}}
	key := func(column string, planned int64, mark byte, name string) string {
		return fmt.Sprintf("%s%0*d-%c-%s.index", c.unitDir(column, component.KindFM), buildWidth, planned, mark, name)
	}
	list := func(keys ...string) []objectstore.ObjectInfo {
		infos := make([]objectstore.ObjectInfo, len(keys))
		for i, k := range keys {
			infos[i] = objectstore.ObjectInfo{Key: k}
		}
		// A LIST returns keys sorted.
		sort.Slice(infos, func(i, j int) bool { return infos[i].Key < infos[j].Key })
		return infos
	}
	foreign := []string{
		"ix/files/0123.index",
		"ix/_meta/00000000000000000001.json",
		key("body2", 9, markBuild, "x"),
		c.unitDir("body", component.KindFM) + "notes.txt",
		c.unitDir("body", component.KindFM) + "nested/" + fmt.Sprintf("%0*d-0-y.index", buildWidth, 9),
	}
	for _, tc := range []struct {
		name       string
		keys, want []string
	}{
		{"no merge", []string{key("body", 1, markBuild, "a"), key("body", 2, markBuild, "b")},
			[]string{key("body", 1, markBuild, "a"), key("body", 2, markBuild, "b")}},
		{"sources before their merge", []string{key("body", 1, markBuild, "a"), key("body", 2, markBuild, "b"), key("body", 3, markMerge, "m")},
			[]string{key("body", 3, markMerge, "m")}},
		{"an index job after the merge", []string{key("body", 1, markBuild, "a"), key("body", 3, markMerge, "m"), key("body", 4, markBuild, "c")},
			[]string{key("body", 3, markMerge, "m"), key("body", 4, markBuild, "c")}},
		{"two outputs of one merge", []string{key("body", 1, markBuild, "a"), key("body", 3, markMerge, "z"), key("body", 3, markMerge, "b")},
			[]string{key("body", 3, markMerge, "b"), key("body", 3, markMerge, "z")}},
		{"an index job of the merge's version", []string{key("body", 3, markBuild, "z"), key("body", 3, markMerge, "m")},
			[]string{key("body", 3, markMerge, "m")}},
		{"a merge of merges", []string{key("body", 3, markMerge, "m"), key("body", 5, markMerge, "n")},
			[]string{key("body", 5, markMerge, "n")}},
		{"nothing but foreign objects", nil, nil},
	} {
		got := predictUnit(list(append(tc.keys, foreign...)...), c.unitDir("body", component.KindFM))
		var keys []string
		for _, info := range got {
			keys = append(keys, info.Key)
		}
		if fmt.Sprint(keys) != fmt.Sprint(tc.want) {
			t.Errorf("%s: predicted %v, want %v", tc.name, keys, tc.want)
		}
	}
}
