package postings

import (
	"math/rand"
	"reflect"
	"testing"
)

func TestNormalizeRanges(t *testing.T) {
	cases := []struct {
		in, want []RowRange
	}{
		{nil, nil},
		{[]RowRange{{5, 5}}, []RowRange{}},
		{[]RowRange{{0, 10}}, []RowRange{{0, 10}}},
		{[]RowRange{{10, 20}, {0, 5}}, []RowRange{{0, 5}, {10, 20}}},
		{[]RowRange{{0, 5}, {5, 10}}, []RowRange{{0, 10}}},
		{[]RowRange{{0, 8}, {4, 12}, {20, 21}}, []RowRange{{0, 12}, {20, 21}}},
		{[]RowRange{{3, 2}, {1, 4}, {2, 6}}, []RowRange{{1, 6}}},
	}
	for _, c := range cases {
		got := NormalizeRanges(append([]RowRange(nil), c.in...))
		if len(got) == 0 && len(c.want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("NormalizeRanges(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestIntersectUnionRanges(t *testing.T) {
	a := []RowRange{{0, 10}, {20, 30}}
	b := []RowRange{{5, 25}}
	if got, want := IntersectRanges(a, b), []RowRange{{5, 10}, {20, 25}}; !reflect.DeepEqual(got, want) {
		t.Errorf("intersect = %v, want %v", got, want)
	}
	if got, want := UnionRanges(a, b), []RowRange{{0, 30}}; !reflect.DeepEqual(got, want) {
		t.Errorf("union = %v, want %v", got, want)
	}
	if got := IntersectRanges(a, nil); len(got) != 0 {
		t.Errorf("intersect with empty = %v, want empty", got)
	}
	if got, want := UnionRanges(nil, b), []RowRange{{5, 25}}; !reflect.DeepEqual(got, want) {
		t.Errorf("union with empty = %v, want %v", got, want)
	}
}

func TestRangesContainOverlapLen(t *testing.T) {
	rs := []RowRange{{2, 5}, {8, 10}}
	if RangesLen(rs) != 5 {
		t.Errorf("RangesLen = %d, want 5", RangesLen(rs))
	}
	for row, want := range map[int64]bool{1: false, 2: true, 4: true, 5: false, 8: true, 9: true, 10: false} {
		if got := RangesContain(rs, row); got != want {
			t.Errorf("RangesContain(%d) = %v, want %v", row, got, want)
		}
	}
	overlaps := []struct {
		lo, hi int64
		want   bool
	}{
		{0, 2, false}, {0, 3, true}, {5, 8, false}, {4, 9, true}, {10, 12, false}, {3, 3, false},
	}
	for _, c := range overlaps {
		if got := RangesOverlap(rs, c.lo, c.hi); got != c.want {
			t.Errorf("RangesOverlap(%d,%d) = %v, want %v", c.lo, c.hi, got, c.want)
		}
	}
}

// TestIntersectUnionEdgeCases pins the interval algebra on the
// degenerate shapes the compound planner and the shard merge path
// produce: empty sets on either side, adjacent spans that must fuse
// under union but vanish under intersection, single-row spans, and a
// full-⊤ operand (the whole-file range an unindexed predicate
// contributes) that must be the identity for intersection and the
// absorber for union.
func TestIntersectUnionEdgeCases(t *testing.T) {
	top := []RowRange{{0, 1 << 40}} // full-⊤: every row of any file
	cases := []struct {
		name          string
		a, b          []RowRange
		wantIntersect []RowRange
		wantUnion     []RowRange
	}{
		{"both empty", nil, nil, nil, nil},
		{"left empty", nil, []RowRange{{3, 7}}, nil, []RowRange{{3, 7}}},
		{"right empty", []RowRange{{3, 7}}, nil, nil, []RowRange{{3, 7}}},
		{"adjacent spans", []RowRange{{0, 5}}, []RowRange{{5, 10}}, nil, []RowRange{{0, 10}}},
		{"adjacent chain", []RowRange{{0, 2}, {4, 6}}, []RowRange{{2, 4}, {6, 8}}, nil, []RowRange{{0, 8}}},
		{"single-row spans", []RowRange{{4, 5}}, []RowRange{{4, 5}}, []RowRange{{4, 5}}, []RowRange{{4, 5}}},
		{"single-row disjoint", []RowRange{{4, 5}}, []RowRange{{5, 6}}, nil, []RowRange{{4, 6}}},
		{"single-row inside span", []RowRange{{0, 10}}, []RowRange{{4, 5}}, []RowRange{{4, 5}}, []RowRange{{0, 10}}},
		{"top is intersect identity", top, []RowRange{{2, 5}, {9, 11}}, []RowRange{{2, 5}, {9, 11}}, top},
		{"top absorbs union", []RowRange{{2, 5}}, top, []RowRange{{2, 5}}, top},
		{"top with empty", top, nil, nil, top},
		{"same set", []RowRange{{1, 4}, {8, 9}}, []RowRange{{1, 4}, {8, 9}}, []RowRange{{1, 4}, {8, 9}}, []RowRange{{1, 4}, {8, 9}}},
		{"nested spans", []RowRange{{0, 100}}, []RowRange{{10, 20}, {30, 40}}, []RowRange{{10, 20}, {30, 40}}, []RowRange{{0, 100}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			checkEq := func(op string, got, want []RowRange) {
				t.Helper()
				if len(got) == 0 && len(want) == 0 {
					return
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s(%v, %v) = %v, want %v", op, c.a, c.b, got, want)
				}
			}
			checkEq("intersect", IntersectRanges(c.a, c.b), c.wantIntersect)
			checkEq("union", UnionRanges(c.a, c.b), c.wantUnion)
			// Both ops are symmetric.
			checkEq("intersect-sym", IntersectRanges(c.b, c.a), c.wantIntersect)
			checkEq("union-sym", UnionRanges(c.b, c.a), c.wantUnion)
			// Results must already be normalized (canonical form).
			for op, got := range map[string][]RowRange{
				"intersect": IntersectRanges(c.a, c.b),
				"union":     UnionRanges(c.a, c.b),
			} {
				norm := NormalizeRanges(append([]RowRange(nil), got...))
				checkEq(op+"-normalized", got, norm)
			}
		})
	}
}

// TestRangeOpsAgainstBitmap cross-checks the interval algebra against
// a naive per-row bitmap model on random inputs.
func TestRangeOpsAgainstBitmap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const universe = 200
	randSet := func() []RowRange {
		var rs []RowRange
		for i := 0; i < rng.Intn(6); i++ {
			lo := rng.Int63n(universe)
			rs = append(rs, RowRange{Lo: lo, Hi: lo + rng.Int63n(40)})
		}
		return NormalizeRanges(rs)
	}
	bitmap := func(rs []RowRange) [universe + 50]bool {
		var m [universe + 50]bool
		for _, r := range rs {
			for i := r.Lo; i < r.Hi && int(i) < len(m); i++ {
				m[i] = true
			}
		}
		return m
	}
	for trial := 0; trial < 500; trial++ {
		a, b := randSet(), randSet()
		ma, mb := bitmap(a), bitmap(b)
		inter, uni := IntersectRanges(a, b), UnionRanges(a, b)
		mi, mu := bitmap(inter), bitmap(uni)
		for row := 0; row < universe+50; row++ {
			if want := ma[row] && mb[row]; mi[row] != want {
				t.Fatalf("trial %d: intersect row %d = %v, want %v (a=%v b=%v)", trial, row, mi[row], want, a, b)
			}
			if want := ma[row] || mb[row]; mu[row] != want {
				t.Fatalf("trial %d: union row %d = %v, want %v (a=%v b=%v)", trial, row, mu[row], want, a, b)
			}
		}
	}
}

// TestUnionRangesMatchesNormalize checks the merge against the
// definition, NormalizeRanges(append(a, b...)), on random normalized
// inputs: empty sides, touching ranges (a.Hi == b.Lo), nested ranges
// and equal starts all occur, and neither input may be modified.
func TestUnionRangesMatchesNormalize(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	randSet := func() []RowRange {
		var rs []RowRange
		for i, n := 0, rng.Intn(9); i < n; i++ {
			lo := rng.Int63n(60)
			rs = append(rs, RowRange{Lo: lo, Hi: lo + 1 + rng.Int63n(12)})
		}
		return NormalizeRanges(rs)
	}
	fixed := [][2][]RowRange{
		{nil, nil},
		{nil, {{3, 7}}},
		{{{0, 5}}, {{5, 9}}},                   // touching
		{{{0, 5}, {9, 12}}, {{5, 9}}},          // touching on both sides
		{{{0, 100}}, {{10, 20}, {30, 40}}},     // nested
		{{{4, 8}}, {{4, 6}}},                   // equal starts
		{{{0, 2}, {4, 6}}, {{1, 5}, {20, 21}}}, // bridge
		{{{0, 0}}, {{0, 0}}},                   // an empty file's whole-file range
		{{{0, 0}}, {{2, 3}}},                   //
	}
	check := func(a, b []RowRange) {
		t.Helper()
		ac, bc := append([]RowRange(nil), a...), append([]RowRange(nil), b...)
		want := NormalizeRanges(append(append([]RowRange(nil), a...), b...))
		for _, got := range [][]RowRange{UnionRanges(a, b), UnionRanges(b, a)} {
			if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
				t.Fatalf("UnionRanges(%v, %v) = %v, want %v", a, b, got, want)
			}
		}
		if !reflect.DeepEqual(a, ac) || !reflect.DeepEqual(b, bc) {
			t.Fatalf("UnionRanges modified its inputs: %v %v, were %v %v", a, b, ac, bc)
		}
	}
	for _, f := range fixed {
		check(f[0], f[1])
	}
	for trial := 0; trial < 2000; trial++ {
		check(randSet(), randSet())
	}
}

// benchRanges returns two normalized 1,024-range lists whose ranges
// interleave and partly overlap, the shape two FM leaves' candidate
// pages take over one file.
func benchRanges() (a, b []RowRange) {
	for i := int64(0); i < 1024; i++ {
		a = append(a, RowRange{Lo: i * 100, Hi: i*100 + 40})
		b = append(b, RowRange{Lo: i*100 + 30, Hi: i*100 + 70})
	}
	return a, b
}

var rangesSink []RowRange

func BenchmarkUnionRanges(b *testing.B) {
	x, y := benchRanges()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rangesSink = UnionRanges(x, y)
	}
}

func BenchmarkIntersectRanges(b *testing.B) {
	x, y := benchRanges()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rangesSink = IntersectRanges(x, y)
	}
}
