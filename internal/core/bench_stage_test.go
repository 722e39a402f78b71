package core

import (
	"testing"

	"rottnest/internal/lake"
	"rottnest/internal/meta"
	"rottnest/internal/parquet"
	"rottnest/internal/postings"
)

// stageBenchEnv binds AND(uuid, OR(substring, substring)) over one
// covered 64k-row file whose two indexed columns paginate differently,
// with synthetic candidate sets: the trie nominates one id page, each
// substring every fourth body page.
func stageBenchEnv(b *testing.B) (*execEnv, *probed) {
	schema := parquet.MustSchema(
		parquet.Column{Name: "id", Type: parquet.TypeFixedLenByteArray, TypeLen: 16},
		parquet.Column{Name: "body", Type: parquet.TypeByteArray},
	)
	const rows = 1 << 16
	file := lake.DataFile{Path: "f", Rows: rows}
	snap := &lake.Snapshot{Version: 1, Schema: schema, Files: []lake.DataFile{file}}
	table := func(perPage int) parquet.PageTable {
		var t parquet.PageTable
		for first := 0; first < rows; first += perPage {
			t = append(t, parquet.PageInfo{Ordinal: len(t), FirstRow: int64(first), NumValues: perPage})
		}
		return t
	}
	idPages, bodyPages := table(2048), table(64)
	var key [16]byte
	cq := CompoundQuery{
		Expr:   And(PredUUID("id", key), Or(PredSubstring("body", []byte("alpha")), PredSubstring("body", []byte("beta")))),
		Output: "id",
	}
	shape, err := compileShape(cq)
	if err != nil {
		b.Fatal(err)
	}
	listings := make([][]meta.IndexEntry, len(shape.units))
	for i, u := range shape.units {
		listings[i] = []meta.IndexEntry{{IndexKey: u.column, Column: u.column, Kind: u.kind, Files: []string{"f"}}}
	}
	env, err := bind(cq, shape, snap, listings, nil)
	if err != nil {
		b.Fatal(err)
	}
	p := &probed{tables: pageTables{"f": {"id": idPages, "body": bodyPages}}}
	for i, le := range env.leaves {
		s := newLeafCandSet()
		if le.plan.pred.UUID != nil {
			s.add("f", idPages[7])
		} else {
			for pi := i; pi < len(bodyPages); pi += 4 {
				s.add("f", bodyPages[pi])
			}
		}
		s.buildRanges()
		p.cands = append(p.cands, s)
	}
	return env, p
}

var stageSink int

// BenchmarkFilterRanges measures the set algebra for one file: two
// 256-range unions intersected with one page's rows.
func BenchmarkFilterRanges(b *testing.B) {
	env, p := stageBenchEnv(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		leafIdx := 0
		stageSink += len(filterRanges(env.shape.filter, env, p.cands, env.searched[0], &leafIdx))
	}
}

// BenchmarkPlanReads measures the read planner for one file: the
// surviving ranges of 256 scattered body pages mapped back to both
// columns' page tables.
func BenchmarkPlanReads(b *testing.B) {
	env, p := stageBenchEnv(b)
	rows := p.cands[1].ranges["f"]
	if postings.RangesLen(rows) == 0 {
		b.Fatal("no surviving rows")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stageSink += env.planReads(env.searched[0], rows, p.tables["f"], nil).planned
	}
}
