package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"rottnest/internal/core"
	"rottnest/internal/insitu"
	"rottnest/internal/objectstore"
	"rottnest/internal/workload"
)

// class is one of the four query classes every workload rotates
// through, so each gets a quarter of the samples.
type class int

const (
	classUUID class = iota
	classSubstring
	classVector
	classCompound
	nClasses
)

var classNames = [nClasses]string{"uuid", "substring", "vector", "compound"}

// hit is one result row, reduced to what the oracle compares.
type hit struct {
	path string
	row  int64
}

// query is one generated search with the answer the generator knows.
type query struct {
	class class
	cq    core.CompoundQuery
	// want is the exact expected row set of the exact-match classes.
	want []hit
	// vec is the query embedding of the vector class.
	vec []float32
}

// makeQuery draws a query of the class over the given files. Exact
// classes target generated rows, so their answers are known: a key
// finds its one row, a file's needle its two rows, and the compound
// AND(key of a needled row, needle) that one row. The vector class
// perturbs a stored vector so near neighbours exist.
func makeQuery(rng *rand.Rand, c class, files []*fileData) *query {
	f := files[rng.Intn(len(files))]
	q := &query{class: c}
	switch c {
	case classUUID:
		row := rng.Intn(len(f.keys))
		q.cq = core.CompoundQuery{Expr: core.PredUUID("id", f.keys[row]), K: topK, Snapshot: -1, Output: "id"}
		q.want = []hit{{f.path, int64(row)}}
	case classSubstring:
		q.cq = core.CompoundQuery{Expr: core.PredSubstring("body", []byte(f.needle)), K: topK, Snapshot: -1, Output: "body"}
		q.want = []hit{{f.path, int64(f.needleRows[0])}, {f.path, int64(f.needleRows[1])}}
	case classVector:
		base := f.vecs[rng.Intn(len(f.vecs))]
		q.vec = make([]float32, len(base))
		for i := range base {
			q.vec[i] = base[i] + float32(rng.NormFloat64()*0.09)
		}
		q.cq = core.CompoundQuery{Expr: core.PredVector("emb", q.vec, nProbe, refine), K: topK, Snapshot: -1, Output: "emb"}
	case classCompound:
		row := f.needleRows[rng.Intn(2)]
		q.cq = core.CompoundQuery{
			Expr: core.And(core.PredUUID("id", f.keys[row]), core.PredSubstring("body", []byte(f.needle))),
			K:    topK, Snapshot: -1, Output: "id",
		}
		q.want = []hit{{f.path, int64(row)}}
	}
	return q
}

// sample is one executed operation: what was asked, how long it took
// from when it was due, and what came back.
type sample struct {
	q       *query
	latency time.Duration
	hits    []hit
	err     error
	counts  objectstore.Snapshot
	// Lake versions committed when the operation started and ended:
	// the snapshots a vector query may have searched.
	versionLo, versionHi int64
	// traced marks operations that recorded spans, with their root id.
	traced bool
	root   int64
	end    time.Time
	wall   time.Duration
}

func hitsOf(matches []insitu.Match) []hit {
	out := make([]hit, len(matches))
	for i, m := range matches {
		out[i] = hit{m.Path, m.Row}
	}
	return out
}

// search runs the query through the client and reduces the result.
func search(ctx context.Context, cli *core.Client, q *query) ([]hit, error) {
	res, err := cli.SearchCompound(ctx, q.cq)
	if err != nil {
		return nil, err
	}
	return hitsOf(res.Matches), nil
}

// oracle checks results against what the generator knows.
type oracle struct {
	files []*fileData
	// offset[i] is the index of files[i]'s first row in vecs.
	offset map[string]int
	vecs   [][]float32
	// truth caches exact neighbours per (query, visible prefix).
	truth map[truthKey][]int
}

type truthKey struct {
	q      *query
	prefix int
}

func newOracle(files []*fileData) *oracle {
	o := &oracle{files: files, offset: make(map[string]int), truth: make(map[truthKey][]int)}
	for _, f := range files {
		o.offset[f.path] = len(o.vecs)
		o.vecs = append(o.vecs, f.vecs...)
	}
	return o
}

// visible returns how many vectors a snapshot at version holds.
func (o *oracle) visible(version int64) int {
	n := 0
	for _, f := range o.files {
		if f.version <= version {
			n += len(f.vecs)
		}
	}
	return n
}

func (o *oracle) nearest(q *query, prefix int) []int {
	k := truthKey{q, prefix}
	if t, ok := o.truth[k]; ok {
		return t
	}
	t := workload.ExactNearest(o.vecs[:prefix], q.vec, topK)
	o.truth[k] = t
	return t
}

// Recall@10 moves in steps of 0.1 and a single query against a merged
// IVF-PQ index now and then scores 0.7, so the 0.8 floor is held on the
// run's mean (a run below it is invalid) and a single query fails only
// below 0.5, where the index is not doing its job.
const (
	minRecallPerQuery = 0.5
	minRecallMean     = 0.8
)

// check reports whether the sample's answer is right and, for vector
// samples, its recall@10. An error, a wrong exact answer, or recall
// below minRecallPerQuery is a failed operation.
func (o *oracle) check(s *sample) (ok bool, recall float64, why string) {
	if s.err != nil {
		return false, 0, s.err.Error()
	}
	if s.q.class != classVector {
		got := append([]hit(nil), s.hits...)
		sort.Slice(got, func(i, j int) bool {
			if got[i].path != got[j].path {
				return got[i].path < got[j].path
			}
			return got[i].row < got[j].row
		})
		if len(got) != len(s.q.want) {
			return false, 0, fmt.Sprintf("%s: got %d rows, want %d", classNames[s.q.class], len(got), len(s.q.want))
		}
		for i := range got {
			if got[i] != s.q.want[i] {
				return false, 0, fmt.Sprintf("%s: got %v, want %v", classNames[s.q.class], got[i], s.q.want[i])
			}
		}
		return true, 0, ""
	}
	if len(s.hits) != topK {
		return false, 0, fmt.Sprintf("vector: got %d rows, want %d", len(s.hits), topK)
	}
	ids := make([]int, len(s.hits))
	for i, h := range s.hits {
		off, known := o.offset[h.path]
		if !known {
			return false, 0, "vector: unknown path " + h.path
		}
		ids[i] = off + int(h.row)
	}
	// A world that grew while it was queried (versionHi set) may have
	// been searched at any snapshot between the operation's start and
	// end, or one commit later when a commit landed before the
	// benchmark saw its ack; score against the best of them.
	lo, hi := len(o.vecs), len(o.vecs)
	if s.versionHi > 0 {
		lo, hi = o.visible(s.versionLo), o.visible(s.versionHi+1)
	}
	seen := 0
	for _, f := range o.files {
		seen += len(f.vecs)
		if seen < lo || seen > hi {
			continue
		}
		if r := workload.Recall(ids, o.nearest(s.q, seen)); r > recall {
			recall = r
		}
	}
	if recall < minRecallPerQuery {
		return false, recall, fmt.Sprintf("vector: recall %.2f", recall)
	}
	return true, recall, ""
}
