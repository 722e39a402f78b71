package adaptive

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"rottnest/internal/component"
	"rottnest/internal/core"
)

// due is a spec's status with the uncovered files, as the scheduler
// hands PlanIndex the statuses of its due specs.
func due(spec core.IndexSpec, uncovered ...string) core.IndexStatus {
	return core.IndexStatus{Column: spec.Column, Kind: spec.Kind, UnindexedFiles: len(uncovered), Uncovered: uncovered}
}

// TestPlanIndexShapesOneJob: PlanIndex names each spec whose
// backlog is partly hot with its hot files, hottest first and path
// breaking ties, at most hotBatch of them; it leaves an all-hot or
// all-cold backlog unnamed (the job indexes it whole); and a vector
// candidate turns on the coarse first-pass build.
func TestPlanIndexShapesOneJob(t *testing.T) {
	l, _ := testLedger(LedgerOptions{HalfLife: time.Minute})
	p := NewPolicy(PolicyOptions{Ledger: l})
	partly := core.IndexSpec{Column: "partly", Kind: component.KindFM}
	capped := core.IndexSpec{Column: "capped", Kind: component.KindTrie}
	allHot := core.IndexSpec{Column: "hot", Kind: component.KindFM}
	cold := core.IndexSpec{Column: "cold", Kind: component.KindFM}

	l.Record("partly", "d", 1)
	l.Record("partly", "b", 3)
	l.Record("partly", "c", 1)
	var many []string
	for i := 0; i < hotBatch+6; i++ {
		path := fmt.Sprintf("f%03d", i)
		many = append(many, path)
		l.Record("capped", path, uint64(1+i%3))
	}
	many = append(many, "zcold")
	l.Record("hot", "x", 1)
	l.Record("hot", "y", 2)

	opts := p.PlanIndex([]core.IndexStatus{
		due(partly, "a", "b", "c", "d", "e"),
		due(capped, many...),
		due(allHot, "x", "y"),
		due(cold, "p", "q"),
	})
	if got, want := opts.Only[partly], []string{"b", "c", "d"}; !slices.Equal(got, want) {
		t.Errorf("partly hot backlog: Only = %v, want %v", got, want)
	}
	// Heat 3 (i%3 == 2), then 2, then 1; paths ascending within a level.
	var wantCapped []string
	for h := 2; h >= 0; h-- {
		for i := 0; i < hotBatch+6; i++ {
			if i%3 == h && len(wantCapped) < hotBatch {
				wantCapped = append(wantCapped, fmt.Sprintf("f%03d", i))
			}
		}
	}
	if got := opts.Only[capped]; !slices.Equal(got, wantCapped) {
		t.Errorf("capped backlog: Only = %v, want %v", got, wantCapped)
	}
	for _, spec := range []core.IndexSpec{allHot, cold} {
		if paths, named := opts.Only[spec]; named {
			t.Errorf("%s: Only names %v, want the whole backlog", spec.Column, paths)
		}
	}
	if opts.IVF != nil {
		t.Errorf("no vector candidate, but IVF = %+v", *opts.IVF)
	}

	vec := core.IndexSpec{Column: "emb", Kind: component.KindIVFPQ}
	opts = p.PlanIndex([]core.IndexStatus{due(vec, "v")})
	if opts.IVF == nil || *opts.IVF != coarseBuild {
		t.Errorf("vector candidate: IVF = %v, want the coarse build %+v", opts.IVF, coarseBuild)
	}
	if opts.Only != nil {
		t.Errorf("vector candidate with a cold backlog: Only = %v, want nil", opts.Only)
	}
}
