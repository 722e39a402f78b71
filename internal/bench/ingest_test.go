package bench

import "testing"

// TestIngestShapes asserts the continuous-ingestion acceptance shape:
// with 8 producers the group-commit writer issues at least 4x fewer
// conditional PUTs on the log than per-batch appends (the commit
// counts are exact version deltas, not timings, so this holds under
// the race detector too). Searchable-lag recording through OnCovered
// is internal/ingest's to test.
func TestIngestShapes(t *testing.T) {
	res, err := Ingest(Options{Seed: 13, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.PutReduction < 4 {
		t.Errorf("conditional-PUT reduction %.1fx, want >= 4x (%d baseline vs %d grouped rounds)",
			res.PutReduction, res.BaselineCommitRounds, res.GroupedCommitRounds)
	}
	if res.BaselineCommitRounds != int64(res.Producers*res.BatchesPerProducer) {
		t.Errorf("baseline committed %d rounds, want one per batch (%d)",
			res.BaselineCommitRounds, res.Producers*res.BatchesPerProducer)
	}
}
