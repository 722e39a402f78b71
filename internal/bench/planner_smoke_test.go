package bench

import "testing"

// TestPlannerShapes asserts the probe-side fast path's headline
// shapes: the 8-pattern superwalk fetches at least 1.5x fewer occ
// checkpoint blocks than singleton walks, every lookup-miss AND
// short-circuits its FM probe, and the staged executor issues fewer
// GETs. Skipped under the race detector (bench workloads are sized
// for timing, not instrumentation overhead).
func TestPlannerShapes(t *testing.T) {
	if raceEnabled {
		t.Skip("bench shapes are not asserted under -race")
	}
	res, err := Planner(Options{Seed: 13, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Superwalk.FetchSavings < 1.5 {
		t.Errorf("superwalk fetch savings %.2fx, want >= 1.5x (batched %.1f vs singleton %.1f)",
			res.Superwalk.FetchSavings, res.Superwalk.BatchedOccFetches, res.Superwalk.SingletonOccFetches)
	}
	if res.Superwalk.OccReused == 0 {
		t.Error("superwalk reused no occ blocks")
	}
	if res.Ordering.ShortCircuited != res.Ordering.Queries {
		t.Errorf("short-circuited %d of %d lookup-miss queries, want all",
			res.Ordering.ShortCircuited, res.Ordering.Queries)
	}
	if res.Ordering.LeavesSkipped == 0 {
		t.Error("ordering skipped no leaves")
	}
	if res.Ordering.OrderedGETs >= res.Ordering.UnorderedGETs {
		t.Errorf("ordered GETs %.1f not below unordered %.1f",
			res.Ordering.OrderedGETs, res.Ordering.UnorderedGETs)
	}
}
