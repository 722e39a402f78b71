package bench

import "testing"

// TestBuildBenchShapes pins how deep maintenance is: plan (LIST — the
// world's long-lived handles remember the logs, so no log fan), read
// (footer, chunks — or tails, manifests, every source's blocks),
// upload, commit. It was one level per GET: 15 and 56.
func TestBuildBenchShapes(t *testing.T) {
	if raceEnabled {
		t.Skip("three FM builds and a merge are slow under -race; make check's plain run covers the counts")
	}
	res, err := Maintenance(Options{Seed: 11, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []MaintenanceDepth{{Call: "index", Levels: 5}, {Call: "compact_fm_3", Levels: 6}} {
		if got := res.Maintenance[i]; got.Call != want.Call || got.Levels != want.Levels || got.Gets < got.Levels {
			t.Errorf("maintenance depth %d = %+v, want %s at %d levels", i, got, want.Call, want.Levels)
		}
	}
}
