package main

import (
	"os"
	"path/filepath"
	"testing"
)

func TestGate(t *testing.T) {
	// BENCH_ingest.json's ack_gets and grouped_commit_rounds are exact;
	// BENCH_sharded.json's scaling[*].qps may fall 20 %, and
	// BENCH_adaptive.json's adaptive_hot_lag_p50_ns may grow 20 %.
	const ingest = `{"ack_lists": 0, "ack_gets": 0, "ack_puts": 1.125, "grouped_commit_rounds": 6, "baseline_commit_rounds": 48}`
	const adaptive = `{"adaptive_maint_requests": 300, "adaptive_cold_index_entries": 0,
		"adaptive_hot_lag_p50_ns": 1000, "adaptive_hot_lag_p99_ns": 1000}`
	for _, c := range []struct {
		name, file, old, cur string
		pass                 bool
	}{
		{"exact count grows", "BENCH_ingest.json", ingest,
			`{"ack_lists": 0, "ack_gets": 0, "ack_puts": 1.125, "grouped_commit_rounds": 7}`, false},
		{"zero becomes one", "BENCH_ingest.json", ingest,
			`{"ack_lists": 0, "ack_gets": 1, "ack_puts": 1.125, "grouped_commit_rounds": 6}`, false},
		{"exact count shrinks", "BENCH_ingest.json", ingest,
			`{"ack_lists": 0, "ack_gets": 0, "ack_puts": 1, "grouped_commit_rounds": 5}`, true},
		{"listed key missing from the new record", "BENCH_ingest.json", ingest,
			`{"ack_lists": 0, "ack_gets": 0, "grouped_commit_rounds": 6}`, false},
		{"listed key missing from the baseline", "BENCH_ingest.json",
			`{"ack_lists": 0, "ack_gets": 0, "grouped_commit_rounds": 6}`, ingest, false},
		{"unlisted key moves", "BENCH_ingest.json", ingest,
			`{"ack_lists": 0, "ack_gets": 0, "ack_puts": 1.125, "grouped_commit_rounds": 6, "baseline_commit_rounds": 96}`, true},
		{"higher-better just inside", "BENCH_sharded.json",
			`{"router_plan_lists": 1, "router_plan_gets": 0, "scaling": [{"qps": 100}, {"qps": 10}]}`,
			`{"router_plan_lists": 1, "router_plan_gets": 0, "scaling": [{"qps": 80.1}, {"qps": 10}]}`, true},
		{"higher-better just outside", "BENCH_sharded.json",
			`{"router_plan_lists": 1, "router_plan_gets": 0, "scaling": [{"qps": 100}, {"qps": 10}]}`,
			`{"router_plan_lists": 1, "router_plan_gets": 0, "scaling": [{"qps": 100}, {"qps": 7.9}]}`, false},
		{"lower-better just inside", "BENCH_adaptive.json", adaptive,
			`{"adaptive_maint_requests": 300, "adaptive_cold_index_entries": 0,
				"adaptive_hot_lag_p50_ns": 1199, "adaptive_hot_lag_p99_ns": 1000}`, true},
		{"lower-better just outside", "BENCH_adaptive.json", adaptive,
			`{"adaptive_maint_requests": 300, "adaptive_cold_index_entries": 0,
				"adaptive_hot_lag_p50_ns": 1201, "adaptive_hot_lag_p99_ns": 1000}`, false},
		{"array element missing", "BENCH_sharded.json",
			`{"router_plan_lists": 1, "router_plan_gets": 0, "scaling": [{"qps": 100}, {"qps": 10}]}`,
			`{"router_plan_lists": 1, "router_plan_gets": 0, "scaling": [{"qps": 100}]}`, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			checked, failures := gate(c.file, []byte(c.old), []byte(c.cur))
			if pass := len(failures) == 0; pass != c.pass {
				t.Fatalf("pass = %v (checked %d), want %v: %v", pass, checked, c.pass, failures)
			}
			if c.pass && checked == 0 {
				t.Fatal("passed without checking a field")
			}
		})
	}
}

// TestManifestMatchesRecords holds every manifest entry to a field of
// the records in the checkout, so a rename is caught here before the
// gate reports it missing.
func TestManifestMatchesRecords(t *testing.T) {
	files := make(map[string]bool)
	for _, e := range manifest {
		files[e.file] = true
	}
	for file := range files {
		data, err := os.ReadFile(filepath.Join("..", "..", file))
		if err != nil {
			t.Fatal(err)
		}
		if _, failures := gate(file, data, data); len(failures) > 0 {
			t.Errorf("%s: %v", file, failures)
		}
	}
}
