package harness

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"rottnest/internal/objectstore"
)

// profileFor rotates fault emphasis across seeds so the suite covers
// transient-heavy, throttle-heavy, deadline/ambiguous-heavy, and
// everything-at-once weather. Every profile keeps all fault kinds
// nonzero — short mode trims seeds, never op or fault coverage.
func profileFor(seed int64) objectstore.FaultProfile {
	base := objectstore.FaultProfile{
		Transient:     0.02,
		Throttle:      0.01,
		ThrottleBurst: 2,
		Latency:       0.02,
		SpikeLatency:  200 * time.Millisecond,
		Deadline:      0.01,
		AmbiguousPut:  0.05,
	}
	switch seed % 4 {
	case 0:
		base.Transient = 0.08
	case 1:
		base.Throttle = 0.05
	case 2:
		base.Deadline = 0.04
		base.AmbiguousPut = 0.25
	default:
		base.Transient = 0.05
		base.Throttle = 0.03
		base.Deadline = 0.02
		base.AmbiguousPut = 0.15
	}
	return base
}

// TestDifferentialFaultWorkloads is the acceptance suite: >= 20
// distinct seeded chaos workloads, each checking every search
// byte-for-byte against the brute-force oracle while faults fire and
// retries absorb them. Short mode trims the seed count only; both
// modes and all four fault emphases stay covered.
func TestDifferentialFaultWorkloads(t *testing.T) {
	n := 24
	if testing.Short() {
		n = 8
	}
	for seed := int64(0); seed < int64(n); seed++ {
		seed := seed
		mode := ModeUUID
		if seed%2 == 1 {
			mode = ModeText
		}
		t.Run(fmt.Sprintf("seed=%d/mode=%d", seed, mode), func(t *testing.T) {
			t.Parallel()
			sum, err := Run(context.Background(), Options{
				Seed:    seed,
				Mode:    mode,
				Profile: profileFor(seed),
				Retry:   &objectstore.RetryPolicy{MaxAttempts: 8},
			})
			if err != nil {
				t.Fatalf("run failed: %v\nsummary: %+v", err, sum)
			}
			if sum.Searches == 0 {
				t.Fatalf("no differential searches ran: %+v", sum)
			}
			if sum.Appends == 0 {
				t.Fatalf("no appends ran: %+v", sum)
			}
		})
	}
}

// TestCompoundDifferentialWorkloads runs seeded chaos workloads in
// compound mode: every search is a boolean AND/OR tree over the two
// indexed columns, executed through the multi-predicate planner under
// faults and concurrent maintenance, and compared byte-for-byte
// against the multi-column oracle scan.
func TestCompoundDifferentialWorkloads(t *testing.T) {
	n := 10
	if testing.Short() {
		n = 6
	}
	for seed := int64(100); seed < int64(100+n); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			sum, err := Run(context.Background(), Options{
				Seed:    seed,
				Mode:    ModeCompound,
				Profile: profileFor(seed),
				Retry:   &objectstore.RetryPolicy{MaxAttempts: 8},
			})
			if err != nil {
				t.Fatalf("run failed: %v\nsummary: %+v", err, sum)
			}
			if sum.Searches == 0 {
				t.Fatalf("no differential searches ran: %+v", sum)
			}
			if sum.Appends == 0 {
				t.Fatalf("no appends ran: %+v", sum)
			}
		})
	}
}

// TestShardedDifferentialWorkloads runs seeded chaos workloads in
// sharded mode: every compound differential search also replays
// through scatter-gather routers at 1, 2, and 5 shards (the 2-shard
// router hedging across two replicas), and every fan-out must return
// byte-identical matches while faults fire and maintenance churns.
func TestShardedDifferentialWorkloads(t *testing.T) {
	n := 6
	if testing.Short() {
		n = 3
	}
	for seed := int64(200); seed < int64(200+n); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			sum, err := Run(context.Background(), Options{
				Seed:    seed,
				Mode:    ModeSharded,
				Profile: profileFor(seed),
				Retry:   &objectstore.RetryPolicy{MaxAttempts: 8},
			})
			if err != nil {
				t.Fatalf("run failed: %v\nsummary: %+v", err, sum)
			}
			if sum.Searches == 0 {
				t.Fatalf("no differential searches ran: %+v", sum)
			}
			if sum.Appends == 0 {
				t.Fatalf("no appends ran: %+v", sum)
			}
		})
	}
}

// TestIngestDifferentialWorkloads runs seeded chaos workloads in
// ingest mode: every append flows through the group-commit writer and
// all maintenance through the budgeted scheduler, under rotating fault
// weather. Each run checks byte-identical search results against the
// oracle and — in the finale — that every acked row is visible exactly
// once, so an ambiguous group commit that landed must not duplicate
// rows when the writer retries it.
func TestIngestDifferentialWorkloads(t *testing.T) {
	n := 8
	if testing.Short() {
		n = 4
	}
	for seed := int64(300); seed < int64(300+n); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			sum, err := Run(context.Background(), Options{
				Seed:    seed,
				Mode:    ModeIngest,
				Profile: profileFor(seed),
				Retry:   &objectstore.RetryPolicy{MaxAttempts: 8},
			})
			if err != nil {
				t.Fatalf("run failed: %v\nsummary: %+v", err, sum)
			}
			if sum.Searches == 0 {
				t.Fatalf("no differential searches ran: %+v", sum)
			}
			if sum.Appends == 0 {
				t.Fatalf("no appends ran: %+v", sum)
			}
			if sum.GroupCommits == 0 || sum.BatchesCommitted < sum.GroupCommits {
				t.Fatalf("writer did not group-commit: %+v", sum)
			}
			if sum.LagObservations == 0 {
				t.Fatalf("scheduler recorded no searchable-lag observations: %+v", sum)
			}
		})
	}
}

// TestAdaptiveDifferentialWorkloads reruns the ingest-mode chaos
// workloads with the heat-driven adaptive policy wired into the
// scheduler: the query stream feeds the ledger, index jobs chase hot
// files first (sometimes as partial hot-subset builds that leave a
// cold tail unindexed), and every search must still be byte-identical
// to the brute-force oracle under the same fault weather.
func TestAdaptiveDifferentialWorkloads(t *testing.T) {
	n := 6
	if testing.Short() {
		n = 3
	}
	for seed := int64(400); seed < int64(400+n); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			sum, err := Run(context.Background(), Options{
				Seed:     seed,
				Mode:     ModeIngest,
				Adaptive: true,
				Profile:  profileFor(seed),
				Retry:    &objectstore.RetryPolicy{MaxAttempts: 8},
			})
			if err != nil {
				t.Fatalf("run failed: %v\nsummary: %+v", err, sum)
			}
			if sum.Searches == 0 || sum.MatchesCompared == 0 {
				t.Fatalf("no differential searches compared: %+v", sum)
			}
			if sum.Appends == 0 {
				t.Fatalf("no appends ran: %+v", sum)
			}
			if sum.LagObservations == 0 {
				t.Fatalf("scheduler recorded no searchable-lag observations: %+v", sum)
			}
		})
	}
}

// TestHarnessFaultsActuallyFire is the meta-check that chaos runs
// exercise the failure paths: faults are injected and the retry layer
// does real recovery work.
func TestHarnessFaultsActuallyFire(t *testing.T) {
	sum, err := Run(context.Background(), Options{
		Seed: 99,
		Mode: ModeUUID,
		Profile: objectstore.FaultProfile{
			Transient:     0.08,
			Throttle:      0.04,
			ThrottleBurst: 2,
			Latency:       0.05,
			Deadline:      0.03,
			AmbiguousPut:  0.25,
		},
		Retry: &objectstore.RetryPolicy{MaxAttempts: 8},
	})
	if err != nil {
		t.Fatalf("run failed: %v\nsummary: %+v", err, sum)
	}
	if sum.Faults.Total() == 0 {
		t.Fatalf("no faults injected: %+v", sum.Faults)
	}
	if sum.Faults.Transient == 0 || sum.Faults.Throttles == 0 || sum.Faults.AmbiguousPuts == 0 {
		t.Fatalf("fault kinds missing: %+v", sum.Faults)
	}
	if sum.Retries == 0 {
		t.Fatalf("retry layer did no work despite %d faults", sum.Faults.Total())
	}
}

// TestHarnessSurfacesFaultsWithoutRetries proves the injection is
// real: the same weather with the retry layer off makes the workload
// fail with an injected error.
func TestHarnessSurfacesFaultsWithoutRetries(t *testing.T) {
	sum, err := Run(context.Background(), Options{
		Seed: 7,
		Mode: ModeUUID,
		Profile: objectstore.FaultProfile{
			Transient:    0.1,
			Throttle:     0.05,
			Deadline:     0.05,
			AmbiguousPut: 0.3,
		},
	})
	if err == nil {
		t.Fatalf("faults with no retries must surface; run passed: %+v", sum)
	}
	if !errors.Is(err, objectstore.ErrInjected) {
		t.Fatalf("surfaced error is not the injected fault: %v", err)
	}
	if sum.Faults.Total() == 0 {
		t.Fatalf("no faults recorded: %+v", sum.Faults)
	}
}

// TestHarnessFaultFree sanity-checks the harness itself: a calm world
// with no faults and no retries must pass every differential check.
func TestHarnessFaultFree(t *testing.T) {
	for _, mode := range []Mode{ModeUUID, ModeText, ModeCompound, ModeSharded, ModeIngest} {
		mode := mode
		t.Run(fmt.Sprintf("mode=%d", mode), func(t *testing.T) {
			t.Parallel()
			sum, err := Run(context.Background(), Options{Seed: 1234, Mode: mode})
			if err != nil {
				t.Fatalf("fault-free run failed: %v\nsummary: %+v", err, sum)
			}
			if sum.Faults.Total() != 0 || sum.Retries != 0 {
				t.Fatalf("fault-free run injected faults: %+v", sum)
			}
			if sum.Searches == 0 || sum.MatchesCompared == 0 {
				t.Fatalf("nothing compared: %+v", sum)
			}
		})
	}
}

// TestGoroutineCeilingFailsTheRun: a process already over the ceiling
// (parked goroutines stand in for a runaway fan) fails the run at once,
// naming the count, instead of letting it spin.
func TestGoroutineCeilingFailsTheRun(t *testing.T) {
	park := make(chan struct{})
	defer close(park)
	for i := 0; i <= goroutineCeiling; i++ {
		go func() { <-park }()
	}
	sum, err := Run(context.Background(), Options{Seed: 1234, Mode: ModeUUID})
	if err == nil || !strings.Contains(err.Error(), "goroutines alive") || sum.PeakGoroutines <= goroutineCeiling {
		t.Fatalf("run over the ceiling: err %v, peak %d", err, sum.PeakGoroutines)
	}
}
