package objectstore

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"rottnest/internal/simtime"
)

// chaosProfile is a profile aggressive enough that a few hundred ops
// hit every fault kind.
func chaosProfile(seed int64) FaultProfile {
	return FaultProfile{
		Seed:          seed,
		Transient:     0.1,
		Throttle:      0.05,
		ThrottleBurst: 2,
		Latency:       0.05,
		SpikeLatency:  100 * time.Millisecond,
		Deadline:      0.05,
		AmbiguousPut:  0.3,
	}
}

func TestFaultProfileDeterministic(t *testing.T) {
	run := func() []string {
		fs := NewFaultStoreWithProfile(NewMemStore(nil), chaosProfile(7))
		ctx := context.Background()
		var errs []string
		for i := 0; i < 200; i++ {
			err := fs.Put(ctx, "k", []byte("v"))
			if err == nil {
				errs = append(errs, "")
			} else {
				errs = append(errs, err.Error())
			}
		}
		return errs
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d diverged: %q vs %q", i, a[i], b[i])
		}
	}
}

func TestFaultProfileHitsEveryKind(t *testing.T) {
	fs := NewFaultStoreWithProfile(NewMemStore(nil), chaosProfile(3))
	ctx := context.Background()
	for i := 0; i < 300; i++ {
		fs.Put(ctx, "k", []byte("v"))
		fs.PutIfAbsent(ctx, keyN(i), []byte("v"))
		fs.Get(ctx, "k")
	}
	c := fs.Counts()
	if c.Transient == 0 || c.Throttles == 0 || c.LatencySpikes == 0 || c.Deadlines == 0 || c.AmbiguousPuts == 0 {
		t.Fatalf("some fault kinds never fired: %+v", c)
	}
	if c.Total() != c.Transient+c.Throttles+c.LatencySpikes+c.Deadlines+c.AmbiguousPuts {
		t.Fatalf("Total mismatch: %+v", c)
	}
}

func keyN(i int) string {
	return string(rune('a'+i%26)) + string(rune('0'+i%10))
}

func TestFaultThrottleBurstCorrelated(t *testing.T) {
	fs := NewFaultStoreWithProfile(NewMemStore(nil), FaultProfile{
		Seed:          1,
		Throttle:      0.2,
		ThrottleBurst: 3,
	})
	ctx := context.Background()
	streak, maxStreak := 0, 0
	for i := 0; i < 300; i++ {
		if _, err := fs.Get(ctx, "missing"); errors.Is(err, ErrThrottled) {
			streak++
			if streak > maxStreak {
				maxStreak = streak
			}
		} else {
			streak = 0
		}
	}
	// A throttle starts a burst of 3 more: streaks of >= 4 must occur.
	if maxStreak < 4 {
		t.Fatalf("max throttle streak %d, want >= 4 (bursts not correlated)", maxStreak)
	}
}

func TestFaultAmbiguousPutLandsWrite(t *testing.T) {
	inner := NewMemStore(nil)
	fs := NewFaultStoreWithProfile(inner, FaultProfile{Seed: 1, AmbiguousPut: 1})
	ctx := context.Background()
	err := fs.PutIfAbsent(ctx, "log/0001", []byte("record"))
	if !errors.Is(err, ErrAmbiguousPut) || !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrAmbiguousPut wrapping ErrInjected", err)
	}
	got, gerr := inner.Get(ctx, "log/0001")
	if gerr != nil || string(got) != "record" {
		t.Fatalf("write did not land: %q, %v", got, gerr)
	}
	// Plain Put is unconditional: never ambiguous.
	if err := fs.Put(ctx, "k", []byte("v")); err != nil {
		t.Fatalf("unconditional put: %v", err)
	}
}

func TestFaultLatencySpikeChargesSession(t *testing.T) {
	fs := NewFaultStoreWithProfile(NewMemStore(nil), FaultProfile{
		Seed: 1, Latency: 1, SpikeLatency: 250 * time.Millisecond,
	})
	sess := simtime.NewSession()
	ctx := simtime.With(context.Background(), sess)
	if err := fs.Put(ctx, "k", []byte("v")); err != nil {
		t.Fatalf("latency spike must not fail the op: %v", err)
	}
	if sess.Elapsed() != 250*time.Millisecond {
		t.Fatalf("elapsed = %v, want 250ms", sess.Elapsed())
	}
}

func TestFaultDeadlineLooksLikeRequestTimeout(t *testing.T) {
	fs := NewFaultStoreWithProfile(NewMemStore(nil), FaultProfile{Seed: 1, Deadline: 1})
	err := fs.Put(context.Background(), "k", []byte("v"))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want wrapped DeadlineExceeded", err)
	}
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want wrapped ErrInjected", err)
	}
}

func TestFaultOpsRestriction(t *testing.T) {
	fs := NewFaultStoreWithProfile(NewMemStore(nil), FaultProfile{
		Seed: 1, Transient: 1, Ops: []Op{OpGet},
	})
	ctx := context.Background()
	if err := fs.Put(ctx, "k", []byte("v")); err != nil {
		t.Fatalf("put must pass (Ops excludes OpPut): %v", err)
	}
	if _, err := fs.Get(ctx, "k"); !errors.Is(err, ErrInjected) {
		t.Fatalf("get must fail: %v", err)
	}
}

func TestRetryRecoversFromTransients(t *testing.T) {
	var fails atomic.Int64
	mem := NewMemStore(nil)
	fs := NewFaultStore(mem, func(op Op, _ string, _ int64) bool {
		return op == OpGet && fails.Add(1) <= 2
	})
	rs := NewRetryStore(fs, RetryPolicy{Seed: 1})
	ctx := simtime.With(context.Background(), simtime.NewSession())
	mem.Put(ctx, "k", []byte("v"))
	got, err := rs.Get(ctx, "k")
	if err != nil || string(got) != "v" {
		t.Fatalf("Get = %q, %v", got, err)
	}
	if got := rs.Registry().Snapshot().Counter("retry.retries"); got != 2 {
		t.Fatalf("retries = %d, want 2", got)
	}
}

func TestRetryPermanentErrorsNotRetried(t *testing.T) {
	rs := NewRetryStore(NewMemStore(nil), RetryPolicy{Seed: 1})
	ctx := context.Background()
	if _, err := rs.Get(ctx, "missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get missing: %v", err)
	}
	if _, err := rs.GetRange(ctx, "missing", 0, 1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("GetRange missing: %v", err)
	}
	rs.Put(ctx, "k", []byte("v"))
	if _, err := rs.GetRange(ctx, "k", 10, 1); !errors.Is(err, ErrInvalidRange) {
		t.Fatalf("GetRange oob: %v", err)
	}
	if got := rs.Registry().Snapshot().Counter("retry.retries"); got != 0 {
		t.Fatalf("retries = %d, want 0", got)
	}
}

func TestRetryExhaustionSurfacesError(t *testing.T) {
	fs := NewFaultStoreWithProfile(NewMemStore(nil), FaultProfile{Seed: 1, Transient: 1, Ops: []Op{OpGet}})
	rs := NewRetryStore(fs, RetryPolicy{Seed: 1, MaxAttempts: 3})
	ctx := simtime.With(context.Background(), simtime.NewSession())
	if _, err := rs.Get(ctx, "k"); !errors.Is(err, ErrInjected) {
		t.Fatalf("exhausted retry must surface the fault: %v", err)
	}
	if got := rs.Registry().Snapshot().Counter("retry.retries"); got != 2 {
		t.Fatalf("retries = %d, want 2 (3 attempts)", got)
	}
}

func TestRetryThrottleWaitsFloor(t *testing.T) {
	throttleOnce := &onceThrottleStore{Store: NewMemStore(nil)}
	rs := NewRetryStore(throttleOnce, RetryPolicy{Seed: 1, ThrottleFloor: 300 * time.Millisecond})
	sess := simtime.NewSession()
	ctx := simtime.With(context.Background(), sess)
	if err := rs.Put(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	s := rs.Registry().Snapshot()
	if s.Counter("retry.throttle_waits") != 1 || s.Counter("retry.retries") != 1 {
		t.Fatalf("counters = %v, want 1 throttle wait", s.Counters)
	}
	if sess.Elapsed() < 300*time.Millisecond {
		t.Fatalf("throttle wait %v below floor", sess.Elapsed())
	}
}

// onceThrottleStore throttles the first Put, then delegates.
type onceThrottleStore struct {
	Store
	fired atomic.Bool
}

func (s *onceThrottleStore) Put(ctx context.Context, key string, data []byte) error {
	if !s.fired.Swap(true) {
		return ErrThrottled
	}
	return s.Store.Put(ctx, key, data)
}

func TestRetryAmbiguousPutResolvedByReadBack(t *testing.T) {
	inner := NewMemStore(nil)
	fs := NewFaultStoreWithProfile(inner, FaultProfile{Seed: 1, AmbiguousPut: 1})
	rs := NewRetryStore(fs, RetryPolicy{Seed: 1})
	ctx := simtime.With(context.Background(), simtime.NewSession())
	if err := rs.PutIfAbsent(ctx, "log/0001", []byte("record")); err != nil {
		t.Fatalf("ambiguous put must resolve to success: %v", err)
	}
	if got := rs.Registry().Snapshot().Counter("retry.ambiguous_resolved"); got != 1 {
		t.Fatalf("ambiguous_resolved = %d, want 1", got)
	}
	// A competitor's bytes under the same key stay ErrExists.
	inner.Put(ctx, "log/0002", []byte("theirs"))
	if err := rs.PutIfAbsent(ctx, "log/0002", []byte("ours")); !errors.Is(err, ErrExists) {
		t.Fatalf("competitor's key: %v, want ErrExists", err)
	}
	// Re-putting our own bytes resolves to success (idempotent).
	if err := rs.PutIfAbsent(ctx, "log/0001", []byte("record")); err != nil {
		t.Fatalf("idempotent re-put: %v", err)
	}
}

func TestRetryPutIfAbsentTransientThenSucceeds(t *testing.T) {
	var n atomic.Int64
	inner := NewMemStore(nil)
	fs := NewFaultStore(inner, func(op Op, key string, _ int64) bool {
		// Fail the first conditional-put attempt; the read-back (a Get)
		// and the second attempt pass.
		return op == OpPut && n.Add(1) == 1
	})
	rs := NewRetryStore(fs, RetryPolicy{Seed: 1})
	ctx := simtime.With(context.Background(), simtime.NewSession())
	if err := rs.PutIfAbsent(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if got, _ := inner.Get(ctx, "k"); string(got) != "v" {
		t.Fatalf("value = %q", got)
	}
}

func TestRetryHonorsContextCancellation(t *testing.T) {
	fs := NewFaultStoreWithProfile(NewMemStore(nil), FaultProfile{Seed: 1, Transient: 1})
	// No simtime session: backoff would real-sleep, but the context is
	// canceled, so the retry loop must bail out promptly.
	rs := NewRetryStore(fs, RetryPolicy{Seed: 1, BaseDelay: time.Hour, MaxDelay: time.Hour, MaxAttempts: 5})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := rs.Get(ctx, "k")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
	if time.Since(start) > time.Second {
		t.Fatalf("cancellation not prompt: %v", time.Since(start))
	}
}

func TestRetryBackoffGrowsAndCaps(t *testing.T) {
	rs := NewRetryStore(NewMemStore(nil), RetryPolicy{
		Seed: 1, BaseDelay: 10 * time.Millisecond, MaxDelay: 80 * time.Millisecond,
		Multiplier: 2, Jitter: -1, // disable jitter for exact values
	})
	want := []time.Duration{10, 20, 40, 80, 80, 80}
	for i, w := range want {
		if got := rs.backoff(i, false); got != w*time.Millisecond {
			t.Fatalf("backoff(%d) = %v, want %v", i, got, w*time.Millisecond)
		}
	}
}
