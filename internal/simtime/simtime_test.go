package simtime

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

func TestVirtualClockAdvance(t *testing.T) {
	c := NewVirtualClock()
	if got := c.Now(); !got.Equal(Epoch) {
		t.Fatalf("Now() = %v, want epoch %v", got, Epoch)
	}
	c.Advance(time.Minute)
	if got := c.Now(); !got.Equal(Epoch.Add(time.Minute)) {
		t.Fatalf("after Advance: Now() = %v", got)
	}
	c.Advance(-time.Hour) // ignored
	if got := c.Now(); !got.Equal(Epoch.Add(time.Minute)) {
		t.Fatalf("negative Advance moved the clock: %v", got)
	}
}

func TestVirtualClockConcurrent(t *testing.T) {
	c := NewVirtualClock()
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.Advance(time.Millisecond)
		}()
	}
	wg.Wait()
	if got := c.Now(); !got.Equal(Epoch.Add(50 * time.Millisecond)) {
		t.Fatalf("concurrent advances lost: %v", got)
	}
}

func TestRealClock(t *testing.T) {
	var c RealClock
	before := time.Now()
	got := c.Advance(time.Hour)
	if got.Before(before) || time.Since(got) > time.Minute {
		t.Fatalf("RealClock.Advance returned %v", got)
	}
}

func TestSessionSequentialAdd(t *testing.T) {
	s := NewSession()
	s.Add(10 * time.Millisecond)
	s.Add(5 * time.Millisecond)
	s.Add(-time.Second) // ignored
	if got := s.Elapsed(); got != 15*time.Millisecond {
		t.Fatalf("Elapsed = %v, want 15ms", got)
	}
}

func TestNilSessionIsSafe(t *testing.T) {
	var s *Session
	s.Add(time.Second)
	if got := s.Elapsed(); got != 0 {
		t.Fatalf("nil session Elapsed = %v", got)
	}
}

// charge returns a branch that adds the i-th duration to its session.
func charge(ds ...time.Duration) func(ctx context.Context, i int) error {
	return func(ctx context.Context, i int) error {
		Charge(ctx, ds[i])
		return nil
	}
}

func TestParallelTakesMax(t *testing.T) {
	s := NewSession()
	s.Add(time.Millisecond)
	ctx := With(context.Background(), s)
	if err := Fan(ctx, 3, 0, charge(30*time.Millisecond, 70*time.Millisecond, 10*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if got := s.Elapsed(); got != 71*time.Millisecond {
		t.Fatalf("Elapsed = %v, want 71ms (1ms + max branch)", got)
	}
}

func TestParallelNestedChains(t *testing.T) {
	s := NewSession()
	ctx := With(context.Background(), s)
	// Branch 0 is a chain of 10ms then a fan of 20ms and 5ms; branch 1
	// is 25ms. The outer fan costs its slowest branch, 30ms.
	err := Fan(ctx, 2, 0, func(ctx context.Context, i int) error {
		if i == 1 {
			Charge(ctx, 25*time.Millisecond)
			return nil
		}
		Charge(ctx, 10*time.Millisecond)
		return Fan(ctx, 2, 0, charge(20*time.Millisecond, 5*time.Millisecond))
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Elapsed(); got != 30*time.Millisecond {
		t.Fatalf("Elapsed = %v, want 30ms", got)
	}
}

func TestParallelNWorkerPoolWaves(t *testing.T) {
	s := NewSession()
	ctx := With(context.Background(), s)
	// 6 tasks of 10ms each on 2 workers: 3 waves => 30ms.
	if err := Fan(ctx, 6, 2, func(ctx context.Context, _ int) error { Charge(ctx, 10*time.Millisecond); return nil }); err != nil {
		t.Fatal(err)
	}
	if got := s.Elapsed(); got != 30*time.Millisecond {
		t.Fatalf("Elapsed = %v, want 30ms", got)
	}
}

func TestParallelNDefaultsWidth(t *testing.T) {
	s := NewSession()
	ctx := With(context.Background(), s)
	if err := Fan(ctx, 8, 0, func(ctx context.Context, _ int) error { Charge(ctx, 10*time.Millisecond); return nil }); err != nil {
		t.Fatal(err)
	}
	if got := s.Elapsed(); got != 10*time.Millisecond {
		t.Fatalf("Elapsed = %v, want 10ms (single wave)", got)
	}
}

func TestParallelEmpty(t *testing.T) {
	s := NewSession()
	ctx := With(context.Background(), s)
	for _, width := range []int{0, 4} {
		if err := Fan(ctx, 0, width, func(context.Context, int) error { t.Fatal("must not run"); return nil }); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Elapsed(); got != 0 {
		t.Fatalf("Elapsed = %v", got)
	}
}

func TestContextPlumbing(t *testing.T) {
	s := NewSession()
	ctx := With(context.Background(), s)
	if From(ctx) != s {
		t.Fatal("From did not return the stored session")
	}
	Charge(ctx, 42*time.Millisecond)
	if got := s.Elapsed(); got != 42*time.Millisecond {
		t.Fatalf("Charge: Elapsed = %v", got)
	}
	if From(context.Background()) != nil {
		t.Fatal("From on empty context should be nil")
	}
	Charge(context.Background(), time.Second) // must not panic
}

func TestFanWavesBranchSessionsAndLowestError(t *testing.T) {
	s := NewSession()
	ctx := With(context.Background(), s)
	errA, errB := errors.New("a"), errors.New("b")
	// 5 branches of 10ms on width 2: three waves. Every branch charges
	// the session its own context carries, never the parent directly.
	err := Fan(ctx, 5, 2, func(ctx context.Context, i int) error {
		if From(ctx) == s {
			t.Errorf("branch %d runs on the parent session", i)
		}
		Charge(ctx, 10*time.Millisecond)
		switch i {
		case 3:
			return errB
		case 1:
			return errA
		}
		return nil
	})
	if err != errA {
		t.Fatalf("err = %v, want the lowest-index error %v", err, errA)
	}
	if got := s.Elapsed(); got != 30*time.Millisecond {
		t.Fatalf("Elapsed = %v, want 30ms", got)
	}

	// A fan of one runs on the caller's goroutine, on a branch session
	// like any other.
	if err := Fan(ctx, 1, 8, func(ctx context.Context, i int) error {
		if From(ctx) == s || From(ctx) == nil || i != 0 {
			t.Errorf("single branch got session %p index %d", From(ctx), i)
		}
		Charge(ctx, 5*time.Millisecond)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := s.Elapsed(); got != 35*time.Millisecond {
		t.Fatalf("Elapsed = %v, want 35ms", got)
	}

	// Without a session every branch runs on the caller's context and
	// gets no session of its own, a fan of one included.
	for _, n := range []int{1, 3} {
		ran := make([]bool, n)
		err := Fan(context.Background(), n, 0, func(ctx context.Context, i int) error {
			if From(ctx) != nil {
				t.Errorf("sessionless fan of %d: branch %d got a session", n, i)
			}
			ran[i] = true
			return nil
		})
		for i := range ran {
			if !ran[i] {
				t.Fatalf("sessionless fan of %d: branch %d did not run (err=%v)", n, i, err)
			}
		}
	}
	// No branches: nothing runs and nothing is charged.
	if err := Fan(ctx, 0, 4, func(context.Context, int) error { t.Error("must not run"); return nil }); err != nil {
		t.Fatal(err)
	}
	if got := s.Elapsed(); got != 35*time.Millisecond {
		t.Fatalf("empty fan: Elapsed = %v, want 35ms", got)
	}
}
