// Package simtime provides virtual-time accounting for simulated
// object-storage workloads.
//
// Rottnest's evaluation depends on the latency shape of cloud object
// storage: chains of dependent requests (access "depth") accumulate
// latency, while parallel fans of requests (access "width") largely
// overlap. Instead of sleeping, every logical operation (a search, an
// indexing run, a brute-force scan) runs inside a Session that records
// its position on a virtual timeline. Sequential work advances the
// session; Parallel branches each start at the parent's current time
// and the parent resumes at the latest branch finish time.
//
// A Clock is the single global wall clock of a simulated world. Object
// stores stamp object creation times from it, which the vacuum
// protocol relies on ("modern object stores provide strong consistency,
// and thus have a single global clock", Section IV-C of the paper). So
// the store is the one place a world names its clock: a MemStore is
// built on one, objectstore.ClockOf reads it through any wrapper, and
// a lake table and everything above it (clients, ingest writers and
// schedulers, shard routers, the autopilot) read time from the table's
// store. A store without a clock of its own is on RealClock.
package simtime

import (
	"context"
	"sync"
	"time"
)

// Clock is a source of timestamps for a simulated world. Implementations
// must be safe for concurrent use.
type Clock interface {
	// Now returns the current time of the world.
	Now() time.Time
	// Advance moves the clock forward by d and returns the new time.
	// Real clocks ignore the requested delta and return the real time.
	Advance(d time.Duration) time.Time
}

// VirtualClock is a manually advanced Clock starting at a fixed epoch.
// It is the single global clock of a simulated object-storage world.
type VirtualClock struct {
	mu  sync.Mutex
	now time.Time
}

// Epoch is the starting instant of every VirtualClock.
var Epoch = time.Date(2025, 1, 1, 0, 0, 0, 0, time.UTC)

// NewVirtualClock returns a VirtualClock positioned at Epoch.
func NewVirtualClock() *VirtualClock {
	return &VirtualClock{now: Epoch}
}

// Now returns the current virtual time.
func (c *VirtualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Advance moves the virtual clock forward by d (negative deltas are
// ignored) and returns the new time.
func (c *VirtualClock) Advance(d time.Duration) time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	if d > 0 {
		c.now = c.now.Add(d)
	}
	return c.now
}

// RealClock is a Clock backed by the machine's wall clock. It is the
// clock of any store that has none of its own (objectstore.ClockOf), so
// Rottnest runs on it against a directory-backed store outside of a
// simulation (for example, from the CLI).
type RealClock struct{}

// Now returns the real wall-clock time.
func (RealClock) Now() time.Time { return time.Now() }

// Advance ignores d and returns the real wall-clock time.
func (RealClock) Advance(time.Duration) time.Time { return time.Now() }

// A Session tracks the virtual elapsed time of one logical operation.
// The zero value is ready to use. Sessions are safe for concurrent use,
// though concurrent Add calls model independent work and callers who
// need parallel semantics should use Parallel.
type Session struct {
	mu      sync.Mutex
	elapsed time.Duration
}

// NewSession returns a Session positioned at zero elapsed time.
func NewSession() *Session { return &Session{} }

// Add advances the session's timeline by d. Negative durations are
// ignored.
func (s *Session) Add(d time.Duration) {
	if s == nil || d <= 0 {
		return
	}
	s.mu.Lock()
	s.elapsed += d
	s.mu.Unlock()
}

// Elapsed reports the session's current virtual elapsed time.
func (s *Session) Elapsed() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.elapsed
}

// advanceTo moves the session's timeline forward to at least t.
func (s *Session) advanceTo(t time.Duration) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if t > s.elapsed {
		s.elapsed = t
	}
	s.mu.Unlock()
}

// Parallel runs the branch functions concurrently, each on a child
// Session starting at the parent's current elapsed time. When all
// branches return, the parent's timeline advances to the latest branch
// finish time. Branches run on real goroutines, so the real work they
// perform is also parallel.
func (s *Session) Parallel(branches ...func(*Session)) {
	if len(branches) == 0 {
		return
	}
	start := s.Elapsed()
	children := make([]*Session, len(branches))
	var wg sync.WaitGroup
	for i, fn := range branches {
		children[i] = &Session{elapsed: start}
		wg.Add(1)
		go func(child *Session, fn func(*Session)) {
			defer wg.Done()
			fn(child)
		}(children[i], fn)
	}
	wg.Wait()
	end := start
	for _, c := range children {
		if e := c.Elapsed(); e > end {
			end = e
		}
	}
	s.advanceTo(end)
}

// ParallelN runs fn(i, child) for i in [0, n) with at most width
// branches in flight at a time, modelling a worker pool: the virtual
// timeline advances as if the n tasks were executed by width parallel
// workers (each wave takes the max of its branch durations). If width
// <= 0 it defaults to n.
func (s *Session) ParallelN(n, width int, fn func(int, *Session)) {
	if n <= 0 {
		return
	}
	if width <= 0 || width > n {
		width = n
	}
	for base := 0; base < n; base += width {
		count := width
		if base+count > n {
			count = n - base
		}
		branches := make([]func(*Session), count)
		for j := 0; j < count; j++ {
			i := base + j
			branches[j] = func(child *Session) { fn(i, child) }
		}
		s.Parallel(branches...)
	}
}

// Fan runs fn(ctx, i) for i in [0, n) on the session ctx carries, at
// most width at a time (ParallelN; width <= 0 means n), each call's
// context carrying its own branch session, and returns the error of
// the lowest failing index — the order a caller looping over
// per-branch errors would find it. A fan of one runs on the caller's
// goroutine, on a branch session like any other. Without a session
// the branches still run concurrently, just without virtual-time
// accounting.
func Fan(ctx context.Context, n, width int, fn func(ctx context.Context, i int) error) error {
	if n == 1 {
		s := From(ctx)
		child := &Session{elapsed: s.Elapsed()}
		err := fn(With(ctx, child), 0)
		s.advanceTo(child.Elapsed())
		return err
	}
	errs := make([]error, n)
	From(ctx).ParallelN(n, width, func(i int, child *Session) {
		errs[i] = fn(With(ctx, child), i)
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

type sessionKey struct{}

// With returns a context carrying the session. Store instrumentation
// charges request latency to the session found in the context; when no
// session is present latency accounting is skipped.
func With(ctx context.Context, s *Session) context.Context {
	return context.WithValue(ctx, sessionKey{}, s)
}

// From extracts the session carried by ctx, or nil if none.
func From(ctx context.Context) *Session {
	s, _ := ctx.Value(sessionKey{}).(*Session)
	return s
}

// Charge adds d to the session carried by ctx, if any.
func Charge(ctx context.Context, d time.Duration) {
	From(ctx).Add(d)
}
