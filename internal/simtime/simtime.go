// Package simtime provides virtual-time accounting for simulated
// object-storage workloads.
//
// Rottnest's evaluation depends on the latency shape of cloud object
// storage: chains of dependent requests (access "depth") accumulate
// latency, while parallel fans of requests (access "width") largely
// overlap. Instead of sleeping, every logical operation (a search, an
// indexing run, a brute-force scan) runs inside a Session that records
// its position on a virtual timeline. Sequential work advances the
// session; Fan is the one way to fan work out: its branches each start
// at the parent's current time and the parent resumes at the latest
// branch finish time. Outside a session nothing is accounted, and a
// fan's branches run on the real clock.
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
// though concurrent Add calls on one session model sequential work:
// overlapping work belongs on the branches of a Fan.
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

// Fan runs fn(ctx, i) for every i in [0, n) in waves of at most width
// concurrent branches (width <= 0 means n), and returns the error of
// the lowest failing index — the order a caller looping over
// per-branch errors would find it. Every fn runs: Fan never skips a
// branch, so a branch that must signal completion (or stop early on a
// dead context) does so itself. A wave of one runs on the caller's
// goroutine.
//
// With a session on ctx, each branch's context carries a child session
// starting at the parent's elapsed time, and after each wave the
// parent advances to the latest branch finish time: a wave costs its
// slowest branch. Without a session the branches run on ctx unchanged,
// so they stay on the real clock (a retry backoff inside one sleeps).
func Fan(ctx context.Context, n, width int, fn func(ctx context.Context, i int) error) error {
	if n <= 0 {
		return nil
	}
	if width <= 0 || width > n {
		width = n
	}
	parent := From(ctx)
	errs := make([]error, n)
	for base := 0; base < n; base += width {
		count := min(width, n-base)
		var kids []Session
		if parent != nil {
			kids = make([]Session, count)
			start := parent.Elapsed()
			for j := range kids {
				kids[j].elapsed = start
			}
		}
		branch := func(j int) {
			bctx := ctx
			if kids != nil {
				bctx = With(ctx, &kids[j])
			}
			errs[base+j] = fn(bctx, base+j)
		}
		if count == 1 {
			branch(0)
		} else {
			var wg sync.WaitGroup
			wg.Add(count)
			for j := 0; j < count; j++ {
				go func() {
					defer wg.Done()
					branch(j)
				}()
			}
			wg.Wait()
		}
		for j := range kids {
			parent.advanceTo(kids[j].Elapsed())
		}
	}
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
