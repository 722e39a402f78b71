package objectstore

import (
	"rottnest/internal/obs"
	"rottnest/internal/simtime"
)

// StackOptions selects which wrapper layers NewStack composes around
// a base store. The zero value yields a cache-only stack at the default
// budget — see each field.
type StackOptions struct {
	// Faults, when non-nil, injects failures at the bottom of the
	// stack (closest to the base store), so retries and caching see
	// the same misbehaving substrate a real client would.
	Faults *FaultProfile
	// Retry, when non-nil, wraps the fault layer, so injected failures
	// are retried before they surface. Zero fields take the policy's
	// defaults.
	Retry *RetryPolicy
	// Latency, when non-nil, adds an Instrumented layer charging the
	// model's virtual latency and counting requests/bytes. Use a zero
	// LatencyModel to meter requests without charging latency.
	Latency *LatencyModel
	// CacheBytes sizes the outermost read-cache layer: 0 means
	// DefaultCacheBytes, negative disables the cache entirely —
	// matching core.Config.CacheBytes. The cache coalesces adjacent
	// ranged GETs of a fan (FanGet).
	CacheBytes int64
}

// Stack is a composed store: the embedded Store is its outermost layer,
// so a *Stack is itself the store to hand to lake.Create/Open, and the
// other fields are handles to each layer (nil when the layer was not
// requested). Base is the innermost store.
type Stack struct {
	Store
	Base         Store
	Fault        *FaultStore
	Retry        *RetryStore
	Instrumented *Instrumented
	Metrics      *Metrics
	Cache        *CachedStore
}

// NewStack composes the wrapper zoo around base in the one canonical
// order, innermost first:
//
//	base → fault → retry → instrument → cache
//
// Faults sit at the bottom so every layer above sees the misbehaving
// substrate; retries sit directly above so recovery happens below
// metering, which therefore counts each logical request once however
// many attempts it took (the attempts show as "retry.retries");
// instrumentation charges virtual latency and counts requests; the
// cache is outermost so hits cost zero requests and zero latency.
//
// A base that is itself a *Stack is extended: the new stack keeps the
// base's handles and adds the requested layers above its outermost
// one, where a layer requested again takes over that layer's handle.
// Any other base is opaque: layers a caller wrapped by hand have no
// handle.
func NewStack(base Store, opts StackOptions) *Stack {
	s := &Stack{Store: base, Base: base}
	if b, ok := base.(*Stack); ok {
		*s = *b
	}
	if opts.Faults != nil {
		s.Fault = NewFaultStoreWithProfile(s.Store, *opts.Faults)
		s.Store = s.Fault
	}
	if opts.Retry != nil {
		s.Retry = NewRetryStore(s.Store, *opts.Retry)
		s.Store = s.Retry
	}
	if opts.Latency != nil {
		s.Instrumented, s.Metrics = Instrument(s.Store, *opts.Latency)
		s.Store = s.Instrumented
	}
	if opts.CacheBytes >= 0 {
		s.Cache = NewCachedStore(s.Store, CacheOptions{MaxBytes: opts.CacheBytes})
		s.Store = s.Cache
	}
	return s
}

// Clock returns the clock of the stack's store (ClockOf): the world
// clock of every table and client opened on it.
func (s *Stack) Clock() simtime.Clock { return ClockOf(s.Store) }

// MetricsSnapshot merges every present layer's counts into one
// snapshot ("fault.*", "retry.*", "store.*", "cache.*" names).
func (s *Stack) MetricsSnapshot() obs.Snapshot {
	var snaps []obs.Snapshot
	if s.Fault != nil {
		snaps = append(snaps, s.Fault.Registry().Snapshot())
	}
	if s.Retry != nil {
		snaps = append(snaps, s.Retry.Registry().Snapshot())
	}
	if s.Instrumented != nil {
		snaps = append(snaps, s.Instrumented.Metrics().Snapshot().obsSnapshot())
	}
	if s.Cache != nil {
		snaps = append(snaps, s.Cache.Registry().Snapshot())
	}
	return obs.Merge(snaps...)
}
