package objectstore

import "rottnest/internal/obs"

// StackOptions selects which wrapper layers NewStack composes around
// a base store. The zero value yields an instrument-free, cache-on
// stack only if CacheBytes is 0 — see each field.
type StackOptions struct {
	// Faults, when non-nil, injects failures at the bottom of the
	// stack (closest to the base store), so retries and caching see
	// the same misbehaving substrate a real client would.
	Faults *FaultProfile
	// Retry wraps the fault layer when Retry.Enabled is true, so
	// injected failures are retried before they surface.
	Retry RetryPolicy
	// Latency, when non-nil, adds an Instrumented layer charging the
	// model's virtual latency and counting requests/bytes. Use a zero
	// LatencyModel to meter requests without charging latency.
	Latency *LatencyModel
	// CacheBytes sizes the outermost read-cache layer: 0 means
	// DefaultCacheBytes, negative disables the cache entirely —
	// matching core.Config.CacheBytes.
	CacheBytes int64
	// CoalesceGap is the cache's adjacent-range merge threshold
	// (0 = DefaultCoalesceGap, negative disables coalescing).
	CoalesceGap int64
}

// Stack is a composed store wrapper chain plus handles to each layer
// (nil when the layer was not requested). Store is the outermost
// layer — the one to hand to lake.Create/Open.
type Stack struct {
	Store        Store
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
// substrate; retries sit directly above so recovery happens before
// metering (a retried GET costs two metered requests, like on real
// S3); instrumentation charges virtual latency and counts requests;
// the cache is outermost so hits cost zero requests and zero latency.
func NewStack(base Store, opts StackOptions) *Stack {
	s := &Stack{Base: base, Store: base}
	if opts.Faults != nil {
		s.Fault = NewFaultStoreWithProfile(s.Store, *opts.Faults)
		s.Store = s.Fault
	}
	if opts.Retry.Enabled {
		s.Retry = NewRetryStore(s.Store, opts.Retry)
		s.Store = s.Retry
	}
	if opts.Latency != nil {
		s.Instrumented, s.Metrics = Instrument(s.Store, *opts.Latency)
		s.Store = s.Instrumented
	}
	if opts.CacheBytes >= 0 {
		s.Cache = NewCachedStore(s.Store, CacheOptions{
			MaxBytes:    opts.CacheBytes,
			CoalesceGap: opts.CoalesceGap,
		})
		s.Store = s.Cache
	}
	return s
}

// MetricsSnapshot merges every present layer's counts into one
// snapshot ("fault.*", "retry.*", "store.*", "cache.*" names). A Stack
// literal naming only some layers is a valid view of them.
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
