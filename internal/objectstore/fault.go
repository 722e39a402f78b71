package objectstore

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"rottnest/internal/obs"
	"rottnest/internal/simtime"
)

// Errors injected by a FaultStore. Every injected error wraps
// ErrInjected, so tests and retry layers can use errors.Is against it
// to distinguish injected failures from real ones regardless of the
// specific fault kind.
var (
	// ErrInjected is the base error of every injected fault.
	ErrInjected = errors.New("objectstore: injected fault")
	// ErrThrottled models the store shedding load (S3's 503 SlowDown).
	// Retry layers classify it separately: throttles want longer,
	// jittered waits rather than the plain backoff schedule.
	ErrThrottled = fmt.Errorf("503 SlowDown: %w", ErrInjected)
	// ErrInjectedDeadline models a per-request deadline expiry (the
	// SDK-level timeout of a single HTTP attempt). It wraps both
	// context.DeadlineExceeded — so callers see the shape a real
	// request timeout has — and ErrInjected. Note the parent context
	// is NOT expired: the request is retryable.
	ErrInjectedDeadline = fmt.Errorf("request deadline expired: %w (%w)", context.DeadlineExceeded, ErrInjected)
	// ErrAmbiguousPut models the nastiest conditional-write failure:
	// the PutIfAbsent landed in the store but the response was lost,
	// so the caller gets an error for a write that succeeded. Only a
	// read-back can tell what happened.
	ErrAmbiguousPut = fmt.Errorf("response lost after conditional write: %w", ErrInjected)
)

// Op identifies a Store operation class for fault matching.
type Op int

// Operation classes.
const (
	OpPut Op = iota
	OpGet
	OpList
	OpDelete
	OpHead
)

// FaultKind enumerates the injected failure modes of a FaultProfile.
type FaultKind int

// Fault kinds, in the order a profile rolls them.
const (
	// FaultTransient is a retryable 5xx-style failure: the request
	// never reaches the store and ErrInjected is returned.
	FaultTransient FaultKind = iota
	// FaultThrottle is a 503 SlowDown, optionally starting a burst in
	// which the next ThrottleBurst operations are also throttled
	// (throttling is correlated in real stores: a hot prefix sheds
	// load for a window, not for one request).
	FaultThrottle
	// FaultLatency is a latency spike: the operation succeeds but is
	// charged SpikeLatency extra virtual time.
	FaultLatency
	// FaultDeadline is a per-request deadline expiry: the request
	// never reaches the store and ErrInjectedDeadline is returned.
	FaultDeadline
	// FaultAmbiguousPut applies to PutIfAbsent only: the write lands
	// in the store and ErrAmbiguousPut is returned anyway.
	FaultAmbiguousPut

	numFaultKinds
)

// Fault decides whether a given operation should fail with a plain
// transient ErrInjected. It is called with the operation class, the
// key (the prefix for List) and the 1-based sequence number of the
// operation across the store's lifetime. It is the scripted-fault-
// point hook of a FaultProfile, and the whole configuration of the
// legacy NewFaultStore constructor.
type Fault func(op Op, key string, seq int64) bool

// FaultProfile configures a FaultStore: seeded per-operation fault
// probabilities plus a scripted fault hook. The zero profile injects
// nothing. All probabilities are independent per operation and rolled
// in FaultKind order; the first that fires wins.
type FaultProfile struct {
	// Seed makes the probability rolls deterministic. Two stores with
	// the same profile fed the same operation sequence inject the
	// same faults.
	Seed int64

	// Transient is the probability of a FaultTransient per operation.
	Transient float64
	// Throttle is the probability of a FaultThrottle per operation.
	Throttle float64
	// ThrottleBurst is how many operations after a throttle are also
	// throttled, modelling correlated SlowDown windows. 0 means
	// throttles are independent.
	ThrottleBurst int
	// Latency is the probability of a FaultLatency per operation.
	Latency float64
	// SpikeLatency is the extra virtual time a latency spike charges.
	// Defaults to 400ms when Latency > 0.
	SpikeLatency time.Duration
	// Deadline is the probability of a FaultDeadline per operation.
	Deadline float64
	// AmbiguousPut is the probability, per PutIfAbsent, that the write
	// lands but ErrAmbiguousPut is returned.
	AmbiguousPut float64

	// Ops restricts injection to the listed operation classes; empty
	// means all classes. (FaultAmbiguousPut additionally requires the
	// operation to be a conditional put.)
	Ops []Op

	// Script is an optional scripted fault point: when it returns
	// true the operation fails with a FaultTransient before any
	// probability is rolled. Use it to hit an exact protocol step
	// (e.g. "the first meta-table commit after upload").
	Script Fault
}

func (p FaultProfile) withDefaults() FaultProfile {
	if p.SpikeLatency <= 0 {
		p.SpikeLatency = 400 * time.Millisecond
	}
	return p
}

// FaultCounts reports how many faults of each kind a FaultStore has
// injected. The differential harness uses it as a meta-check that a
// chaos run actually exercised the failure paths.
type FaultCounts struct {
	Transient     int64
	Throttles     int64
	LatencySpikes int64
	Deadlines     int64
	AmbiguousPuts int64
}

// Total is the number of injected faults of any kind.
func (c FaultCounts) Total() int64 {
	return c.Transient + c.Throttles + c.LatencySpikes + c.Deadlines + c.AmbiguousPuts
}

// FaultStore wraps a Store and injects failures according to a
// FaultProfile: transient errors, throttling bursts, latency spikes,
// per-request deadline expirations, and ambiguous conditional writes.
// Protocol tests use scripted faults to model indexer crashes before
// and after upload, failed commits, and vacuum races (Section IV-D of
// the paper); the differential harness uses seeded probabilities to
// model a misbehaving S3 under a whole workload.
type FaultStore struct {
	inner   Store
	profile FaultProfile
	seq     atomic.Int64

	mu        sync.Mutex
	rng       *rand.Rand
	burstLeft int

	// injected counts faults by kind, in reg under faultMetricNames.
	reg      *obs.Registry
	injected [numFaultKinds]*obs.Counter
}

// faultMetricNames maps a FaultKind to its registry counter name.
var faultMetricNames = [numFaultKinds]string{
	FaultTransient:    "fault.transient",
	FaultThrottle:     "fault.throttles",
	FaultLatency:      "fault.latency_spikes",
	FaultDeadline:     "fault.deadlines",
	FaultAmbiguousPut: "fault.ambiguous_puts",
}

// faultKindLabels name kinds in trace span attributes.
var faultKindLabels = [numFaultKinds]string{
	FaultTransient:    "transient",
	FaultThrottle:     "throttle",
	FaultLatency:      "latency",
	FaultDeadline:     "deadline",
	FaultAmbiguousPut: "ambiguous_put",
}

// NewFaultStore wraps inner with a scripted fault predicate (a nil
// predicate never fires). It is shorthand for a FaultProfile with
// only Script set.
func NewFaultStore(inner Store, fault Fault) *FaultStore {
	return NewFaultStoreWithProfile(inner, FaultProfile{Script: fault})
}

// NewFaultStoreWithProfile wraps inner with the given fault profile.
func NewFaultStoreWithProfile(inner Store, profile FaultProfile) *FaultStore {
	profile = profile.withDefaults()
	s := &FaultStore{
		inner:   inner,
		profile: profile,
		rng:     rand.New(rand.NewSource(profile.Seed)),
		reg:     obs.NewRegistry(),
	}
	for kind, name := range faultMetricNames {
		s.injected[kind] = s.reg.Counter(name)
	}
	return s
}

// Registry returns the store's metrics registry ("fault.*" names).
func (s *FaultStore) Registry() *obs.Registry { return s.reg }

// Clock returns the inner store's clock (ClockOf).
func (s *FaultStore) Clock() simtime.Clock { return ClockOf(s.inner) }

// Counts returns how many faults of each kind have been injected: a
// view over the "fault.*" counters.
func (s *FaultStore) Counts() FaultCounts {
	return FaultCounts{
		Transient:     s.injected[FaultTransient].Value(),
		Throttles:     s.injected[FaultThrottle].Value(),
		LatencySpikes: s.injected[FaultLatency].Value(),
		Deadlines:     s.injected[FaultDeadline].Value(),
		AmbiguousPuts: s.injected[FaultAmbiguousPut].Value(),
	}
}

// FailNth returns a Fault firing exactly on the nth operation of the
// given class (1-based count within that class).
func FailNth(op Op, n int64) Fault {
	var count atomic.Int64
	return func(o Op, _ string, _ int64) bool {
		if o != op {
			return false
		}
		return count.Add(1) == n
	}
}

// opAllowed reports whether the profile injects into this op class.
func (p *FaultProfile) opAllowed(op Op) bool {
	if len(p.Ops) == 0 {
		return true
	}
	for _, o := range p.Ops {
		if o == op {
			return true
		}
	}
	return false
}

// noFault is the sentinel "nothing fired" decision.
const noFault FaultKind = -1

// decide rolls the profile for one operation and returns the fault to
// inject, if any. Decisions are made under one lock so a seeded run
// is reproducible for a deterministic operation sequence.
func (s *FaultStore) decide(op Op, key string, conditional bool) FaultKind {
	seq := s.seq.Add(1)
	p := &s.profile
	if p.Script != nil && p.Script(op, key, seq) {
		s.injected[FaultTransient].Inc()
		return FaultTransient
	}
	if !p.opAllowed(op) {
		return noFault
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.burstLeft > 0 {
		s.burstLeft--
		s.injected[FaultThrottle].Inc()
		return FaultThrottle
	}
	kind := noFault
	switch {
	case p.Transient > 0 && s.rng.Float64() < p.Transient:
		kind = FaultTransient
	case p.Throttle > 0 && s.rng.Float64() < p.Throttle:
		kind = FaultThrottle
		s.burstLeft = p.ThrottleBurst
	case p.Latency > 0 && s.rng.Float64() < p.Latency:
		kind = FaultLatency
	case p.Deadline > 0 && s.rng.Float64() < p.Deadline:
		kind = FaultDeadline
	case conditional && p.AmbiguousPut > 0 && s.rng.Float64() < p.AmbiguousPut:
		kind = FaultAmbiguousPut
	}
	if kind != noFault {
		s.injected[kind].Inc()
	}
	return kind
}

// check decides and applies the pre-operation faults. It returns a
// non-nil error when the operation must fail without reaching the
// store, and ambiguous=true when the operation must run and then
// still report ErrAmbiguousPut.
func (s *FaultStore) check(ctx context.Context, op Op, key string, conditional bool) (ambiguous bool, err error) {
	kind := s.decide(op, key, conditional)
	if kind == noFault {
		return false, nil
	}
	ctx, span := obs.Start(ctx, "fault.inject")
	span.SetAttr("kind", faultKindLabels[kind])
	span.SetAttr("key", key)
	defer span.End()
	switch kind {
	case FaultTransient:
		return false, ErrInjected
	case FaultThrottle:
		return false, ErrThrottled
	case FaultLatency:
		simtime.Charge(ctx, s.profile.SpikeLatency)
		return false, nil
	case FaultDeadline:
		return false, ErrInjectedDeadline
	case FaultAmbiguousPut:
		return true, nil
	}
	return false, nil
}

// Put implements Store.
func (s *FaultStore) Put(ctx context.Context, key string, data []byte) error {
	if _, err := s.check(ctx, OpPut, key, false); err != nil {
		return err
	}
	return s.inner.Put(ctx, key, data)
}

// PutIfAbsent implements Store. An ambiguous fault performs the write
// and returns ErrAmbiguousPut anyway — the write has landed, matching
// a lost 200 response.
func (s *FaultStore) PutIfAbsent(ctx context.Context, key string, data []byte) error {
	ambiguous, err := s.check(ctx, OpPut, key, true)
	if err != nil {
		return err
	}
	err = s.inner.PutIfAbsent(ctx, key, data)
	if ambiguous && err == nil {
		return ErrAmbiguousPut
	}
	return err
}

// Get implements Store.
func (s *FaultStore) Get(ctx context.Context, key string) ([]byte, error) {
	if _, err := s.check(ctx, OpGet, key, false); err != nil {
		return nil, err
	}
	return s.inner.Get(ctx, key)
}

// GetRange implements Store.
func (s *FaultStore) GetRange(ctx context.Context, key string, offset, length int64) ([]byte, error) {
	if _, err := s.check(ctx, OpGet, key, false); err != nil {
		return nil, err
	}
	return s.inner.GetRange(ctx, key, offset, length)
}

// Head implements Store.
func (s *FaultStore) Head(ctx context.Context, key string) (ObjectInfo, error) {
	if _, err := s.check(ctx, OpHead, key, false); err != nil {
		return ObjectInfo{}, err
	}
	return s.inner.Head(ctx, key)
}

// List implements Store.
func (s *FaultStore) List(ctx context.Context, prefix string) ([]ObjectInfo, error) {
	if _, err := s.check(ctx, OpList, prefix, false); err != nil {
		return nil, err
	}
	return s.inner.List(ctx, prefix)
}

// Delete implements Store.
func (s *FaultStore) Delete(ctx context.Context, key string) error {
	if _, err := s.check(ctx, OpDelete, key, false); err != nil {
		return err
	}
	return s.inner.Delete(ctx, key)
}
