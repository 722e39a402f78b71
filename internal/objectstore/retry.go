package objectstore

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"sync"
	"time"

	"rottnest/internal/obs"
	"rottnest/internal/simtime"
)

// RetryPolicy tunes a RetryStore: bounded exponential backoff with
// jitter. Zero fields take the documented defaults (NewRetryStore, or
// StackOptions.Retry, applies them).
type RetryPolicy struct {
	// MaxAttempts bounds the tries per operation (first attempt
	// included) that fail with non-throttle retryable errors.
	// Defaults to 6. Tries consumed by throttles have their own,
	// larger bound (throttleAttempts).
	MaxAttempts int
	// BaseDelay is the backoff before the first retry. Defaults to
	// 20ms.
	BaseDelay time.Duration
	// MaxDelay caps the exponential backoff. Defaults to 2s.
	MaxDelay time.Duration
	// Multiplier grows the delay per retry. Defaults to 2.
	Multiplier float64
	// Jitter spreads each delay uniformly over
	// [delay*(1-Jitter/2), delay*(1+Jitter/2)], decorrelating
	// retry storms. Defaults to 0.5; negative disables jitter.
	Jitter float64
	// ThrottleFloor is the minimum wait after a throttle (503
	// SlowDown): throttled stores want clients to back off longer
	// than a generic transient error warrants. Defaults to 200ms.
	ThrottleFloor time.Duration
	// Seed makes the jitter deterministic for simulations.
	Seed int64
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 6
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 20 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 2 * time.Second
	}
	if p.Multiplier < 1 {
		p.Multiplier = 2
	}
	if p.Jitter == 0 {
		p.Jitter = 0.5
	}
	if p.ThrottleFloor <= 0 {
		p.ThrottleFloor = 200 * time.Millisecond
	}
	return p
}

// throttleAttempts bounds the tries consumed by throttles (503
// SlowDown). Throttling is correlated — a shedding store throttles
// whole windows of requests — so waiting it out needs a larger budget
// than generic transient errors.
func (p RetryPolicy) throttleAttempts() int { return 4 * p.MaxAttempts }

// errClass is the retry classification of an error.
type errClass int

const (
	// classPermanent errors reflect true state or caller intent and
	// must not be retried: ErrNotFound, ErrExists, ErrInvalidRange,
	// and context.Canceled.
	classPermanent errClass = iota
	// classRetryable errors are transient: unknown failures and
	// per-request deadline expirations.
	classRetryable
	// classThrottle errors are the store shedding load; retried after
	// at least ThrottleFloor.
	classThrottle
)

// classifyErr buckets an operation error. context.DeadlineExceeded is
// retryable because a single request's deadline can expire while the
// caller's own context is still live — the retry loop separately
// checks the parent context and stops when it is done.
func classifyErr(err error) errClass {
	switch {
	case errors.Is(err, ErrThrottled):
		return classThrottle
	case errors.Is(err, ErrNotFound),
		errors.Is(err, ErrExists),
		errors.Is(err, ErrInvalidRange),
		errors.Is(err, context.Canceled):
		return classPermanent
	default:
		return classRetryable
	}
}

// RetryStore wraps a Store with bounded exponential-backoff-with-
// jitter retries. Errors are classified retryable / permanent /
// ambiguous-conditional; the last — a PutIfAbsent whose outcome is
// unknown — is resolved by reading the key back and comparing bytes,
// which is sound for Rottnest because everything written by
// conditional put (lake log records, metadata checkpoints) is
// content-addressed: identical bytes mean the caller's own write
// landed.
//
// Backoff sleeps charge virtual time to the context's simtime.Session
// when one is present (simulations pay latency, not wall time) and
// real-sleep otherwise.
type RetryStore struct {
	inner  Store
	policy RetryPolicy

	mu  sync.Mutex
	rng *rand.Rand

	// reg holds the recovery counters ("retry.*" names): repeated
	// attempts, how many of them waited out a throttle, and ambiguous
	// conditional puts resolved by read-back.
	reg               *obs.Registry
	retries           *obs.Counter
	throttleWaits     *obs.Counter
	ambiguousResolved *obs.Counter
}

// NewRetryStore wraps inner with the policy (zero fields take the
// documented defaults).
func NewRetryStore(inner Store, policy RetryPolicy) *RetryStore {
	policy = policy.withDefaults()
	reg := obs.NewRegistry()
	return &RetryStore{
		inner:             inner,
		policy:            policy,
		rng:               rand.New(rand.NewSource(policy.Seed)),
		reg:               reg,
		retries:           reg.Counter("retry.retries"),
		throttleWaits:     reg.Counter("retry.throttle_waits"),
		ambiguousResolved: reg.Counter("retry.ambiguous_resolved"),
	}
}

// Registry returns the store's metrics registry ("retry.*" names).
func (s *RetryStore) Registry() *obs.Registry { return s.reg }

// Clock returns the inner store's clock (ClockOf).
func (s *RetryStore) Clock() simtime.Clock { return ClockOf(s.inner) }

// backoff returns the jittered delay before retry number attempt
// (0-based), with the throttle floor applied when throttled.
func (s *RetryStore) backoff(attempt int, throttled bool) time.Duration {
	d := float64(s.policy.BaseDelay)
	for i := 0; i < attempt; i++ {
		d *= s.policy.Multiplier
		if d >= float64(s.policy.MaxDelay) {
			d = float64(s.policy.MaxDelay)
			break
		}
	}
	if j := s.policy.Jitter; j > 0 {
		s.mu.Lock()
		f := 1 - j/2 + j*s.rng.Float64()
		s.mu.Unlock()
		d *= f
	}
	delay := time.Duration(d)
	if delay > s.policy.MaxDelay {
		delay = s.policy.MaxDelay
	}
	if throttled && delay < s.policy.ThrottleFloor {
		delay = s.policy.ThrottleFloor
	}
	if delay < time.Millisecond {
		delay = time.Millisecond
	}
	return delay
}

// sleep waits out a backoff delay as a "retry.backoff" span. Virtual
// time is always charged; the real sleep only happens outside a
// simulation session, and is cut short by context cancellation.
func (s *RetryStore) sleep(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	ctx, span := obs.Start(ctx, "retry.backoff")
	defer span.End()
	simtime.Charge(ctx, d)
	if simtime.From(ctx) != nil {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// do runs op under the retry loop for non-conditional operations.
// Throttles and other retryable failures draw from separate attempt
// budgets: throttle storms are correlated, so outlasting one must not
// exhaust the transient-error budget (and vice versa).
func (s *RetryStore) do(ctx context.Context, op func() error) error {
	transients, throttles := 0, 0
	for attempt := 0; ; attempt++ {
		err := op()
		if err == nil {
			return nil
		}
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		class := classifyErr(err)
		switch {
		case class == classPermanent:
			return err
		case class == classThrottle:
			if throttles++; throttles >= s.policy.throttleAttempts() {
				return err
			}
			s.throttleWaits.Add(1)
		default:
			if transients++; transients >= s.policy.MaxAttempts {
				return err
			}
		}
		s.retries.Add(1)
		if serr := s.sleep(ctx, s.backoff(attempt, class == classThrottle)); serr != nil {
			return serr
		}
	}
}

// putOutcome is the read-back verdict on an ambiguous conditional put.
type putOutcome int

const (
	putLanded putOutcome = iota // key holds our bytes: the write won
	putLost                     // key holds other bytes: a competitor won
	putAbsent                   // key missing: the write never landed
)

// readBack resolves an ambiguous PutIfAbsent by fetching the key and
// comparing content.
func (s *RetryStore) readBack(ctx context.Context, key string, data []byte) (putOutcome, error) {
	got, err := s.inner.Get(ctx, key)
	if errors.Is(err, ErrNotFound) {
		return putAbsent, nil
	}
	if err != nil {
		return 0, err
	}
	if bytes.Equal(got, data) {
		return putLanded, nil
	}
	return putLost, nil
}

// Put implements Store.
func (s *RetryStore) Put(ctx context.Context, key string, data []byte) error {
	return s.do(ctx, func() error { return s.inner.Put(ctx, key, data) })
}

// PutIfAbsent implements Store. Any non-permanent failure — including
// an explicit ambiguous outcome and a plain ErrExists that might be
// our own earlier write — is resolved by read-back: identical bytes
// mean success, different bytes mean a competitor won (ErrExists), a
// missing key means the write never landed and is retried.
func (s *RetryStore) PutIfAbsent(ctx context.Context, key string, data []byte) error {
	transients, throttles := 0, 0
	var err error
	for attempt := 0; ; attempt++ {
		err = s.inner.PutIfAbsent(ctx, key, data)
		if err == nil {
			return nil
		}
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		ambiguous := errors.Is(err, ErrExists) || classifyErr(err) != classPermanent
		if !ambiguous {
			return err
		}
		switch outcome, rerr := s.readBack(ctx, key, data); {
		case rerr == nil && outcome == putLanded:
			s.ambiguousResolved.Add(1)
			return nil
		case rerr == nil && outcome == putLost:
			return ErrExists
		}
		// The write never landed, or the read-back itself failed:
		// back off and try the put again.
		throttled := classifyErr(err) == classThrottle
		if throttled {
			if throttles++; throttles >= s.policy.throttleAttempts() {
				return err
			}
			s.throttleWaits.Add(1)
		} else {
			if transients++; transients >= s.policy.MaxAttempts {
				return err
			}
		}
		s.retries.Add(1)
		if serr := s.sleep(ctx, s.backoff(attempt, throttled)); serr != nil {
			return serr
		}
	}
}

// Get implements Store.
func (s *RetryStore) Get(ctx context.Context, key string) ([]byte, error) {
	var out []byte
	err := s.do(ctx, func() error {
		var e error
		out, e = s.inner.Get(ctx, key)
		return e
	})
	return out, err
}

// GetRange implements Store.
func (s *RetryStore) GetRange(ctx context.Context, key string, offset, length int64) ([]byte, error) {
	var out []byte
	err := s.do(ctx, func() error {
		var e error
		out, e = s.inner.GetRange(ctx, key, offset, length)
		return e
	})
	return out, err
}

// Head implements Store.
func (s *RetryStore) Head(ctx context.Context, key string) (ObjectInfo, error) {
	var out ObjectInfo
	err := s.do(ctx, func() error {
		var e error
		out, e = s.inner.Head(ctx, key)
		return e
	})
	return out, err
}

// List implements Store.
func (s *RetryStore) List(ctx context.Context, prefix string) ([]ObjectInfo, error) {
	var out []ObjectInfo
	err := s.do(ctx, func() error {
		var e error
		out, e = s.inner.List(ctx, prefix)
		return e
	})
	return out, err
}

// Delete implements Store.
func (s *RetryStore) Delete(ctx context.Context, key string) error {
	return s.do(ctx, func() error { return s.inner.Delete(ctx, key) })
}
