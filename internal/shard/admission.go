package shard

import (
	"context"
	"fmt"
	"sync"
	"time"

	"rottnest/internal/simtime"
)

type tenantCtxKey struct{}

// WithTenant tags ctx with the tenant issuing the query, the key the
// admission controller's token buckets are kept per. Untagged queries
// share the "default" tenant.
func WithTenant(ctx context.Context, tenant string) context.Context {
	return context.WithValue(ctx, tenantCtxKey{}, tenant)
}

// TenantFrom returns the tenant tagged on ctx ("default" when none).
func TenantFrom(ctx context.Context) string {
	if t, ok := ctx.Value(tenantCtxKey{}).(string); ok && t != "" {
		return t
	}
	return "default"
}

// admission is the front-door controller: one token bucket per
// tenant, refilled from the world clock, so a burst of queries beyond
// Burst + Rate·elapsed is rejected with ErrRateLimited instead of
// being queued onto the shard workers.
type admission struct {
	opts  AdmissionOptions
	clock simtime.Clock

	mu      sync.Mutex
	buckets map[string]*bucket
}

type bucket struct {
	tokens float64
	last   time.Time
}

func newAdmission(opts AdmissionOptions, clock simtime.Clock) *admission {
	if opts.Burst <= 0 {
		opts.Burst = opts.Rate
		if opts.Burst < 1 {
			opts.Burst = 1
		}
	}
	return &admission{opts: opts, clock: clock, buckets: make(map[string]*bucket)}
}

// allow spends one token from tenant's bucket, refilling by the clock
// time elapsed since the last visit.
func (a *admission) allow(tenant string) error {
	if a == nil || !a.opts.Enabled {
		return nil
	}
	now := a.clock.Now()
	a.mu.Lock()
	defer a.mu.Unlock()
	b, ok := a.buckets[tenant]
	if !ok {
		b = &bucket{tokens: a.opts.Burst, last: now}
		a.buckets[tenant] = b
	}
	if dt := now.Sub(b.last); dt > 0 {
		b.tokens += dt.Seconds() * a.opts.Rate
		if b.tokens > a.opts.Burst {
			b.tokens = a.opts.Burst
		}
	}
	b.last = now
	if b.tokens < 1 {
		return fmt.Errorf("%w: tenant %q", ErrRateLimited, tenant)
	}
	b.tokens--
	return nil
}
