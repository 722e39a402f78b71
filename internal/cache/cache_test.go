package cache

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rottnest/internal/obs"
	"rottnest/internal/simtime"
)

// model is the naive reference the engine is checked against: the
// resident entries in recency order (front first), nothing else.
type model struct {
	max     int64
	entries []modelEntry
}

type modelEntry struct {
	key   int
	tag   string
	val   int
	cost  int64
	yield bool
}

func (m *model) find(k int) int {
	for i, e := range m.entries {
		if e.key == k {
			return i
		}
	}
	return -1
}

func (m *model) promote(i int) {
	e := m.entries[i]
	copy(m.entries[1:i+1], m.entries[:i])
	m.entries[0] = e
}

func (m *model) bytes() (sum int64) {
	for _, e := range m.entries {
		sum += e.cost
	}
	return sum
}

// insert keeps e unless it is oversized, then evicts the least
// recently used yielding entry while there is one, else the least
// recently used entry. It returns the number of evictions.
func (m *model) insert(e modelEntry) (evicted int) {
	if e.cost > m.max/4 {
		return 0
	}
	m.entries = append([]modelEntry{e}, m.entries...)
	for m.bytes() > m.max {
		victim := len(m.entries) - 1
		for i := victim; i >= 0; i-- {
			if m.entries[i].yield {
				victim = i
				break
			}
		}
		m.entries = append(m.entries[:victim], m.entries[victim+1:]...)
		evicted++
	}
	return evicted
}

// class returns the model's keys of one class in recency order.
func (m *model) class(yield bool) (keys []int) {
	for _, e := range m.entries {
		if e.yield == yield {
			keys = append(keys, e.key)
		}
	}
	return keys
}

func (m *model) invalidate(tag string) (dropped int) {
	kept := m.entries[:0]
	for _, e := range m.entries {
		if e.tag == tag {
			dropped++
		} else {
			kept = append(kept, e)
		}
	}
	m.entries = kept
	return dropped
}

const modelKeys = 16

// rig is an engine beside its model. The class of the next insert is
// whatever yield holds when the load finishes, so a script can draw it
// per operation.
type rig struct {
	c         *Cache[int, int]
	m         *model
	evictions *obs.Counter
	next      int
	yield     bool
}

func newRig(max int64) *rig {
	r := &rig{m: &model{max: max}, evictions: &obs.Counter{}}
	r.c = New[int, int](max, Metrics{Evictions: r.evictions}, func(int) bool { return r.yield })
	return r
}

func tagOf(k int) string { return fmt.Sprintf("obj%d", k%5) }

// checkAgainst compares the engine's resident set with the model's and
// walks the engine's own structures for internal consistency. Peek is
// the probe, so checking never disturbs recency.
func checkAgainst(t *testing.T, c *Cache[int, int], m *model) {
	t.Helper()
	if got := c.Bytes(); got != m.bytes() || got > m.max {
		t.Fatalf("resident bytes = %d, model %d, budget %d", got, m.bytes(), m.max)
	}
	if c.Len() != len(m.entries) {
		t.Fatalf("resident entries = %d, model %d", c.Len(), len(m.entries))
	}
	for k := 0; k < modelKeys; k++ {
		v, ok := c.Peek(k)
		i := m.find(k)
		if ok != (i >= 0) || (ok && v != m.entries[i].val) {
			t.Fatalf("Peek(%d) = %d, %v; model index %d", k, v, ok, i)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	i, tagged := 0, 0
	for class, want := range [][]int{m.class(false), m.class(true)} {
		pos := 0
		for elem := c.lru[class].Front(); elem != nil; elem = elem.Next() {
			e := elem.Value.(*entry[int, int])
			if pos >= len(want) || e.key != want[pos] || e.class != class {
				t.Fatalf("class %d position %d holds key %d, model order %v", class, pos, e.key, want)
			}
			if c.items[e.key] != elem || c.tags[e.tag][e.key] != elem {
				t.Fatalf("key %d: items/tags do not point at its LRU element", e.key)
			}
			pos++
			i++
		}
	}
	for tag, bucket := range c.tags {
		if len(bucket) == 0 {
			t.Fatalf("empty tag bucket %q not pruned", tag)
		}
		tagged += len(bucket)
	}
	if tagged != i || len(c.items) != i || len(c.flights) != 0 {
		t.Fatalf("%d LRU entries, %d tagged, %d items, %d flights", i, tagged, len(c.items), len(c.flights))
	}
}

// step applies one scripted operation to both the engine and the
// model. op selects the operation, k the key, cost the load's cost,
// yield the class a load's result is inserted under.
func step(t *testing.T, r *rig, op, k int, cost int64, yield bool) {
	t.Helper()
	c, m, evictions := r.c, r.m, r.evictions
	r.yield = yield
	ctx := context.Background()
	boom := errors.New("boom")
	switch op {
	case 0, 1, 2, 3: // Do; variant 2 fails, variant 3 is invalidated mid-load
		r.next++
		val, ran := r.next, false
		evBefore := evictions.Value()
		v, hit, err := c.Do(ctx, k, tagOf(k), func(context.Context) (int, int64, error) {
			ran = true
			switch op {
			case 2:
				return 0, 0, boom
			case 3:
				if n := c.Invalidate(tagOf(k)); n != m.invalidate(tagOf(k)) {
					t.Fatalf("mid-load Invalidate dropped %d entries, model disagrees", n)
				}
			}
			return val, cost, nil
		})
		i := m.find(k)
		if hit != (i >= 0) || ran == hit {
			t.Fatalf("Do(%d): hit=%v ran=%v, model index %d", k, hit, ran, i)
		}
		wantEvicted := 0
		switch {
		case hit:
			if err != nil || v != m.entries[i].val {
				t.Fatalf("Do(%d) hit = %d, %v, want %d", k, v, err, m.entries[i].val)
			}
			m.promote(i)
		case op == 2:
			if !errors.Is(err, boom) {
				t.Fatalf("Do(%d) = %v, want the load's error", k, err)
			}
		default: // served whether or not it is kept
			if err != nil || v != val {
				t.Fatalf("Do(%d) = %d, %v, want %d", k, v, err, val)
			}
			if op != 3 {
				wantEvicted = m.insert(modelEntry{key: k, tag: tagOf(k), val: val, cost: cost, yield: yield})
			}
		}
		if got := evictions.Value() - evBefore; got != int64(wantEvicted) {
			t.Fatalf("Do(%d) evicted %d, model %d", k, got, wantEvicted)
		}
	case 4: // Get promotes
		v, ok := c.Get(k)
		i := m.find(k)
		if ok != (i >= 0) || (ok && v != m.entries[i].val) {
			t.Fatalf("Get(%d) = %d, %v; model index %d", k, v, ok, i)
		}
		if ok {
			m.promote(i)
		}
	case 5: // Peek does not (checkAgainst compares recency order)
		c.Peek(k)
	case 6:
		if n, want := c.Invalidate(tagOf(k)), m.invalidate(tagOf(k)); n != want {
			t.Fatalf("Invalidate(%s) dropped %d, model %d", tagOf(k), n, want)
		}
	case 7:
		if k == 0 {
			c.Flush()
			m.entries = nil
		}
	}
	checkAgainst(t, c, m)
}

// TestEngineMatchesModel drives random operation sequences against
// the naive model: the budget is never exceeded, eviction is strictly
// least-recently-used, tag invalidation drops all and only the tagged
// entries, an invalidation during a load suppresses that insert,
// oversized and failed loads are served but not kept, and Peek does
// not promote. A third of the loads insert as yielding, so all of the
// above is checked for that class too, and with it the one rule that
// sets it apart: no ordinary entry is evicted while a yielding one is
// resident.
func TestEngineMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := newRig(256)
		for i := 0; i < 2000; i++ {
			step(t, r, rng.Intn(8), rng.Intn(modelKeys), int64(rng.Intn(97)), rng.Intn(3) == 0)
		}
	}
}

// TestYieldingEntriesDisplaceNothing is the differential form of the
// yielding rule: two engines get the same operations on ordinary keys,
// one of them also gets loads, hits and tag invalidations of yielding
// keys in between, and after every step both hold the same ordinary
// entries in the same recency order and answered the shared operation
// alike.
func TestYieldingEntriesDisplaceNothing(t *testing.T) {
	yields := func(k int) bool { return k >= modelKeys }
	ordinary := func(c *Cache[int, int]) (keys []int) {
		c.mu.Lock()
		defer c.mu.Unlock()
		for elem := c.lru[0].Front(); elem != nil; elem = elem.Next() {
			keys = append(keys, elem.Value.(*entry[int, int]).key)
		}
		return keys
	}
	ctx := context.Background()
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		plain := New[int, int](256, Metrics{}, yields)
		mixed := New[int, int](256, Metrics{}, yields)
		yielded := 0
		for i := 0; i < 3000; i++ {
			op, k, cost := rng.Intn(8), rng.Intn(modelKeys), int64(rng.Intn(97))
			if rng.Intn(2) == 0 {
				// Yielding traffic, seen by one engine only. Its tags
				// are its own: an invalidation here must not be what
				// keeps the two engines apart or together.
				yk := modelKeys + k
				switch op {
				case 0, 1, 2, 3:
					mixed.Do(ctx, yk, "pages", func(context.Context) (int, int64, error) { return i, cost, nil })
				case 4, 5:
					if _, ok := mixed.Get(yk); ok {
						yielded++
					}
				case 6:
					mixed.Invalidate("pages")
				}
				if got := mixed.Bytes(); got > 256 {
					t.Fatalf("seed %d step %d: %d bytes resident, budget 256", seed, i, got)
				}
				continue
			}
			var results [2][3]any
			for j, c := range []*Cache[int, int]{plain, mixed} {
				switch op {
				case 0, 1, 2, 3:
					v, hit, err := c.Do(ctx, k, tagOf(k), func(context.Context) (int, int64, error) { return i, cost, nil })
					results[j] = [3]any{v, hit, err}
				case 4, 5:
					v, ok := c.Get(k)
					results[j] = [3]any{v, ok}
				case 6:
					results[j] = [3]any{c.Invalidate(tagOf(k))}
				case 7:
					if k == 0 {
						c.Flush()
					}
				}
			}
			if results[0] != results[1] {
				t.Fatalf("seed %d step %d op %d key %d: %v without yielding traffic, %v with", seed, i, op, k, results[0], results[1])
			}
			if a, b := ordinary(plain), ordinary(mixed); !slices.Equal(a, b) {
				t.Fatalf("seed %d step %d: ordinary entries %v without yielding traffic, %v with", seed, i, a, b)
			}
		}
		if yielded == 0 {
			t.Fatalf("seed %d: no yielding entry was ever hit; the rule was not exercised", seed)
		}
	}
}

// TestFlightsChargeTheLeadersCost checks the singleflight and its one
// charging rule, first step by step through Begin/Wait/Finish, then
// with N concurrent Do calls on one key (run under -race).
func TestFlightsChargeTheLeadersCost(t *testing.T) {
	const cost = 3 * time.Millisecond
	newCtx := func() (context.Context, *simtime.Session) {
		s := simtime.NewSession()
		return simtime.With(context.Background(), s), s
	}

	t.Run("begin-wait-finish", func(t *testing.T) {
		coalesced := &obs.Counter{}
		c := New[string, string](1<<20, Metrics{Coalesced: coalesced}, nil)
		leadCtx, leadSession := newCtx()
		_, f, lead := c.Begin("k", "obj")
		if f == nil || !lead {
			t.Fatal("first Begin did not lead")
		}
		const followers = 4
		sessions := make([]*simtime.Session, followers)
		var wg sync.WaitGroup
		for i := range sessions {
			_, joined, lead := c.Begin("k", "obj")
			if joined != f || lead {
				t.Fatal("second Begin did not join the flight in progress")
			}
			ctx, s := newCtx()
			sessions[i] = s
			wg.Add(1)
			go func() {
				defer wg.Done()
				if v, err := c.Wait(ctx, joined); v != "v" || err != nil {
					t.Errorf("Wait = %q, %v", v, err)
				}
			}()
		}
		started := leadSession.Elapsed()
		simtime.Charge(leadCtx, cost)
		c.Finish(leadCtx, f, started, "v", 1, nil)
		wg.Wait()
		// The leader re-reading its own flight is not charged twice.
		if v, err := c.Wait(leadCtx, f); v != "v" || err != nil {
			t.Fatalf("leader Wait = %q, %v", v, err)
		}
		for i, s := range append(sessions, leadSession) {
			if s.Elapsed() != cost {
				t.Errorf("session %d elapsed = %v, want %v", i, s.Elapsed(), cost)
			}
		}
		if v, f, _ := c.Begin("k", "obj"); v != "v" || f != nil {
			t.Fatal("finished flight's value is not resident")
		}
	})

	t.Run("concurrent Do", func(t *testing.T) {
		hits, coalesced := &obs.Counter{}, &obs.Counter{}
		c := New[string, string](1<<20, Metrics{Hits: hits, Coalesced: coalesced}, nil)
		var loads atomic.Int64
		entered, release := make(chan struct{}), make(chan struct{})
		const workers = 8
		sessions := make([]*simtime.Session, workers)
		var wg sync.WaitGroup
		for i := range sessions {
			ctx, s := newCtx()
			sessions[i] = s
			wg.Add(1)
			go func() {
				defer wg.Done()
				v, _, err := c.Do(ctx, "k", "obj", func(ctx context.Context) (string, int64, error) {
					loads.Add(1)
					close(entered)
					<-release
					simtime.Charge(ctx, cost)
					return "v", 1, nil
				})
				if v != "v" || err != nil {
					t.Errorf("Do = %q, %v", v, err)
				}
			}()
		}
		<-entered
		time.Sleep(20 * time.Millisecond) // let followers park on the flight
		close(release)
		wg.Wait()
		if loads.Load() != 1 {
			t.Fatalf("loads = %d, want 1", loads.Load())
		}
		// Everyone is the leader, a follower, or (scheduled after the
		// load finished) a hit; only hits are free.
		if got := hits.Value() + coalesced.Value(); got != workers-1 {
			t.Fatalf("%d hits + %d coalesced, want %d", hits.Value(), coalesced.Value(), workers-1)
		}
		charged := int64(0)
		for i, s := range sessions {
			switch s.Elapsed() {
			case cost:
				charged++
			case 0:
			default:
				t.Errorf("session %d elapsed = %v, want 0 or %v", i, s.Elapsed(), cost)
			}
		}
		if charged != 1+coalesced.Value() {
			t.Fatalf("%d sessions charged, want the leader and %d followers", charged, coalesced.Value())
		}
	})
}
