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
		} else {
			stepMany(t, r, k, cost)
		}
	}
	checkAgainst(t, c, m)
}

// stepMany is step's DoMany: a batch of one to four keys from k,
// stride cost%5 (so stride 0 names k every time), all tagged tagOf(k).
// The batch's load fails when cost%8 is 7 and invalidates the tag
// mid-load when it is 6. The model serves resident keys first, in
// order, then inserts the loaded ones in batch order.
func stepMany(t *testing.T, r *rig, k int, cost int64) {
	t.Helper()
	c, m := r.c, r.m
	keys := make([]int, 1+cost%4)
	for j := range keys {
		keys[j] = (k + j*int(cost%5)) % modelKeys
	}
	tag := tagOf(k)
	var want, loaded []int // want: per key, a model value or -1 for loaded
	for _, key := range keys {
		switch i := m.find(key); {
		case i >= 0:
			want = append(want, m.entries[i].val)
			m.promote(i)
		case slices.Contains(loaded, key):
			want = append(want, -1)
		default:
			want = append(want, -1)
			loaded = append(loaded, key)
		}
	}
	base := r.next + 1
	r.next += len(loaded)
	boom := errors.New("boom")
	calls := 0
	evBefore := r.evictions.Value()
	vals, err := c.DoMany(context.Background(), keys, tag, func(_ context.Context, missing []int) ([]int, []int64, error) {
		calls++
		var got []int
		for _, i := range missing {
			got = append(got, keys[i])
		}
		if !slices.Equal(got, loaded) {
			t.Fatalf("DoMany(%v) loads %v, model %v", keys, got, loaded)
		}
		switch cost % 8 {
		case 7:
			return nil, nil, boom
		case 6:
			if n := c.Invalidate(tag); n != m.invalidate(tag) {
				t.Fatalf("mid-load Invalidate dropped %d entries, model disagrees", n)
			}
		}
		out, costs := make([]int, len(missing)), make([]int64, len(missing))
		for j := range missing {
			out[j], costs[j] = base+j, cost
		}
		return out, costs, nil
	})
	if wantCalls := min(1, len(loaded)); calls != wantCalls {
		t.Fatalf("DoMany(%v) called load %d times, want %d", keys, calls, wantCalls)
	}
	wantEvicted := 0
	if len(loaded) > 0 && cost%8 == 7 {
		if !errors.Is(err, boom) {
			t.Fatalf("DoMany(%v) = %v, want the load's error", keys, err)
		}
	} else {
		if err != nil {
			t.Fatalf("DoMany(%v) = %v", keys, err)
		}
		for j, key := range keys {
			w := want[j]
			if w < 0 {
				w = base + slices.Index(loaded, key)
			}
			if vals[j] != w {
				t.Fatalf("DoMany(%v)[%d] = %d, want %d", keys, j, vals[j], w)
			}
		}
		for j, key := range loaded {
			if cost%8 != 6 {
				wantEvicted += m.insert(modelEntry{key: key, tag: tag, val: base + j, cost: cost, yield: r.yield})
			}
		}
	}
	if got := r.evictions.Value() - evBefore; got != int64(wantEvicted) {
		t.Fatalf("DoMany(%v) evicted %d, model %d", keys, got, wantEvicted)
	}
}

// TestEngineMatchesModel drives random operation sequences, single
// loads and batches, against the naive model: the budget is never
// exceeded, eviction is strictly least-recently-used, tag invalidation
// drops all and only the tagged entries, an invalidation during a load
// suppresses that insert, oversized and failed loads are served but
// not kept, a batch loads only its missing keys, once each, and Peek
// does not promote. A third of the loads insert as yielding, so all of the
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
// charging rule, first with batches that join a Do in flight, then
// with N concurrent Do calls on one key (run under -race).
func TestFlightsChargeTheLeadersCost(t *testing.T) {
	const cost = 3 * time.Millisecond
	newCtx := func() (context.Context, *simtime.Session) {
		s := simtime.NewSession()
		return simtime.With(context.Background(), s), s
	}

	t.Run("batches join a Do", func(t *testing.T) {
		coalesced := &obs.Counter{}
		c := New[string, string](1<<20, Metrics{Coalesced: coalesced}, nil)
		const followers = 4
		// Each follower's batch leads its own key and joins "k"; its
		// load runs after its batch has joined, and the leader's load
		// returns only once every follower's has run.
		leading, parked := make(chan struct{}), make(chan struct{}, followers)
		leadCtx, leadSession := newCtx()
		var led sync.WaitGroup
		led.Add(1)
		go func() {
			defer led.Done()
			v, hit, err := c.Do(leadCtx, "k", "obj", func(ctx context.Context) (string, int64, error) {
				close(leading)
				for i := 0; i < followers; i++ {
					<-parked
				}
				simtime.Charge(ctx, cost)
				return "v", 1, nil
			})
			if v != "v" || hit || err != nil {
				t.Errorf("leader Do = %q, %v, %v", v, hit, err)
			}
		}()
		<-leading
		sessions := make([]*simtime.Session, followers)
		var wg sync.WaitGroup
		for i := range sessions {
			ctx, s := newCtx()
			sessions[i] = s
			own := fmt.Sprintf("own%d", i)
			wg.Add(1)
			go func() {
				defer wg.Done()
				vals, err := c.DoMany(ctx, []string{own, "k"}, "obj", func(ctx context.Context, missing []int) ([]string, []int64, error) {
					parked <- struct{}{}
					return []string{own}, []int64{1}, nil
				})
				if err != nil || !slices.Equal(vals, []string{own, "v"}) {
					t.Errorf("DoMany = %q, %v", vals, err)
				}
			}()
		}
		wg.Wait()
		led.Wait()
		if coalesced.Value() != followers {
			t.Errorf("coalesced = %d, want %d", coalesced.Value(), followers)
		}
		for i, s := range append(sessions, leadSession) {
			if s.Elapsed() != cost {
				t.Errorf("session %d elapsed = %v, want %v", i, s.Elapsed(), cost)
			}
		}
		if v, ok := c.Peek("k"); v != "v" || !ok {
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

// TestDoManyKeyNamedTwiceLoadsOnce: a batch that names a key twice
// loads it once, serves it at both places, and charges its session the
// load once: the session that ran the load is not a follower of it.
func TestDoManyKeyNamedTwiceLoadsOnce(t *testing.T) {
	const cost = 2 * time.Millisecond
	s := simtime.NewSession()
	ctx := simtime.With(context.Background(), s)
	c := New[string, string](1<<20, Metrics{}, nil)
	var loads [][]int
	vals, err := c.DoMany(ctx, []string{"a", "b", "a"}, "obj", func(ctx context.Context, missing []int) ([]string, []int64, error) {
		loads = append(loads, missing)
		simtime.Charge(ctx, cost)
		return []string{"A", "B"}, []int64{1, 1}, nil
	})
	if err != nil || !slices.Equal(vals, []string{"A", "B", "A"}) {
		t.Fatalf("DoMany = %q, %v", vals, err)
	}
	if len(loads) != 1 || !slices.Equal(loads[0], []int{0, 1}) {
		t.Fatalf("loads = %v, want one of [0 1]", loads)
	}
	if s.Elapsed() != cost {
		t.Fatalf("elapsed = %v, want %v", s.Elapsed(), cost)
	}
}

// TestDoManyCallersLeadingEachOthersKeys: caller A's batch leads "a"
// and joins "b", which caller B leads, and B's load wants "a". Both
// finish only if A finishes its own flight before it waits on the one
// it joined; a DoMany that waits first deadlocks, and the deadline
// fails the test.
func TestDoManyCallersLeadingEachOthersKeys(t *testing.T) {
	ctx := context.Background()
	c := New[string, string](1<<20, Metrics{}, nil)
	bLoading, aLoading := make(chan struct{}), make(chan struct{})
	done := make(chan error, 2)
	go func() {
		v, _, err := c.Do(ctx, "b", "obj", func(ctx context.Context) (string, int64, error) {
			close(bLoading)
			<-aLoading
			a, _, err := c.Do(ctx, "a", "obj", func(context.Context) (string, int64, error) {
				return "", 0, errors.New("B loaded a key A leads")
			})
			return "B+" + a, 1, err
		})
		if err == nil && v != "B+A" {
			err = fmt.Errorf("B = %q", v)
		}
		done <- err
	}()
	<-bLoading
	go func() {
		vals, err := c.DoMany(ctx, []string{"a", "b"}, "obj", func(ctx context.Context, missing []int) ([]string, []int64, error) {
			if !slices.Equal(missing, []int{0}) {
				return nil, nil, fmt.Errorf("A loads %v, want [0]", missing)
			}
			close(aLoading)
			return []string{"A"}, []int64{1}, nil
		})
		if err == nil && !slices.Equal(vals, []string{"A", "B+A"}) {
			err = fmt.Errorf("A = %q", vals)
		}
		done <- err
	}()
	deadline := time.After(10 * time.Second)
	for i := 0; i < 2; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-deadline:
			t.Fatal("callers leading each other's keys did not finish: joined flights awaited before own flights finished")
		}
	}
}
