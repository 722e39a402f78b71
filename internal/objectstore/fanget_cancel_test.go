package objectstore

import (
	"context"
	"errors"
	"testing"
	"time"

	"rottnest/internal/simtime"
)

// TestFanGetPreCanceledContext checks a fan over an already-canceled
// context returns ctx.Err() without issuing any store requests.
func TestFanGetPreCanceledContext(t *testing.T) {
	s, metrics := Instrument(NewMemStore(nil), testModel())
	ctx, cancel := context.WithCancel(context.Background())
	s.Put(ctx, "a", []byte("x"))
	s.Put(ctx, "b", []byte("y"))
	before := metrics.Snapshot()
	cancel()
	_, err := FanGet(ctx, s, []RangeRequest{{Key: "a", Length: -1}, {Key: "b", Length: -1}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := metrics.Snapshot().Sub(before).Gets; got != 0 {
		t.Fatalf("canceled fan issued %d GETs", got)
	}
}

// parkedStore parks every GetRange until its context is canceled,
// then reports the cancellation — the shape of a hung remote request.
type parkedStore struct {
	Store
	entered chan struct{}
}

func (b *parkedStore) Clock() simtime.Clock { return ClockOf(b.Store) }

func (b *parkedStore) GetRange(ctx context.Context, key string, offset, length int64) ([]byte, error) {
	select {
	case b.entered <- struct{}{}:
	default:
	}
	<-ctx.Done()
	return nil, ctx.Err()
}

// TestFanGetCanceledMidFlight cancels while branch requests are parked
// inside the store: the fan must return promptly with ctx.Err()
// rather than waiting on the stuck branches' results.
func TestFanGetCanceledMidFlight(t *testing.T) {
	inner := NewMemStore(nil)
	ctx0 := context.Background()
	inner.Put(ctx0, "a", []byte("x"))
	inner.Put(ctx0, "b", []byte("y"))
	bs := &parkedStore{Store: inner, entered: make(chan struct{}, 1)}

	ctx, cancel := context.WithCancel(ctx0)
	done := make(chan error, 1)
	go func() {
		_, err := FanGet(ctx, bs, []RangeRequest{{Key: "a", Length: -1}, {Key: "b", Length: -1}})
		done <- err
	}()
	<-bs.entered // at least one branch is parked in the store
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("FanGet did not return after cancellation")
	}
}
