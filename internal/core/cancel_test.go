package core

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"rottnest/internal/component"
	"rottnest/internal/lake"
	"rottnest/internal/objectstore"
	"rottnest/internal/simtime"
	"rottnest/internal/workload"
)

// TestSearchPreCanceledContext checks Search fails fast with ctx.Err()
// when handed a dead context, before touching the store.
func TestSearchPreCanceledContext(t *testing.T) {
	e := newEnv(t, uuidSchema, Config{})
	gen := workload.NewUUIDGen(31)
	keys, _ := e.appendUUIDs(t, gen, 64)
	if _, err := e.cli.Index(context.Background(), "id", component.KindTrie); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.cli.Search(ctx, uuidQuery(keys[0])); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestSearchCanceledMidFlight cancels the context partway through a
// search's store reads (a fault-store script fires the cancel as a
// side effect after a few operations) and checks the search surfaces
// the cancellation instead of plowing on through the remaining reads.
func TestSearchCanceledMidFlight(t *testing.T) {
	clock := simtime.NewVirtualClock()
	mem := objectstore.NewMemStore(clock)
	ctx, cancel := context.WithCancel(context.Background())
	var opsAfterIndex atomic.Int64
	var armed atomic.Bool
	fs := objectstore.NewFaultStore(mem, func(op objectstore.Op, key string, seq int64) bool {
		if armed.Load() && opsAfterIndex.Add(1) == 3 {
			cancel()
		}
		return false // never inject a fault; the cancel is the event
	})
	table, err := lake.CreateWith(context.Background(), fs, "lake", uuidSchema, lake.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cli := NewClient(table, Config{IndexDir: "rottnest"})
	e := &env{clock: clock, mem: mem, table: table, cli: cli}
	gen := workload.NewUUIDGen(32)
	keys, _ := e.appendUUIDs(t, gen, 512)
	if _, err := cli.Index(context.Background(), "id", component.KindTrie); err != nil {
		t.Fatal(err)
	}
	armed.Store(true)
	if _, err := cli.Search(ctx, uuidQuery(keys[7])); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
