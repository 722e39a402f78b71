package core

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"

	"rottnest/internal/component"
	"rottnest/internal/lake"
	"rottnest/internal/objectstore"
	"rottnest/internal/simtime"
	"rottnest/internal/workload"
)

// TestRetriesCoverLakeLog: a table opened on a stack with retries reads
// its lake log through them, so a search from a fresh handle and client
// outlasts a failed lake-log LIST. Retries used to come from
// Config.Retry, a layer the client put over the table's store, under
// which the lake log was read: the same search through
// Config{Retry: {Enabled: true}} over the bare faulty store failed with
// "lake: list log: objectstore: injected fault", retry.retries 0.
func TestRetriesCoverLakeLog(t *testing.T) {
	ctx := context.Background()
	e := newEnv(t, uuidSchema, Config{})
	keys, _ := e.appendUUIDs(t, workload.NewUUIDGen(5), 200)
	if _, err := e.cli.Index(ctx, "id", component.KindTrie); err != nil {
		t.Fatal(err)
	}

	var failed atomic.Bool
	failOnce := &objectstore.FaultProfile{Script: func(op objectstore.Op, key string, _ int64) bool {
		return op == objectstore.OpList && strings.HasPrefix(key, "lake/_log/") && failed.CompareAndSwap(false, true)
	}}
	stack := objectstore.NewStack(e.mem, objectstore.StackOptions{Faults: failOnce, Retry: &objectstore.RetryPolicy{}})
	table, err := lake.OpenWith(ctx, stack, "lake", lake.OpenOptions{Clock: e.clock})
	if err != nil {
		t.Fatal(err)
	}
	cli := NewClient(table, Config{IndexDir: "rottnest", Clock: e.clock})
	res, err := cli.Search(simtime.With(ctx, simtime.NewSession()), uuidQuery(keys[7]))
	if err != nil {
		t.Fatalf("search over a failed lake-log LIST: %v", err)
	}
	if len(res.Matches) != 1 {
		t.Fatalf("%d matches, want 1", len(res.Matches))
	}
	m := cli.Metrics()
	if !failed.Load() || m.Counter("fault.transient") != 1 {
		t.Fatal("the lake-log LIST fault never fired")
	}
	if got := m.Counter("retry.retries"); got != 1 {
		t.Fatalf("retry.retries = %d, want 1", got)
	}
}
