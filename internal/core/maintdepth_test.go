package core

import (
	"context"
	"testing"
	"time"

	"rottnest/internal/component"
	"rottnest/internal/lake"
	"rottnest/internal/objectstore"
	"rottnest/internal/simtime"
)

// maintain runs one maintenance call the way a stateless job does — a
// fresh table handle and a fresh default client — and returns its
// virtual latency and the requests it issued.
func (w *coldWorld) maintain(t *testing.T, call func(ctx context.Context, cli *Client) error) (time.Duration, objectstore.Snapshot) {
	t.Helper()
	session := simtime.NewSession()
	ctx := simtime.With(context.Background(), session)
	before := w.metrics.Snapshot()
	table, err := lake.OpenWith(ctx, w.store, "lake", lake.OpenOptions{Clock: w.clock})
	if err != nil {
		t.Fatal(err)
	}
	if err := call(ctx, NewClient(table, Config{IndexDir: "rottnest", Clock: w.clock})); err != nil {
		t.Fatal(err)
	}
	return session.Elapsed(), w.metrics.Snapshot().Sub(before)
}

// TestMaintenanceDepth pins how deep a maintenance call is: the
// requests it issues and the dependent levels it waits through, each
// level named — 60 ms for a LIST, 30 ms for a GET fan, 40 ms for a PUT
// or a DELETE fan, plus what the model charges for moving the uploaded
// index file (its size over the stream bandwidth) and for queueing a
// wide fan, which is the few milliseconds of slack allowed. Before
// maintenance got the pass cold queries had, the same three calls
// waited through the snapshot and then the metadata table, through
// each merge source and each of its blocks in turn, through a listing
// of the metadata log before every commit, and through one DELETE
// after another: 382 ms, 3.18 s (102 GETs) and 615 ms in this world,
// where they now take 231, 333 and 263; a vacuum retaining every
// snapshot took 817 ms and one more replay per snapshot kept.
func TestMaintenanceDepth(t *testing.T) {
	w := newColdWorld(t)
	model := w.store.Instrumented.Model()
	const (
		list = 60 * time.Millisecond
		get  = 30 * time.Millisecond
		put  = 40 * time.Millisecond
	)
	sum := func(levels ...time.Duration) (total time.Duration) {
		for _, l := range levels {
			total += l
		}
		return total
	}
	check := func(name string, elapsed, want time.Duration, reqs, wantReqs objectstore.Snapshot) {
		t.Helper()
		if elapsed < want || elapsed >= want+5*time.Millisecond {
			t.Errorf("%s: %v of virtual time, want %v", name, elapsed, want)
		}
		wantReqs.BytesRead, wantReqs.BytesWritten = reqs.BytesRead, reqs.BytesWritten
		if reqs != wantReqs {
			t.Errorf("%s: issued %d LISTs, %d GETs, %d PUTs, %d DELETEs, %d HEADs; want %d, %d, %d, %d, %d", name,
				reqs.Lists, reqs.Gets, reqs.Puts, reqs.Deletes, reqs.Heads,
				wantReqs.Lists, wantReqs.Gets, wantReqs.Puts, wantReqs.Deletes, wantReqs.Heads)
		}
	}
	// upload is what the model adds to a PUT's fixed latency for an
	// index file of that size.
	upload := func(size int64) time.Duration { return model.PutLatency(size) - model.PutTTFB }

	// Index: two new files under the trie.
	w.appendFile(t)
	w.appendFile(t)
	var size int64
	elapsed, reqs := w.maintain(t, func(ctx context.Context, cli *Client) error {
		entry, err := cli.Index(ctx, "id", component.KindTrie)
		if err == nil {
			size = entry.SizeBytes
		}
		return err
	})
	check("index", elapsed,
		sum(list /* lake log ‖ meta log */, get /* log fans */, get /* footers */, get /* column chunks */, put /* upload */, put /* commit */)+upload(size),
		reqs, objectstore.Snapshot{Lists: 2, Gets: 12, Puts: 2})

	// Compact: three FM sources.
	for i := 0; i < 2; i++ {
		if i > 0 {
			w.appendFile(t)
		}
		w.maintain(t, func(ctx context.Context, cli *Client) error {
			_, err := cli.Index(ctx, "body", component.KindFM)
			return err
		})
	}
	elapsed, reqs = w.maintain(t, func(ctx context.Context, cli *Client) error {
		merged, err := cli.Compact(ctx, "body", component.KindFM, CompactOptions{})
		if err == nil {
			if len(merged) != 1 || len(merged[0].Files) != 5 {
				t.Fatalf("compact merged %+v", merged)
			}
			size = merged[0].SizeBytes
		}
		return err
	})
	check("compact", elapsed,
		sum(list /* meta log */, get /* log fan */, get /* source tails */, get /* source manifests */, get /* every source's BWT blocks */, put /* upload */, put /* commit */)+upload(size),
		reqs, objectstore.Snapshot{Lists: 1, Gets: 15, Puts: 2})

	// Vacuum: the three sources' rows go in one commit and, an index
	// timeout later, their objects in one fan.
	w.clock.Advance(2 * time.Hour)
	elapsed, reqs = w.maintain(t, func(ctx context.Context, cli *Client) error {
		report, err := cli.Vacuum(ctx, VacuumOptions{})
		if err == nil && (len(report.DroppedEntries) != 3 || len(report.RemovedObjects) != 3) {
			t.Fatalf("vacuum report %+v", report)
		}
		return err
	})
	check("vacuum", elapsed,
		// The meta handle applied its own commit to what it remembers, so
		// the re-read is the LIST alone.
		sum(list /* lake log ‖ meta log */, get /* log fans */, put /* commit */, list /* meta log ‖ index directory */, put /* DELETE fan */),
		reqs, objectstore.Snapshot{Lists: 4, Gets: 13, Puts: 1, Deletes: 3})

	// Retaining older snapshots adds no level: they come from the same
	// listing and the same fan as the latest.
	for _, keep := range []int64{4, 1} {
		elapsed, reqs = w.maintain(t, func(ctx context.Context, cli *Client) error {
			_, err := cli.Vacuum(ctx, VacuumOptions{KeepSnapshot: keep})
			return err
		})
		// Nothing is dropped, so nothing commits, and the handle
		// remembers every metadata record at the re-read.
		if want := sum(list, get, list); elapsed < want || elapsed >= want+5*time.Millisecond || reqs.Lists != 4 {
			t.Errorf("vacuum keeping snapshots from %d: %v of virtual time and %d LISTs, want %v and 4", keep, elapsed, reqs.Lists, want)
		}
	}
}
