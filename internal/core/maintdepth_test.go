package core

import (
	"context"
	"testing"
	"time"

	"rottnest/internal/component"
	"rottnest/internal/lake"
	"rottnest/internal/objectstore"
	"rottnest/internal/parquet"
	"rottnest/internal/simtime"
	"rottnest/internal/workload"
)

// maintain runs one maintenance call the way a stateless job does — a
// fresh table handle and a fresh default client — and returns its
// virtual latency and the requests it issued.
func (w *coldWorld) maintain(t *testing.T, call func(ctx context.Context, cli *Client) error) (time.Duration, objectstore.Snapshot) {
	t.Helper()
	session := simtime.NewSession()
	ctx := simtime.With(context.Background(), session)
	before := w.metrics.Snapshot()
	table, err := lake.OpenWith(ctx, w.store, "lake", lake.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := call(ctx, NewClient(table, Config{IndexDir: "rottnest"})); err != nil {
		t.Fatal(err)
	}
	return session.Elapsed(), w.metrics.Snapshot().Sub(before)
}

// logDepthRow logs one measured operation as a row of the table make
// maint-table prints: its LISTs, GETs, PUTs, DELETEs and virtual ms.
func logDepthRow(t *testing.T, op string, elapsed time.Duration, reqs objectstore.Snapshot) {
	t.Helper()
	t.Logf("| %s | %s | %d | %d | %d | %d | %.1f |", t.Name(), op, reqs.Lists, reqs.Gets, reqs.Puts, reqs.Deletes, float64(elapsed)/float64(time.Millisecond))
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
		logDepthRow(t, name, elapsed, reqs)
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

// TestMaintenanceDepthUnitStore pins maintenance depth as counts, on a
// store where every request costs one unit of virtual time and moves
// bytes for free, so a call's virtual time over the unit is the number
// of dependent round trips it waited through. One long-lived client
// indexes three 1500-document files, each on its own; the last Index
// call — one new file beside two covered ones — takes five levels:
// the plan's LIST (the client's handles remember both logs, so no log
// fan), the footer, the column chunks, the upload and the commit. The
// FM Compact of the three sources takes four: the LIST, the sources
// read whole (each is under component.WholeFileBytes: the daemon's
// small-file regime), the upload and the commit. Reading only each
// source's 256 KiB tail left its manifest and its BWT blocks to two
// more levels and 50 GETs; before maintenance read in fans, each GET
// was a level of its own: 15 and 56.
func TestMaintenanceDepthUnitStore(t *testing.T) {
	const unit = time.Millisecond
	w := newExpWorld(t, objectstore.LatencyModel{GetTTFB: unit, PutTTFB: unit, ListTTFB: unit}, textSchema, Config{})
	depth := func(call func(ctx context.Context) error) (getCount, levels int64) {
		s := simtime.NewSession()
		getCount = gets(t, func(ctx context.Context) error { return call(simtime.With(ctx, s)) })
		return getCount, int64(s.Elapsed() / unit)
	}
	docs := workload.NewTextGen(workload.DefaultTextConfig(expSeed + 6))
	var indexGETs, indexLevels int64
	for i := 0; i < 3; i++ {
		w.appendColumns(t, parquet.WriterOptions{RowGroupRows: 256, PageBytes: 32 << 10}, strBytes(docs.Docs(1500)))
		indexGETs, indexLevels = depth(func(ctx context.Context) error {
			_, err := w.cli.Index(ctx, "body", component.KindFM)
			return err
		})
	}
	if indexGETs != 7 || indexLevels != 5 {
		t.Errorf("index: %d GETs over %d levels, want 7 over 5", indexGETs, indexLevels)
	}
	compactGETs, compactLevels := depth(func(ctx context.Context) error {
		_, err := w.cli.Compact(ctx, "body", component.KindFM, CompactOptions{})
		return err
	})
	if compactGETs != 3 || compactLevels != 4 {
		t.Errorf("compact of three FM sources: %d GETs over %d levels, want 3 over 4", compactGETs, compactLevels)
	}
}
