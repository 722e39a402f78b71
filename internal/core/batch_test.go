package core

import (
	"context"
	"fmt"
	"math"
	"testing"
	"time"

	"rottnest/internal/component"
)

// TestFMWaveQueuesAreBounded pins the probe batcher's resource bound
// for a long-running maintenance daemon: index files churn through
// index → compact → vacuum, every generation is probed, and the
// per-index wave queues must not accumulate one entry per index key
// ever seen — at rest there are at most as many as live FM index
// files.
func TestFMWaveQueuesAreBounded(t *testing.T) {
	ctx := context.Background()
	e := newEnv(t, textSchema, Config{Timeout: time.Hour})
	const rounds = 6
	for round := 0; round < rounds; round++ {
		docs := make([]string, 200)
		for i := range docs {
			docs[i] = fmt.Sprintf("round %d document %d carries token r%dd%d", round, i, round, i)
		}
		e.appendDocs(t, docs)
		if _, err := e.cli.Index(ctx, "body", component.KindFM); err != nil {
			t.Fatal(err)
		}
		probe := func() {
			t.Helper()
			q := Query{Column: "body", Substring: []byte(fmt.Sprintf("token r%dd7", round)), Snapshot: -1}
			if res, err := e.cli.Search(ctx, q); err != nil || len(res.Matches) == 0 {
				t.Fatalf("round %d probe = %v, %v", round, res, err)
			}
		}
		probe() // the fresh index file
		if _, err := e.cli.Compact(ctx, "body", component.KindFM, CompactOptions{}); err != nil {
			t.Fatal(err)
		}
		probe() // the merged index file
		e.clock.Advance(2 * time.Hour)
		if _, err := e.cli.Vacuum(ctx, VacuumOptions{}); err != nil {
			t.Fatal(err)
		}
		live, err := e.cli.ListIndexes(ctx, "body", component.KindFM)
		if err != nil {
			t.Fatal(err)
		}
		e.cli.batch.qmu.Lock()
		queues := len(e.cli.batch.fqueues)
		e.cli.batch.qmu.Unlock()
		if queues > len(live) {
			t.Fatalf("round %d: %d FM wave queues for %d live FM index files", round, queues, len(live))
		}
	}
}

// TestVectorProbeKeyBytes: the batcher key of a vector probe is
// byte-identical to its fmt spelling — "v:nprobe:maxCands:" and eight
// lowercase hex digits per component's bits — so which probes share a
// memo entry cannot move.
func TestVectorProbeKeyBytes(t *testing.T) {
	vec := []float32{0, float32(math.Copysign(0, -1)), 1, -1, 0.1, -3.5e-39, math.MaxFloat32,
		float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()), 1e-45}
	for _, tc := range []struct {
		vec              []float32
		nprobe, maxCands int
	}{{nil, 0, 0}, {vec[:1], 1, 1}, {vec, 8, 40}, {vec, 123456, -7}} {
		want := fmt.Sprintf("v:%d:%d:", tc.nprobe, tc.maxCands)
		for _, f := range tc.vec {
			want += fmt.Sprintf("%08x", math.Float32bits(f))
		}
		if got := vectorProbeKey(tc.vec, tc.nprobe, tc.maxCands); got != want {
			t.Errorf("vectorProbeKey(%v, %d, %d) = %q, want %q", tc.vec, tc.nprobe, tc.maxCands, got, want)
		}
	}
}
