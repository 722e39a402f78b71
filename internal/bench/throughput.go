package bench

import (
	"context"
	"fmt"

	"rottnest/internal/component"
	"rottnest/internal/core"
	"rottnest/internal/simtime"
)

// ThroughputResult holds the Section VII-D3 analysis: the QPS each
// approach supports before hitting its bottleneck.
type ThroughputResult struct {
	// RequestsPerQuery is the measured GET count of one Rottnest
	// query per application.
	RequestsPerQuery map[string]int64
	// MaxQPS is the implied cap at S3's 5500 GET RPS per prefix.
	MaxQPS map[string]float64
	// QueriesFor10Months converts the cap into total queries over 10
	// months, for comparison with the phase diagrams.
	QueriesFor10Months map[string]float64
}

// Throughput reproduces the Section VII-D3 discussion: Rottnest and
// brute force are bottlenecked by S3's per-prefix GET rate (5500
// RPS). Measuring each application's requests per query gives the QPS
// cap, which the paper observes lands at 10-100 QPS — beyond the
// region where Rottnest beats the copy-data approach anyway, so the
// cap does not change any conclusion.
func Throughput(opts Options) (*ThroughputResult, error) {
	ctx := context.Background()
	out := opts.out()
	res := &ThroughputResult{
		RequestsPerQuery:   map[string]int64{},
		MaxQPS:             map[string]float64{},
		QueriesFor10Months: map[string]float64{},
	}

	uw, err := newUUIDWorld(opts.Seed+8, opts.scaleInt(16, 8), opts.scaleInt(20000, 8000), core.Config{})
	if err != nil {
		return nil, err
	}
	tw, err := newTextWorld(opts.Seed+9, opts.scaleInt(16, 8), opts.scaleInt(800, 300), core.Config{})
	if err != nil {
		return nil, err
	}
	vw, err := newVectorWorld(opts.Seed+10, opts.scaleInt(40000, 12000), 32, 4, core.Config{})
	if err != nil {
		return nil, err
	}

	type app struct {
		name    string
		world   *world
		column  string
		kind    component.Kind
		queries []core.Query
	}
	apps := []app{
		{"uuid", uw.world, "id", component.KindTrie, uw.queries(4)},
		{"substring", tw.world, "body", component.KindFM, tw.queries(4)},
		{"vector", vw.world, "emb", component.KindIVFPQ, []core.Query{
			{Column: "emb", Vector: vw.queryVs[0], K: 10, NProbe: 8, Snapshot: -1},
			{Column: "emb", Vector: vw.queryVs[1], K: 10, NProbe: 8, Snapshot: -1},
		}},
	}
	const rpsCap = 5500.0
	fmt.Fprintln(out, "# VII-D3: throughput limits from the per-prefix GET rate")
	fmt.Fprintf(out, "%-10s %-14s %-10s %-20s\n", "app", "GETs/query", "max QPS", "10-month capacity")
	for _, a := range apps {
		if _, err := a.world.indexAndCompact(ctx, a.column, a.kind); err != nil {
			return nil, err
		}
		before := a.world.store.Metrics.Snapshot()
		for _, q := range a.queries {
			session := simtime.NewSession()
			if _, err := a.world.client.Search(simtime.With(ctx, session), q); err != nil {
				return nil, err
			}
		}
		delta := a.world.store.Metrics.Snapshot().Sub(before)
		perQuery := (delta.Gets + delta.Lists + delta.Heads) / int64(len(a.queries))
		if perQuery < 1 {
			perQuery = 1
		}
		qps := rpsCap / float64(perQuery)
		tenMonths := qps * 3600 * 24 * 30 * 10
		res.RequestsPerQuery[a.name] = perQuery
		res.MaxQPS[a.name] = qps
		res.QueriesFor10Months[a.name] = tenMonths
		fmt.Fprintf(out, "%-10s %-14d %-10.0f %-20.1e\n", a.name, perQuery, qps, tenMonths)
	}
	fmt.Fprintln(out, "\n(the paper: caps of 10-100 QPS; at 10 QPS a 10-month horizon is 2.5e7 queries,")
	fmt.Fprintln(out, "already past the point where copy-data wins in Figures 7 and 9)")
	return res, nil
}
