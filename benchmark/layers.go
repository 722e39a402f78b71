package main

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"rottnest/internal/obs"
)

// traceInput is what a workload hands to the per-layer pass of a
// traced run.
type traceInput struct {
	rec *recorder
	w   *world
	ls  *loadStats
	win *window
	// prog is the program's own counters over the window's queries
	// (Client.Metrics deltas); the layers they describe are flagged as
	// program-made counts in README.md.
	prog   obs.Snapshot
	ingest *ingestStats
}

// progSum adds up the Metrics of clients that live for one operation.
type progSum struct {
	mu  sync.Mutex
	sum obs.Snapshot
}

func (p *progSum) add(s obs.Snapshot) {
	p.mu.Lock()
	p.sum = obs.Merge(p.sum, obs.Snapshot{Counters: s.Counters})
	p.mu.Unlock()
}

// traceLayers fills the per-layer metrics of a traced run from three
// sources: the store spans of the traced operations, the layer drive,
// and the program's own counters. It writes the trace.
func traceLayers(ctx context.Context, cfg runConfig, res *runResult, in traceInput) error {
	layer := res.layer
	for _, d := range perLayerMetrics {
		layer[d.Name] = 0 // a layer the workload does not exercise reports 0
	}
	classWall, err := opLayers(layer, in)
	if err != nil {
		return err
	}
	programLayers(layer, in)
	in.w.store.setSleeping(true)
	d, err := runDrive(ctx, in.w, in.rec, layer)
	in.w.store.setSleeping(false)
	if err != nil {
		return fmt.Errorf("layer drive: %w", err)
	}
	d.unattributed(layer, classWall)
	return in.rec.writeJSONL(filepath.Join(cfg.outDir, cfg.workload+".trace.jsonl"))
}

// opLayers derives the objectstore and core rows from the spans of the
// traced operations, and the benchmark's own rows. It returns the
// median wall time of the traced operations per class.
func opLayers(layer map[string]float64, in traceInput) ([nClasses]float64, error) {
	var classWall [nClasses]float64
	spans := in.rec.snapshot()
	byParent := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			byParent[s.Parent] = append(byParent[s.Parent], s)
		}
	}
	self := selfTimes(spans)

	var (
		count                 [nOpKinds]float64
		kb                    [nOpKinds]float64
		wait, trips, above    []float64
		classWait, classTrips [nClasses][]float64
		tracedWall, plainWall [nClasses][]float64
		fanMax                int
	)
	for _, s := range in.win.samples {
		c := s.q.class
		if !s.traced {
			plainWall[c] = append(plainWall[c], ms(s.wall))
			continue
		}
		tracedWall[c] = append(tracedWall[c], ms(s.wall))
		var ivs []interval
		for _, ch := range byParent[s.root] {
			ivs = append(ivs, interval{ch.Start, ch.End})
			for k, name := range opNames {
				if ch.Name == "store."+name {
					count[k]++
					kb[k] += float64(ch.Bytes) / 1024
				}
			}
		}
		w, t, fan := busy(ivs)
		// Time blocked on the store plus time above it is the
		// operation's wall time: the two are computed independently
		// (union of request intervals; root span minus its children).
		if diff := time.Duration(w+self[s.root]) - s.wall; diff > time.Microsecond || diff < -time.Microsecond {
			return classWall, fmt.Errorf("op %d: store wait %v + above-store %v != wall %v", s.root, time.Duration(w), time.Duration(self[s.root]), s.wall)
		}
		wait = append(wait, float64(w)/1e6)
		trips = append(trips, float64(t))
		above = append(above, float64(self[s.root])/1e6)
		classWait[c] = append(classWait[c], float64(w)/1e6)
		classTrips[c] = append(classTrips[c], float64(t))
		if fan > fanMax {
			fanMax = fan
		}
	}
	n := float64(len(wait))
	if n == 0 {
		return classWall, fmt.Errorf("traced run recorded no operation")
	}
	for k, name := range opNames {
		layer["objectstore."+name+"s_per_op"] = count[k] / n
	}
	layer["objectstore.get_kb_per_op"] = kb[opGet] / n
	layer["objectstore.put_kb_per_op"] = kb[opPut] / n
	layer["objectstore.wait_ms_per_op"] = mean(wait)
	layer["objectstore.round_trips_per_op"] = mean(trips)
	layer["objectstore.fan_width_max"] = float64(fanMax)
	layer["objectstore.errors"] = float64(in.w.store.errs.Load())
	layer["core.above_store_ms_per_op"] = mean(above)
	var overhead []float64
	for c := class(0); c < nClasses; c++ {
		layer["objectstore.wait_ms_"+classNames[c]] = mean(classWait[c])
		layer["objectstore.round_trips_"+classNames[c]] = mean(classTrips[c])
		classWall[c] = median(tracedWall[c])
		if plain := median(plainWall[c]); plain > 0 {
			overhead = append(overhead, (classWall[c]/plain-1)*100)
		}
	}
	layer["benchmark.trace_overhead_pct"] = mean(overhead)
	all := latencies(in.win.samples, nClasses)
	tail := tailPercentile(len(all))
	layer["benchmark.samples"] = float64(len(all))
	layer["benchmark.tail_percentile"] = tail
	layer["benchmark.tail_ms"] = percentile(all, tail)
	if in.ingest != nil {
		layer["benchmark.generator_late_ms_max"] = ms(in.ingest.lateMax)
	}
	return classWall, nil
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// programLayers fills the rows that come from counters the program
// keeps itself, and from the timings of the world's own load.
func programLayers(layer map[string]float64, in traceInput) {
	p := in.prog
	n := int64(len(in.win.samples))
	hits, misses := p.Counter("cache.hits"), p.Counter("cache.misses")
	layer["objectstore.cache_hit_ratio"] = ratio(hits, hits+misses)
	layer["objectstore.cache_evictions_per_op"] = ratio(p.Counter("cache.evictions"), n)
	layer["objectstore.cache_coalesced_per_op"] = ratio(p.Counter("cache.coalesced_gets"), n)
	hits, misses = p.Counter("objcache.hits"), p.Counter("objcache.misses")
	layer["objcache.hit_ratio"] = ratio(hits, hits+misses)
	layer["objcache.evictions_per_op"] = ratio(p.Counter("objcache.evictions"), n)
	layer["objcache.invalidations"] = float64(p.Counter("objcache.invalidations"))
	hits, misses = p.Counter("search.plan_cache_hits"), p.Counter("search.plan_cache_misses")
	layer["core.plan_cache_hit_ratio"] = ratio(hits, hits+misses)
	runs, coalesced := p.Counter("search.probe_runs"), p.Counter("search.probe_coalesced")
	layer["core.probe_coalesced_ratio"] = ratio(coalesced, runs+coalesced)
	layer["core.pages_probed_per_query"] = ratio(p.Counter("search.pages_probed"), p.Counter("search.queries"))
	layer["core.alloc_kb_per_query"] = in.win.allocKB / float64(n)

	bt := in.ls.bt
	layer["core.index_s"] = sumDurations(bt.index).Seconds()
	layer["core.compact_s"] = sumDurations(bt.compact).Seconds()
	layer["core.vacuum_s"] = bt.vacuum.Seconds()

	layer["ingest.ack_p95_ms"] = percentile(in.ls.acks, 95)
	layer["ingest.lag_p95_ms"] = percentile(in.ls.lags, 95)
	writer := in.ls.writer
	if st := in.ingest; st != nil {
		writer = st.prog
		layer["ingest.drain_s"] = st.drain.Seconds()
		layer["ingest.jobs_index"] = float64(st.prog.Counter("ingest.jobs_index"))
		layer["ingest.jobs_compact"] = float64(st.prog.Counter("ingest.jobs_compact"))
		layer["ingest.jobs_vacuum"] = float64(st.prog.Counter("ingest.jobs_vacuum"))
		layer["ingest.sched_pauses"] = float64(st.prog.Counter("ingest.sched_pauses"))
		layer["ingest.budget_waits"] = float64(st.prog.Counter("ingest.budget_waits"))
		// Counted by the delayStore under the scheduler's context, not
		// by the scheduler: without an Instrumented store its own
		// job_requests counter stays 0.
		layer["ingest.job_requests"] = float64(st.maintenance.Requests())
		layer["ingest.on_covered_missing"] = float64(st.covered - st.onCovered)
	}
	layer["ingest.backpressure_waits"] = float64(writer.Counter("ingest.backpressure_waits"))
	batches, commits := writer.Counter("ingest.batches_committed"), writer.Counter("ingest.group_commits")
	layer["ingest.batches_per_commit"] = ratio(batches, commits)
	layer["lake.commits_per_batch"] = ratio(commits, batches)
}
