package adaptive

import (
	"sort"
	"time"

	"rottnest/internal/component"
	"rottnest/internal/core"
	"rottnest/internal/ivfpq"
	"rottnest/internal/lake"
	"rottnest/internal/meta"
)

// RefinePlan is a policy's choice of a progressive-refinement job.
type RefinePlan struct {
	Column   string
	IndexKey string
	Probes   [][]float32
	NProbe   int
	Opts     ivfpq.RefineOptions
}

// PolicyOptions configure a Policy.
type PolicyOptions struct {
	// Ledger is the heat ledger fed by the serving client. Required.
	Ledger *Ledger
	// Pilot, when set, supplies per-column scan/index decisions; nil
	// never demotes.
	Pilot *Autopilot
	// Refine tunes the refinement pass itself.
	Refine ivfpq.RefineOptions
}

// hotBatch caps how many hot files of one spec an index job covers.
const hotBatch = 64

// refineAfterProbes is how many new vector queries a column must see
// between refine passes.
const refineAfterProbes = 8

// coarseBuild is the cheap first-pass build for vector indexes: a
// low-nlist, few-iteration configuration that refinement improves.
var coarseBuild = ivfpq.BuildOptions{NList: 32, KMeansIters: 4, TrainSample: 4096}

// Policy is the heat-driven scheduler policy: an index job covers the
// hot files of a partly hot backlog first, vector indexes build coarse
// then refine from probe traffic, and autopilot-demoted columns skip
// indexing.
type Policy struct {
	opts       PolicyOptions
	lastRefine map[string]uint64 // probesSeen at last proposed refine
}

// NewPolicy returns a policy over the ledger (and optional pilot).
func NewPolicy(opts PolicyOptions) *Policy {
	return &Policy{opts: opts, lastRefine: make(map[string]uint64)}
}

// Observe takes one maintenance step's observation: the time, and the
// snapshot and index statuses read at it (core.StatusOf). It refreshes
// the autopilot's verdicts from them, as RefreshEvery paces it, and
// reports for each status whether its column is demoted to the scan
// path. It issues no request.
func (p *Policy) Observe(now time.Time, snap *lake.Snapshot, statuses []core.IndexStatus) []bool {
	if p.opts.Pilot != nil {
		p.opts.Pilot.Refresh(now, snap, statuses)
	}
	demoted := make([]bool, len(statuses))
	for i, st := range statuses {
		demoted[i] = p.DemotedToScan(core.IndexSpec{Column: st.Column, Kind: st.Kind})
	}
	return demoted
}

// DemotedToScan reports whether the spec's column should not be
// indexed at all (queries scan instead), by the autopilot's last
// verdicts.
func (p *Policy) DemotedToScan(spec core.IndexSpec) bool {
	if p.opts.Pilot == nil {
		return false
	}
	return p.opts.Pilot.Decision(spec.Column) == DecideScan
}

// PlanIndex shapes the scheduler's one index job over the due specs'
// statuses: which of each one's uncovered files it covers
// (IndexOptions.Only) and how coarse its vector builds are
// (IndexOptions.IVF). A vector spec builds the coarse first pass. A
// spec whose backlog is partly hot covers its hottest hotBatch hot
// files and leaves the cold tail for later jobs — time-to-searchable
// for hot data beats backlog completeness; an all-hot or all-cold
// backlog indexes whole.
func (p *Policy) PlanIndex(due []core.IndexStatus) core.IndexOptions {
	var opts core.IndexOptions
	for _, st := range due {
		if st.Kind == component.KindIVFPQ {
			coarse := coarseBuild
			opts.IVF = &coarse
		}
		type hot struct {
			path string
			heat uint64
		}
		var hots []hot
		for _, f := range st.Uncovered {
			if h := p.opts.Ledger.Heat(st.Column, f); h > 0 {
				hots = append(hots, hot{path: f, heat: h})
			}
		}
		if len(hots) == 0 || len(hots) == len(st.Uncovered) {
			continue
		}
		sort.Slice(hots, func(a, b int) bool {
			if hots[a].heat != hots[b].heat {
				return hots[a].heat > hots[b].heat
			}
			return hots[a].path < hots[b].path
		})
		paths := make([]string, min(len(hots), hotBatch))
		for i := range paths {
			paths[i] = hots[i].path
		}
		if opts.Only == nil {
			opts.Only = make(map[core.IndexSpec][]string)
		}
		opts.Only[core.IndexSpec{Column: st.Column, Kind: st.Kind}] = paths
	}
	return opts
}

// PlanRefine proposes a progressive IVF-PQ refinement job over the
// metadata entries the step observed, or ok = false when probe traffic
// does not warrant one: once a vector column has accumulated
// refineAfterProbes new queries since its last refine, it re-clusters
// the hottest cells of the column's largest index file.
func (p *Policy) PlanRefine(specs []core.IndexSpec, observed []meta.IndexEntry) (RefinePlan, bool) {
	for _, spec := range specs {
		if spec.Kind != component.KindIVFPQ || p.DemotedToScan(spec) {
			continue
		}
		probes, nprobe, seen := p.opts.Ledger.Probes(spec.Column)
		if len(probes) == 0 || seen-p.lastRefine[spec.Column] < refineAfterProbes {
			continue
		}
		entries := meta.EntriesFor(observed, spec.Column, spec.Kind)
		if len(entries) == 0 {
			continue
		}
		// Refine the entry covering the most rows: it serves the bulk
		// of probe traffic. Deterministic tie-break by key.
		best := 0
		for i := 1; i < len(entries); i++ {
			if entries[i].Rows > entries[best].Rows ||
				(entries[i].Rows == entries[best].Rows && entries[i].IndexKey < entries[best].IndexKey) {
				best = i
			}
		}
		// Mark on propose, not on completion: a failed refine retries
		// only after fresh probe traffic, so a persistent failure
		// cannot starve index jobs.
		p.lastRefine[spec.Column] = seen
		return RefinePlan{
			Column:   spec.Column,
			IndexKey: entries[best].IndexKey,
			Probes:   probes,
			NProbe:   nprobe,
			Opts:     p.opts.Refine,
		}, true
	}
	return RefinePlan{}, false
}

// PlanDemote proposes dropping an existing index whose column the
// autopilot demoted, or ok = false: a demoted column that still owns
// index entries gets them dropped (and flagged for vacuum).
// Entries are only dropped for never-queried columns — a column whose
// operating point drifted back into the scan region merely stops
// getting new index jobs, so a rate oscillating around the phase
// boundary cannot thrash drop/rebuild cycles.
func (p *Policy) PlanDemote(statuses []core.IndexStatus) (core.IndexSpec, bool) {
	if p.opts.Pilot == nil {
		return core.IndexSpec{}, false
	}
	for _, st := range statuses {
		spec := core.IndexSpec{Column: st.Column, Kind: st.Kind}
		if st.Entries > 0 && p.DemotedToScan(spec) && !p.opts.Ledger.EverQueried(st.Column) {
			return spec, true
		}
	}
	return core.IndexSpec{}, false
}
