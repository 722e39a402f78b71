package adaptive

import (
	"context"
	"sort"

	"rottnest/internal/component"
	"rottnest/internal/core"
	"rottnest/internal/ivfpq"
)

// IndexCandidate is one (column, kind) spec the scheduler's next index
// job covers, with its uncovered snapshot files in path order.
type IndexCandidate struct {
	core.IndexSpec
	Uncovered []string
}

// RefinePlan is a policy's choice of a progressive-refinement job.
type RefinePlan struct {
	Column   string
	IndexKey string
	Probes   [][]float32
	NProbe   int
	Opts     ivfpq.RefineOptions
}

// SchedulerPolicy is the hook the ingest scheduler consults before
// choosing work. All methods must be safe for concurrent use.
type SchedulerPolicy interface {
	// Tick runs periodic policy work (autopilot refresh), metered by
	// the scheduler as maintenance cost.
	Tick(ctx context.Context) error
	// DemotedToScan reports whether the spec's column should not be
	// indexed at all (queries scan instead).
	DemotedToScan(spec core.IndexSpec) bool
	// PlanIndex shapes the scheduler's one index job over the due
	// specs: which of each spec's uncovered files it covers
	// (IndexOptions.Only) and how coarse its vector builds are
	// (IndexOptions.IVF).
	PlanIndex(cands []IndexCandidate) core.IndexOptions
	// PlanRefine proposes a progressive IVF-PQ refinement job, or ok
	// = false when probe traffic does not warrant one.
	PlanRefine(ctx context.Context, specs []core.IndexSpec) (RefinePlan, bool)
	// PlanDemote proposes dropping an existing index whose column the
	// autopilot demoted, or ok = false.
	PlanDemote(statuses []core.IndexStatus) (core.IndexSpec, bool)
}

// PolicyOptions configure a Policy.
type PolicyOptions struct {
	// Ledger is the heat ledger fed by the serving client. Required.
	Ledger *Ledger
	// Pilot, when set, supplies per-column scan/index decisions; nil
	// never demotes.
	Pilot *Autopilot
	// Client executes metadata listings for refinement planning.
	// Required for PlanRefine.
	Client *core.Client
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

// Tick implements SchedulerPolicy.
func (p *Policy) Tick(ctx context.Context) error {
	if p.opts.Pilot == nil {
		return nil
	}
	return p.opts.Pilot.Refresh(ctx)
}

// DemotedToScan implements SchedulerPolicy.
func (p *Policy) DemotedToScan(spec core.IndexSpec) bool {
	if p.opts.Pilot == nil {
		return false
	}
	return p.opts.Pilot.Decision(spec.Column) == DecideScan
}

// PlanIndex implements SchedulerPolicy. A vector spec builds the coarse
// first pass. A spec whose backlog is partly hot covers its hottest
// hotBatch hot files and leaves the cold tail for later jobs —
// time-to-searchable for hot data beats backlog completeness; an
// all-hot or all-cold backlog indexes whole.
func (p *Policy) PlanIndex(cands []IndexCandidate) core.IndexOptions {
	var opts core.IndexOptions
	for _, cand := range cands {
		if cand.Kind == component.KindIVFPQ {
			coarse := coarseBuild
			opts.IVF = &coarse
		}
		type hot struct {
			path string
			heat uint64
		}
		var hots []hot
		for _, f := range cand.Uncovered {
			if h := p.opts.Ledger.Heat(cand.Column, f); h > 0 {
				hots = append(hots, hot{path: f, heat: h})
			}
		}
		if len(hots) == 0 || len(hots) == len(cand.Uncovered) {
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
		opts.Only[cand.IndexSpec] = paths
	}
	return opts
}

// PlanRefine implements SchedulerPolicy: once a vector column has
// accumulated refineAfterProbes new queries since its last refine,
// propose re-clustering the hottest cells of its largest index file.
func (p *Policy) PlanRefine(ctx context.Context, specs []core.IndexSpec) (RefinePlan, bool) {
	if p.opts.Client == nil {
		return RefinePlan{}, false
	}
	for _, spec := range specs {
		if spec.Kind != component.KindIVFPQ || p.DemotedToScan(spec) {
			continue
		}
		probes, nprobe, seen := p.opts.Ledger.Probes(spec.Column)
		if len(probes) == 0 || seen-p.lastRefine[spec.Column] < refineAfterProbes {
			continue
		}
		entries, err := p.opts.Client.ListIndexes(ctx, spec.Column, spec.Kind)
		if err != nil || len(entries) == 0 {
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

// PlanDemote implements SchedulerPolicy: a demoted column that still
// owns index entries gets them dropped (and flagged for vacuum).
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

var _ SchedulerPolicy = (*Policy)(nil)
