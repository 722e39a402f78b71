// Package bruteforce implements the paper's first baseline: scanning
// the whole data lake with a horizontally scaled query engine
// (Spark-on-EMR in the paper, Section II-C2). The cluster actually
// executes the scans against the same simulated object store Rottnest
// uses, and its virtual latency reproduces the scaling behaviour of
// Figure 8: near-linear speedup while per-query spin-up and scheduling
// overheads are amortized, then a knee where adding workers stops
// helping latency and only inflates cost.
package bruteforce

import (
	"context"
	"fmt"
	"time"

	"rottnest/internal/insitu"
	"rottnest/internal/lake"
	"rottnest/internal/parquet"
	"rottnest/internal/simtime"
)

// ClusterConfig models a scan cluster.
type ClusterConfig struct {
	// Workers is the number of worker instances.
	Workers int
	// SpinUpBase is the fixed per-query task spin-up latency
	// (driver scheduling, task launch). Defaults to 2s.
	SpinUpBase time.Duration
	// SpinUpPerWorker adds scheduling latency per worker; it is what
	// bends the scaling curve at high worker counts. Defaults to
	// 60ms.
	SpinUpPerWorker time.Duration
	// DecodeBps is each worker's decompress+scan throughput in
	// bytes/second of file data. Defaults to 200 MB/s.
	DecodeBps float64
	// StragglerFactor inflates the slowest worker's share,
	// modelling skew. Defaults to 1.15.
	StragglerFactor float64
}

func (c ClusterConfig) withDefaults() ClusterConfig {
	if c.Workers <= 0 {
		c.Workers = 8
	}
	if c.SpinUpBase <= 0 {
		c.SpinUpBase = 2 * time.Second
	}
	if c.SpinUpPerWorker <= 0 {
		c.SpinUpPerWorker = 60 * time.Millisecond
	}
	if c.DecodeBps <= 0 {
		c.DecodeBps = 200e6
	}
	if c.StragglerFactor < 1 {
		c.StragglerFactor = 1.15
	}
	return c
}

// Cluster scans a lake table.
type Cluster struct {
	table *lake.Table
	cfg   ClusterConfig
}

// NewCluster returns a scan cluster over the table.
func NewCluster(table *lake.Table, cfg ClusterConfig) *Cluster {
	return &Cluster{table: table, cfg: cfg.withDefaults()}
}

// Workers returns the configured worker count.
func (c *Cluster) Workers() int { return c.cfg.Workers }

// Report summarizes one brute-force query.
type Report struct {
	// Latency is the query's virtual wall-clock latency.
	Latency time.Duration
	// WorkerSeconds is Latency times the worker count — the resource
	// the cost model charges for.
	WorkerSeconds float64
	// BytesScanned is the total file bytes read.
	BytesScanned int64
	// FilesScanned is the number of data files read.
	FilesScanned int
}

// Scan scans the given column of every file in the snapshot with the
// predicate, exactly like a full-table Spark SQL filter. Matches from
// every file are returned; top-K truncation is the caller's concern
// (a scoring query must see everything anyway).
func (c *Cluster) Scan(ctx context.Context, snapshotVersion int64, column string, pred insitu.Predicate) ([]insitu.Match, *Report, error) {
	return c.ScanColumns(ctx, snapshotVersion, []string{column}, 0, func(vals [][]byte) (bool, float64) {
		return pred(vals[0])
	})
}

// ScanColumns scans several columns of every file at once and applies
// a row-level predicate over the tuple of values — the oracle for
// compound (multi-predicate) queries. vals passed to eval are aligned
// with columns; a nil entry means the value is absent. The returned
// Match.Value carries the column at outputIdx.
func (c *Cluster) ScanColumns(ctx context.Context, snapshotVersion int64, columns []string, outputIdx int, eval func(vals [][]byte) (bool, float64)) ([]insitu.Match, *Report, error) {
	session := simtime.From(ctx)
	start := session.Elapsed()

	if len(columns) == 0 {
		return nil, nil, fmt.Errorf("bruteforce: no columns to scan")
	}
	if outputIdx < 0 || outputIdx >= len(columns) {
		return nil, nil, fmt.Errorf("bruteforce: output index %d out of range", outputIdx)
	}
	snap, err := c.table.SnapshotAt(ctx, snapshotVersion)
	if err != nil {
		return nil, nil, err
	}
	cis := make([]int, len(columns))
	for i, col := range columns {
		cis[i] = snap.Schema.ColumnIndex(col)
		if cis[i] < 0 {
			return nil, nil, fmt.Errorf("bruteforce: column %q not in schema", col)
		}
	}

	spinUp := c.cfg.SpinUpBase + time.Duration(c.cfg.Workers)*c.cfg.SpinUpPerWorker
	session.Add(spinUp)

	report := &Report{FilesScanned: len(snap.Files)}
	files := snap.Files
	var totalBytes int64
	for _, f := range files {
		totalBytes += f.Size
	}
	report.BytesScanned = totalBytes

	// Planning wave: fetch footers and deletion vectors, and split
	// every file into row-group scan units — the task granularity
	// Spark uses for Parquet, which is what lets a scan of few large
	// files still occupy many workers.
	metas := make([]*parquet.FileMeta, len(files))
	dvs := make([]*lake.DeletionVector, len(files))
	err = simtime.Fan(ctx, len(files), c.cfg.Workers, func(ctx context.Context, i int) (err error) {
		metas[i], err = parquet.ReadFileMeta(ctx, c.table.Store(), c.table.Root()+files[i].Path)
		if err == nil {
			dvs[i], err = c.table.ReadDeletionVector(ctx, files[i])
		}
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	type unit struct {
		file     int
		group    int
		firstRow int64
	}
	var units []unit
	for fi, meta := range metas {
		var row int64
		for gi, g := range meta.RowGroups {
			units = append(units, unit{file: fi, group: gi, firstRow: row})
			row += g.NumRows
		}
	}

	outs := make([][]insitu.Match, len(units))
	// With no session the scan still runs in parallel, just without
	// virtual-time accounting.
	err = simtime.Fan(ctx, len(units), c.cfg.Workers, func(ctx context.Context, i int) error {
		u := units[i]
		f := files[u.file]
		cols := make([][][]byte, len(cis))
		var chunkBytes int64
		for k, ci := range cis {
			vals, err := parquet.ReadColumnChunk(ctx, c.table.Store(), c.table.Root()+f.Path, metas[u.file], u.group, ci)
			if err != nil {
				return err
			}
			cols[k] = vals.Bytes
			chunkBytes += metas[u.file].RowGroups[u.group].Chunks[ci].Size
		}
		n := len(cols[0])
		var ms []insitu.Match
		tuple := make([][]byte, len(cis))
		for r := 0; r < n; r++ {
			row := u.firstRow + int64(r)
			if dvs[u.file].Contains(uint32(row)) {
				continue
			}
			for k := range cols {
				if r < len(cols[k]) {
					tuple[k] = cols[k][r]
				} else {
					tuple[k] = nil
				}
			}
			if keep, score := eval(tuple); keep {
				ms = append(ms, insitu.Match{Path: f.Path, Row: row, Value: tuple[outputIdx], Score: score})
			}
		}
		outs[i] = ms
		// Decode/compute cost on top of the store's transfer time.
		simtime.Charge(ctx, time.Duration(float64(chunkBytes)/c.cfg.DecodeBps*float64(time.Second)))
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	// Straggler skew: the critical path is a bit worse than the
	// ideal even partition.
	work := session.Elapsed() - start - spinUp
	if work > 0 && c.cfg.StragglerFactor > 1 {
		session.Add(time.Duration(float64(work) * (c.cfg.StragglerFactor - 1)))
	}

	var matches []insitu.Match
	for _, ms := range outs {
		matches = append(matches, ms...)
	}
	insitu.SortMatches(matches)

	report.Latency = session.Elapsed() - start
	report.WorkerSeconds = report.Latency.Seconds() * float64(c.cfg.Workers)
	return matches, report, nil
}
