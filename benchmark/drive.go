package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"time"

	"rottnest/internal/adaptive"
	"rottnest/internal/component"
	"rottnest/internal/core"
	"rottnest/internal/insitu"
	"rottnest/internal/lake"
	"rottnest/internal/meta"
	"rottnest/internal/objcache"
	"rottnest/internal/objectstore"
	"rottnest/internal/parquet"
	"rottnest/internal/postings"
	"rottnest/internal/shard"
)

// The layer drive: a fixed sequence of calls into each layer's public
// functions on the world the workload built, each call a span. It
// measures layers from outside, so it can only see what the public
// functions show; spans inside the program are a later change.
const (
	driveOp   = int64(1) << 40 // operation id of every drive span
	driveReps = 3              // cold calls per measurement; the median is reported
	driveRows = 1000           // rows of the first file the build and merge calls use
	cpuLoops  = 200            // iterations of the in-memory calls; the mean is reported
)

type drive struct {
	w    *world
	rec  *recorder
	root int64
	// t holds the median time in ms of the cold calls that make up a
	// cold query's path, for the unattributed rows.
	t map[string]float64
}

// callStats is what one drive call cost.
type callStats struct {
	dur   time.Duration
	store objectstore.Snapshot
	trips int
}

// call runs fn as one span under the drive's root, with a tally and a
// scope of its own, and reports its time, its requests and how many
// dependent round trips they made.
func (d *drive) call(ctx context.Context, name string, fn func(context.Context) error) (callStats, error) {
	id := d.rec.newID()
	tl := &objectstore.Metrics{}
	sc := &scope{op: driveOp, parent: id, rec: d.rec, tally: tl}
	start := time.Now()
	err := fn(withScope(ctx, sc))
	end := time.Now()
	d.rec.add(span{ID: id, Parent: d.root, Op: driveOp, Name: name}, start, end)
	if err != nil {
		return callStats{}, fmt.Errorf("%s: %w", name, err)
	}
	var ivs []interval
	for _, s := range d.rec.snapshot() {
		if s.Parent == id {
			ivs = append(ivs, interval{s.Start, s.End})
		}
	}
	_, trips, _ := busy(ivs)
	return callStats{dur: end.Sub(start), store: tl.Snapshot(), trips: trips}, nil
}

// cold runs prepare (untimed, may be nil) then the timed call driveReps
// times and returns the median time in ms and the last repetition's
// request counts, which repeat exactly.
func (d *drive) cold(ctx context.Context, name string, prepare, fn func(ctx context.Context, rep int) error) (msMedian float64, last callStats, err error) {
	var times []float64
	for rep := 0; rep < driveReps; rep++ {
		if prepare != nil {
			if err := prepare(ctx, rep); err != nil {
				return 0, callStats{}, fmt.Errorf("%s: prepare: %w", name, err)
			}
		}
		last, err = d.call(ctx, name, func(ctx context.Context) error { return fn(ctx, rep) })
		if err != nil {
			return 0, callStats{}, err
		}
		times = append(times, ms(last.dur))
	}
	return median(times), last, nil
}

// loop times n back-to-back in-memory calls as one span and returns
// the mean in ns.
func (d *drive) loop(ctx context.Context, name string, n int, fn func(ctx context.Context) error) (float64, error) {
	st, err := d.call(ctx, name, func(ctx context.Context) error {
		for i := 0; i < n; i++ {
			if err := fn(ctx); err != nil {
				return err
			}
		}
		return nil
	})
	return float64(st.dur) / float64(n), err
}

// coldStore is what a fresh client reads indexes through: an empty
// byte cache (with its range coalescing) over the delayed store.
func (d *drive) coldStore() objectstore.Store {
	return objectstore.NewCachedStore(d.w.store, objectstore.CacheOptions{})
}

// target is one committed index file of a kind, with its manifest and
// a generated file it covers.
type target struct {
	entry    meta.IndexEntry
	manifest core.Manifest
	file     *fileData
	fileIdx  int // index of file in the manifest
}

// pages is the page table of the target's file.
func (t *target) pages() parquet.PageTable { return t.manifest.Files[t.fileIdx].Pages }

// targets finds, per kind, the largest committed index file that
// covers a generated file. It reads through the bare store.
func (d *drive) targets(ctx context.Context) (map[component.Kind]*target, error) {
	entries, err := meta.New(d.w.bare, nil, indexDir+"/_meta/").List(ctx)
	if err != nil {
		return nil, err
	}
	byPath := make(map[string]*fileData)
	for _, f := range d.w.files {
		byPath[f.path] = f
	}
	out := make(map[component.Kind]*target)
	for _, e := range entries {
		if t := out[e.Kind]; t != nil && t.entry.SizeBytes >= e.SizeBytes {
			continue
		}
		r, err := component.Open(ctx, d.w.bare, e.IndexKey, component.OpenOptions{})
		if err != nil {
			return nil, err
		}
		raw, err := r.Component(ctx, 0)
		if err != nil {
			return nil, err
		}
		t := &target{entry: e}
		if err := json.Unmarshal(raw, &t.manifest); err != nil {
			return nil, fmt.Errorf("manifest of %s: %w", e.IndexKey, err)
		}
		for i, mf := range t.manifest.Files {
			if f := byPath[mf.Path]; f != nil {
				t.file, t.fileIdx = f, i
				out[e.Kind] = t
				break
			}
		}
	}
	for _, k := range kindDrivers {
		if out[k.kind] == nil {
			return nil, fmt.Errorf("no committed %s index covers a generated file", k.name)
		}
	}
	return out, nil
}

// runDrive runs the whole drive under one root span and fills the
// layer-drive rows. It returns the drive for the unattributed rows.
func runDrive(ctx context.Context, w *world, rec *recorder, layer map[string]float64) (*drive, error) {
	d := &drive{w: w, rec: rec, t: make(map[string]float64), root: rec.newID()}
	start := time.Now()
	defer func() { rec.add(span{ID: d.root, Op: driveOp, Name: "drive"}, start, time.Now()) }()

	tg, err := d.targets(ctx)
	if err != nil {
		return nil, err
	}
	steps := []func(context.Context, map[string]float64, map[component.Kind]*target) error{
		d.caches, d.lakeAndMeta, d.components, d.indexes, d.buildAndMerge,
		d.parquetAndInsitu, d.inMemory, d.router,
	}
	for _, step := range steps {
		if err := step(ctx, layer, tg); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// dataKey is the object key of a generated file.
func dataKey(f *fileData) string { return tableRoot + "/" + f.path }

// driveBatch is the first driveRows rows of the first generated file.
func (d *drive) driveBatch() *parquet.Batch {
	src := d.w.files[0].batch
	n := min(driveRows, src.NumRows())
	b := parquet.NewBatch(lakeSchema)
	for i := range b.Cols {
		b.Cols[i] = src.Cols[i].Slice(0, n)
	}
	return b
}

// caches drives the byte cache and the decoded-object cache directly.
func (d *drive) caches(ctx context.Context, layer map[string]float64, _ map[component.Kind]*target) error {
	key := dataKey(d.w.files[0])
	cs := objectstore.NewCachedStore(d.w.store, objectstore.CacheOptions{})
	missMS, _, err := d.cold(ctx, "objectstore.cache_miss", nil, func(ctx context.Context, rep int) error {
		_, err := cs.GetRange(ctx, key, int64(rep)*(4<<10), 64<<10)
		return err
	})
	if err != nil {
		return err
	}
	layer["objectstore.cache_miss_ns"] = missMS * 1e6
	layer["objectstore.cache_hit_ns"], err = d.loop(ctx, "objectstore.cache_hit", cpuLoops, func(ctx context.Context) error {
		_, err := cs.GetRange(ctx, key, 0, 64<<10)
		return err
	})
	if err != nil {
		return err
	}
	oc := objcache.New(0)
	decode := func(context.Context) (any, int64, error) { return key, 64, nil }
	layer["objcache.do_hit_ns"], err = d.loop(ctx, "objcache.do_hit", cpuLoops, func(ctx context.Context) error {
		_, err := oc.Do(ctx, "drive", key, decode)
		return err
	})
	return err
}

// lakeAndMeta opens the table and the metadata table the way a fresh
// client does, and appends to scratch copies of both.
func (d *drive) lakeAndMeta(ctx context.Context, layer map[string]float64, _ map[component.Kind]*target) error {
	var (
		err error
		st  callStats
	)
	d.t["lake"], st, err = d.cold(ctx, "lake.open_snapshot", nil, func(ctx context.Context, _ int) error {
		t, err := lake.OpenWith(ctx, d.w.store, tableRoot, lake.OpenOptions{})
		if err != nil {
			return err
		}
		_, err = t.Snapshot(ctx)
		return err
	})
	if err != nil {
		return err
	}
	layer["lake.open_snapshot_ms"], layer["lake.open_snapshot_gets"] = d.t["lake"], float64(st.store.Gets)

	// A scratch table on the same store takes the appends, so the
	// world the other calls read stays as the workload left it.
	if _, err := lake.CreateWith(ctx, d.w.bare, "drive-lake", lakeSchema, lake.OpenOptions{}); err != nil {
		return err
	}
	scratch, err := lake.OpenWith(ctx, d.w.store, "drive-lake", lake.OpenOptions{})
	if err != nil {
		return err
	}
	// An append is a staged file and a commit; time them apart.
	batch := d.driveBatch()
	var pending lake.PendingFile
	writeMS, _, err := d.cold(ctx, "lake.write_file", nil, func(ctx context.Context, _ int) error {
		var err error
		pending, err = scratch.WriteFile(ctx, batch, fileOptions)
		return err
	})
	if err != nil {
		return err
	}
	commitMS, _, err := d.cold(ctx, "lake.commit",
		func(ctx context.Context, rep int) (err error) {
			if rep > 0 { // the last timed write staged the first file
				pending, err = scratch.WriteFile(ctx, batch, fileOptions)
			}
			return err
		},
		func(ctx context.Context, _ int) error {
			_, err := scratch.CommitFiles(ctx, pending)
			return err
		})
	if err != nil {
		return err
	}
	layer["lake.commit_ms"], layer["lake.append_ms"] = commitMS, writeMS+commitMS

	d.t["meta"], st, err = d.cold(ctx, "meta.list", nil, func(ctx context.Context, _ int) error {
		_, err := meta.New(d.coldStore(), nil, indexDir+"/_meta/").List(ctx)
		return err
	})
	if err != nil {
		return err
	}
	layer["meta.list_ms"], layer["meta.list_gets"] = d.t["meta"], float64(st.store.Gets)
	scratchMeta := meta.New(d.w.store, nil, "drive-meta/")
	layer["meta.insert_ms"], _, err = d.cold(ctx, "meta.insert", nil, func(ctx context.Context, rep int) error {
		return scratchMeta.Insert(ctx, meta.IndexEntry{
			IndexKey: fmt.Sprintf("drive-meta/files/%d", rep), Kind: component.KindTrie, Column: "id",
			Files: []string{"data/none.rpq"}, Rows: 1, SizeBytes: 1,
		})
	})
	return err
}

// components opens the largest index file cold, fans eight component
// reads, and builds a component file.
func (d *drive) components(ctx context.Context, layer map[string]float64, tg map[component.Kind]*target) error {
	key := tg[component.KindFM].entry.IndexKey
	var r *component.Reader
	open := func(ctx context.Context, _ int) (err error) {
		r, err = component.Open(ctx, d.coldStore(), key, component.OpenOptions{})
		return err
	}
	var (
		err error
		st  callStats
	)
	d.t["component"], st, err = d.cold(ctx, "component.open", nil, open)
	if err != nil {
		return err
	}
	layer["component.open_ms"], layer["component.open_gets"] = d.t["component"], float64(st.store.Gets)
	ids := make([]int, 0, 8)
	for i := 0; i < 8 && i < r.NumComponents(); i++ {
		ids = append(ids, i)
	}
	layer["component.components_fan_ms"], _, err = d.cold(ctx, "component.components_fan", open,
		func(ctx context.Context, _ int) error {
			_, err := r.Components(ctx, ids)
			return err
		})
	if err != nil {
		return err
	}
	chunks := d.driveBatch().Cols[1].Bytes
	raw := 0
	for _, v := range chunks {
		raw += len(v)
	}
	st, err = d.call(ctx, "component.build", func(context.Context) error {
		b := component.NewBuilder(component.KindFM)
		b.AddAll(chunks)
		_, err := b.Finish()
		return err
	})
	if err != nil {
		return err
	}
	layer["component.build_mb_per_s"] = float64(raw) / 1e6 / st.dur.Seconds()
	return nil
}

// indexes opens each kind's index and probes it: against a cold handle
// for the round trips, then again with everything in memory for the
// CPU.
func (d *drive) indexes(ctx context.Context, layer map[string]float64, tg map[component.Kind]*target) error {
	for _, k := range kindDrivers {
		t := tg[k.kind]
		var (
			r  *component.Reader
			ix any
		)
		reopen := func(ctx context.Context, _ int) (err error) {
			r, err = component.Open(ctx, d.coldStore(), t.entry.IndexKey, component.OpenOptions{})
			return err
		}
		open := func(ctx context.Context, _ int) (err error) {
			ix, err = k.open(ctx, r)
			return err
		}
		var err error
		d.t[k.name+".open"], _, err = d.cold(ctx, k.name+".open", reopen, open)
		if err != nil {
			return err
		}
		layer[k.name+".open_ms"] = d.t[k.name+".open"]
		var st callStats
		d.t[k.name+".probe"], st, err = d.cold(ctx, k.name+".probe",
			func(ctx context.Context, rep int) error {
				if err := reopen(ctx, rep); err != nil {
					return err
				}
				return open(ctx, rep)
			},
			func(ctx context.Context, rep int) error { return k.lookup(ctx, ix, t.file, rep) })
		if err != nil {
			return err
		}
		layer[k.name+".probe_ms"] = d.t[k.name+".probe"]
		layer[k.name+".probe_gets"] = float64(st.store.Gets)
		layer[k.name+".probe_round_trips"] = float64(st.trips)
		// The handle and its cache now hold everything the last probe
		// touched: the same probe again is CPU only.
		ns, err := d.loop(ctx, k.name+".probe_cpu", 20, func(ctx context.Context) error {
			return k.lookup(ctx, ix, t.file, driveReps-1)
		})
		if err != nil {
			return err
		}
		layer[k.name+".probe_cpu_us"] = ns / 1e3
	}
	return nil
}

// buildAndMerge builds each kind's index over the first driveRows rows
// of the first file, then over its two halves, and merges the halves.
// It also sets each kind's committed size against its column's raw
// bytes.
func (d *drive) buildAndMerge(ctx context.Context, layer map[string]float64, _ map[component.Kind]*target) error {
	f := d.w.files[0]
	n := min(driveRows, len(f.keys))
	_, _, perKind, err := d.w.sizes(ctx)
	if err != nil {
		return err
	}
	rows := 0
	for _, wf := range d.w.files {
		rows += len(wf.keys)
	}
	rawPerKind := map[component.Kind]int64{
		component.KindTrie:  16 * int64(rows),
		component.KindIVFPQ: 4 * vecDim * int64(rows),
	}
	rawPerKind[component.KindFM] = d.w.rawBytes() - rawPerKind[component.KindTrie] - rawPerKind[component.KindIVFPQ]

	for _, k := range kindDrivers {
		layer[k.name+".index_bytes_per_data_byte"] = float64(perKind[k.kind]) / float64(rawPerKind[k.kind])
		var raw int
		st, err := d.call(ctx, k.name+".build", func(context.Context) (err error) {
			_, raw, err = k.build(f, 0, n)
			return err
		})
		if err != nil {
			return err
		}
		layer[k.name+".build_mb_per_s"] = float64(raw) / 1e6 / st.dur.Seconds()

		// The halves are written through the bare store: only the merge
		// is measured.
		var keys [2]string
		for h, bounds := range [2][2]int{{0, n / 2}, {n / 2, n}} {
			data, _, err := k.build(f, bounds[0], bounds[1])
			if err != nil {
				return err
			}
			keys[h] = fmt.Sprintf("drive-index/%s-%d", k.name, h)
			if err := d.w.bare.Put(ctx, keys[h], data); err != nil {
				return err
			}
		}
		st, err = d.call(ctx, k.name+".merge", func(ctx context.Context) error {
			store := d.coldStore()
			var halves [2]any
			for h, key := range keys {
				r, err := component.Open(ctx, store, key, component.OpenOptions{})
				if err != nil {
					return err
				}
				if halves[h], err = k.open(ctx, r); err != nil {
					return err
				}
			}
			return k.merge(ctx, halves[0], halves[1])
		})
		if err != nil {
			return err
		}
		layer[k.name+".merge_mb_per_s"] = float64(raw) / 1e6 / st.dur.Seconds()
	}
	return nil
}

// parquetAndInsitu writes, scans and reads pages of a data file, and
// probes pages in situ the way the executor does after an index
// lookup.
func (d *drive) parquetAndInsitu(ctx context.Context, layer map[string]float64, tg map[component.Kind]*target) error {
	batch := d.driveBatch()
	raw := 0
	for _, col := range batch.Cols {
		for _, v := range col.Bytes {
			raw += len(v)
		}
	}
	var fileBytes int
	st, err := d.call(ctx, "parquet.write", func(context.Context) error {
		fw := parquet.NewFileWriter(lakeSchema, fileOptions)
		if err := fw.Append(batch); err != nil {
			return err
		}
		data, _, err := fw.Close()
		fileBytes = len(data)
		return err
	})
	if err != nil {
		return err
	}
	layer["parquet.write_mb_per_s"] = float64(raw) / 1e6 / st.dur.Seconds()
	layer["parquet.file_bytes_per_raw_byte"] = float64(fileBytes) / float64(raw)

	// The trie target's file: its body column, its key pages, and the
	// pages of one needled row.
	t := tg[component.KindTrie]
	f, key := t.file, dataKey(t.file)
	bodyRaw := 0
	for _, v := range f.batch.Cols[1].Bytes {
		bodyRaw += len(v)
	}
	scanMS, _, err := d.cold(ctx, "parquet.scan_column", nil, func(ctx context.Context, _ int) error {
		_, _, _, err := parquet.ScanColumn(ctx, d.coldStore(), key, 1)
		return err
	})
	if err != nil {
		return err
	}
	layer["parquet.scan_column_mb_per_s"] = float64(bodyRaw) / 1e6 / (scanMS / 1e3)

	idPages := t.pages()
	eight := idPages[:min(8, len(idPages))]
	warm := d.coldStore()
	readPages := func(ctx context.Context) error {
		_, err := parquet.ReadPages(ctx, warm, key, lakeSchema.Columns[0], eight)
		return err
	}
	if err := readPages(ctx); err != nil { // fills the cache, untimed
		return err
	}
	ns, err := d.loop(ctx, "parquet.read_pages", 50, readPages)
	if err != nil {
		return err
	}
	layer["parquet.read_pages_us"] = ns / 1e3

	row := int64(f.needleRows[0])
	want, needle := f.keys[row], []byte(f.needle)
	idPage := idPages[idPages.FindRow(row)]
	var stats callStats
	d.t["insitu.probe"], stats, err = d.cold(ctx, "insitu.probe_pages", nil, func(ctx context.Context, _ int) error {
		matches, err := insitu.ProbePages(ctx, d.coldStore(), key, lakeSchema.Columns[0], f.path, []parquet.PageInfo{idPage}, nil,
			func(v []byte) (bool, float64) { return bytes.Equal(v, want[:]), 0 })
		if err == nil && len(matches) != 1 {
			err = fmt.Errorf("found %d rows, want 1", len(matches))
		}
		return err
	})
	if err != nil {
		return err
	}
	layer["insitu.probe_pages_ms"], layer["insitu.probe_pages_gets"] = d.t["insitu.probe"], float64(stats.store.Gets)

	// The compound evaluator over the key's page and the needle's page
	// of the same row; the body page comes from the FM index's manifest.
	var bodyPages []parquet.PageInfo
	for _, mf := range tg[component.KindFM].manifest.Files {
		if mf.Path == f.path {
			bodyPages = append(bodyPages, mf.Pages[mf.Pages.FindRow(row)])
		}
	}
	cols := []insitu.ColumnRead{
		{Name: "id", Col: lakeSchema.Columns[0], ColIdx: 0, Pages: []parquet.PageInfo{idPage}},
		{Name: "body", Col: lakeSchema.Columns[1], ColIdx: 1, Pages: bodyPages, Scan: len(bodyPages) == 0},
	}
	d.t["insitu.eval"], _, err = d.cold(ctx, "insitu.eval_pages", nil, func(ctx context.Context, _ int) error {
		matches, _, err := insitu.EvalPages(ctx, d.coldStore(), key, f.path, cols,
			[]postings.RowRange{{Lo: row, Hi: row + 1}}, nil,
			func(_ int64, vals [][]byte) (bool, float64) {
				return bytes.Equal(vals[0], want[:]) && bytes.Contains(vals[1], needle), 0
			}, 0)
		if err == nil && len(matches) != 1 {
			err = fmt.Errorf("found %d rows, want 1", len(matches))
		}
		return err
	})
	if err != nil {
		return err
	}
	layer["insitu.eval_pages_ms"] = d.t["insitu.eval"]

	layer["insitu.scan_file_ms"], _, err = d.cold(ctx, "insitu.scan_file", nil, func(ctx context.Context, _ int) error {
		matches, err := insitu.ScanFile(ctx, d.coldStore(), key, 1, f.path, nil,
			func(v []byte) (bool, float64) { return bytes.Contains(v, needle), 0 })
		if err == nil && len(matches) != 2 {
			err = fmt.Errorf("found %d rows, want 2", len(matches))
		}
		return err
	})
	return err
}

// inMemory times the set algebra, list decoding, top-k merge and heat
// ledger: pure CPU on fixed inputs.
func (d *drive) inMemory(ctx context.Context, layer map[string]float64, _ map[component.Kind]*target) error {
	a := make([]postings.RowRange, 1024)
	b := make([]postings.RowRange, 1024)
	refs := make([]postings.PageRef, 1024)
	for i := range a {
		a[i] = postings.RowRange{Lo: int64(i) * 10, Hi: int64(i)*10 + 5}
		b[i] = postings.RowRange{Lo: int64(i)*10 + 3, Hi: int64(i)*10 + 8}
		refs[i] = postings.PageRef{File: uint32(i / 64), Page: uint32(i % 64)}
	}
	list := postings.AppendList(nil, refs)
	lists := [][]insitu.Match{make([]insitu.Match, topK), make([]insitu.Match, topK)}
	for i := 0; i < topK; i++ {
		lists[0][i] = insitu.Match{Path: "a", Row: int64(i), Score: float64(2 * i)}
		lists[1][i] = insitu.Match{Path: "b", Row: int64(i), Score: float64(2*i + 1)}
	}
	ledger := adaptive.NewLedger(adaptive.LedgerOptions{})
	unit := core.QueryHeat{Column: "id", Kind: component.KindTrie}
	for _, f := range d.w.files[:min(8, len(d.w.files))] {
		unit.Files = append(unit.Files, core.HeatFile{Path: f.path, Rows: int64(len(f.keys)), Covered: true})
	}
	heat := core.SearchHeat{Units: []core.QueryHeat{unit}, Latency: time.Millisecond}

	var sink int
	timed := []struct {
		metric string
		fn     func()
	}{
		{"postings.intersect_ns", func() { sink += len(postings.IntersectRanges(a, b)) }},
		{"postings.union_ns", func() { sink += len(postings.UnionRanges(a, b)) }},
		{"postings.decode_list_ns", func() {
			out, _, _ := postings.DecodeList(list)
			sink += len(out)
		}},
		{"shard.merge_topk_ns", func() { sink += len(shard.MergeTopK(lists, topK)) }},
		{"adaptive.ledger_observe_ns", func() { ledger.ObserveSearch(heat) }},
	}
	for _, tm := range timed {
		ns, err := d.loop(ctx, tm.metric, cpuLoops, func(context.Context) error { tm.fn(); return nil })
		if err != nil {
			return err
		}
		layer[tm.metric] = ns
	}
	if sink == 0 {
		return fmt.Errorf("in-memory calls produced nothing")
	}
	return nil
}

// router compares a hot key lookup through a 2-shard router with the
// same lookup through a plain client.
func (d *drive) router(ctx context.Context, layer map[string]float64, tg map[component.Kind]*target) error {
	rt, err := shard.New(ctx, d.w.store, tableRoot, shard.Options{Shards: 2, Replicas: 1, IndexDir: indexDir})
	if err != nil {
		return err
	}
	cli, err := d.w.newClient(ctx, d.w.store, core.Config{})
	if err != nil {
		return err
	}
	// Few queries: the router goes to the store for every one (see
	// README.md, defects), so each costs round trips even when hot.
	f := tg[component.KindTrie].file
	queries := make([]core.Query, 4)
	for i := range queries {
		k := f.keys[i*11%len(f.keys)]
		queries[i] = core.Query{Column: "id", UUID: &k, K: topK, Snapshot: -1}
	}
	pass := func(search func(context.Context, core.Query) error) func(context.Context) error {
		return func(ctx context.Context) error {
			for _, q := range queries {
				if err := search(ctx, q); err != nil {
					return err
				}
			}
			return nil
		}
	}
	viaRouter := pass(func(ctx context.Context, q core.Query) error { _, err := rt.Search(ctx, q); return err })
	viaClient := pass(func(ctx context.Context, q core.Query) error { _, err := cli.Search(ctx, q); return err })
	// A first pass warms both; it is untimed.
	if err := viaRouter(ctx); err != nil {
		return err
	}
	if err := viaClient(ctx); err != nil {
		return err
	}
	routerNS, err := d.loop(ctx, "shard.router_search", 2, viaRouter)
	if err != nil {
		return err
	}
	clientNS, err := d.loop(ctx, "core.client_search", 2, viaClient)
	if err != nil {
		return err
	}
	layer["shard.router_overhead_ms"] = (routerNS - clientNS) / float64(len(queries)) / 1e6
	return nil
}

// unattributed sets, per class, the traced operations' median wall
// time against the sum of the drive's times for the calls on that
// class's cold path. The difference is what the drive does not see:
// planning, overlap the executor arranges, and drift between the two.
func (d *drive) unattributed(layer map[string]float64, classWall [nClasses]float64) {
	common := d.t["lake"] + d.t["meta"] + d.t["component"]
	path := [nClasses]float64{
		classUUID:      common + d.t["trie.open"] + d.t["trie.probe"] + d.t["insitu.probe"],
		classSubstring: common + d.t["fmindex.open"] + d.t["fmindex.probe"] + d.t["insitu.probe"],
		classVector:    common + d.t["ivfpq.open"] + d.t["ivfpq.probe"] + d.t["insitu.probe"],
		classCompound: common + d.t["trie.open"] + d.t["trie.probe"] +
			d.t["fmindex.open"] + d.t["fmindex.probe"] + d.t["insitu.eval"],
	}
	for c := class(0); c < nClasses; c++ {
		layer["core.unattributed_"+classNames[c]+"_ms"] = classWall[c] - path[c]
	}
}
