// Command rottnest is a CLI for operating Rottnest indices over a
// directory-backed lake: create a table, generate or ingest data,
// build and maintain indices, and search — the four protocol APIs
// plus table management, persisted under a local directory that
// stands in for an object-storage bucket.
//
// Typical session:
//
//	rottnest create  -store /tmp/bucket -table lake -schema "id:uuid,msg:text"
//	rottnest gen     -store /tmp/bucket -table lake -rows 10000 -batches 3
//	rottnest index   -store /tmp/bucket -table lake -column id -kind trie
//	rottnest search  -store /tmp/bucket -table lake -column msg -substring "error 17"
//	rottnest compact -store /tmp/bucket -table lake -column id -kind trie
//	rottnest vacuum  -store /tmp/bucket -table lake
//	rottnest status  -store /tmp/bucket -table lake
package main

import (
	"context"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"rottnest"
	"rottnest/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "create":
		err = cmdCreate(args)
	case "gen":
		err = cmdGen(args)
	case "ingest":
		err = cmdIngest(args)
	case "index":
		err = cmdIndex(args)
	case "search":
		err = cmdSearch(args)
	case "compact":
		err = cmdCompact(args)
	case "vacuum":
		err = cmdVacuum(args)
	case "maintain":
		err = cmdMaintain(args)
	case "lake-compact":
		err = cmdLakeCompact(args)
	case "status":
		err = cmdStatus(args)
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "rottnest: unknown command %q\n\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "rottnest %s: %v\n", cmd, err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: rottnest <command> [flags]

commands:
  create        create a lake table (-schema "id:uuid,msg:text,emb:vec:64")
  gen           append synthetic rows matching the table schema
  ingest        stream synthetic micro-batches through the group-commit writer
                [-maintain col:kind,col:kind,...] run the scheduler daemon alongside
                [-adaptive] heat-driven maintenance (hot first, cold demoted)
  index         bring one (column, kind) index up to date
  search        query (-uuid HEX | -substring S | -vector "0.1,..." | -where 'a~x AND b=HEX')
                [-shards N] [-replicas M] route through the scatter-gather serving tier
  compact       merge small index files
  vacuum        garbage-collect index files
  maintain      one pass of index + compact-if-fragmented + vacuum
  lake-compact  compact the lake's own data files
  status        show table, snapshot, and index state

common flags: -store DIR  -table PREFIX  [-index-dir PREFIX] [-retries] [-cold]`)
}

// common holds the flags every subcommand shares.
type common struct {
	fs       *flag.FlagSet
	storeDir *string
	table    *string
	indexDir *string
	retries  *bool
	cold     *bool
}

func newCommon(name string) *common {
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	return &common{
		fs:       fs,
		storeDir: fs.String("store", "", "store directory (required)"),
		table:    fs.String("table", "lake", "table key prefix"),
		indexDir: fs.String("index-dir", "", "index key prefix (default <table>-index)"),
		retries:  fs.Bool("retries", false, "retry transient store failures with bounded backoff"),
		cold:     fs.Bool("cold", false, "disable the byte, decoded-object, and plan caches (cold read path)"),
	}
}

func (c *common) parse(args []string) error {
	if err := c.fs.Parse(args); err != nil {
		return err
	}
	if *c.storeDir == "" {
		return fmt.Errorf("-store is required")
	}
	if *c.indexDir == "" {
		*c.indexDir = *c.table + "-index"
	}
	return nil
}

// stack is the store every subcommand reads through: the directory
// store, metered by a zero-latency Instrumented layer so every request
// a search issues — lake log, metadata, index and data reads alike —
// lands on its tally, and under -retries retried below that meter.
func (c *common) stack() (*rottnest.Stack, error) {
	dir, err := rottnest.NewDirStore(*c.storeDir)
	if err != nil {
		return nil, err
	}
	layers := rottnest.StackOptions{Latency: &rottnest.LatencyModel{}, CacheBytes: -1}
	if *c.retries {
		layers.Retry = &rottnest.RetryPolicy{}
	}
	return rottnest.NewStack(dir, layers), nil
}

// open opens the table over the stack, and the client over it.
func (c *common) open(ctx context.Context) (*rottnest.Table, *rottnest.Client, error) {
	store, err := c.stack()
	if err != nil {
		return nil, nil, err
	}
	table, err := rottnest.OpenTable(ctx, store, *c.table)
	if err != nil {
		return nil, nil, err
	}
	cfg := rottnest.Config{IndexDir: *c.indexDir}
	if *c.cold {
		cfg.CacheBytes = -1
		cfg.DecodedCacheBytes = -1
		cfg.PlanCacheTTLVersions = -1
	}
	client := rottnest.NewClient(table, cfg)
	return table, client, nil
}

// parseSchema parses "name:type[,name:type...]" where type is one of
// uuid, text, int, double, bool, vec:<dim>.
func parseSchema(spec string) (*rottnest.Schema, error) {
	var cols []rottnest.Column
	for _, part := range strings.Split(spec, ",") {
		fields := strings.Split(strings.TrimSpace(part), ":")
		if len(fields) < 2 {
			return nil, fmt.Errorf("bad column spec %q", part)
		}
		col := rottnest.Column{Name: fields[0]}
		switch fields[1] {
		case "uuid":
			col.Type, col.TypeLen = rottnest.TypeFixedLenByteArray, 16
		case "text":
			col.Type = rottnest.TypeByteArray
		case "int":
			col.Type = rottnest.TypeInt64
		case "double":
			col.Type = rottnest.TypeDouble
		case "bool":
			col.Type = rottnest.TypeBool
		case "vec":
			if len(fields) != 3 {
				return nil, fmt.Errorf("vec needs a dimension: %q", part)
			}
			dim, err := strconv.Atoi(fields[2])
			if err != nil || dim <= 0 {
				return nil, fmt.Errorf("bad vec dimension in %q", part)
			}
			col.Type, col.TypeLen = rottnest.TypeFixedLenByteArray, 4*dim
		default:
			return nil, fmt.Errorf("unknown type %q (uuid|text|int|double|bool|vec:<dim>)", fields[1])
		}
		cols = append(cols, col)
	}
	return rottnest.NewSchema(cols...)
}

func cmdCreate(args []string) error {
	c := newCommon("create")
	schemaSpec := c.fs.String("schema", "", `schema, e.g. "id:uuid,msg:text,emb:vec:64" (required)`)
	if err := c.parse(args); err != nil {
		return err
	}
	if *schemaSpec == "" {
		return fmt.Errorf("-schema is required")
	}
	schema, err := parseSchema(*schemaSpec)
	if err != nil {
		return err
	}
	store, err := rottnest.NewDirStore(*c.storeDir)
	if err != nil {
		return err
	}
	if _, err := rottnest.CreateTable(context.Background(), store, *c.table, schema); err != nil {
		return err
	}
	fmt.Printf("created table %s with %d columns under %s\n", *c.table, len(schema.Columns), *c.storeDir)
	return nil
}

func cmdGen(args []string) error {
	c := newCommon("gen")
	rows := c.fs.Int("rows", 10000, "rows per batch")
	batches := c.fs.Int("batches", 1, "number of batches (data files)")
	seed := c.fs.Int64("seed", time.Now().UnixNano(), "generator seed")
	if err := c.parse(args); err != nil {
		return err
	}
	ctx := context.Background()
	table, _, err := c.open(ctx)
	if err != nil {
		return err
	}
	snap, err := table.Snapshot(ctx)
	if err != nil {
		return err
	}
	gen := newSynthGen(*seed)
	for b := 0; b < *batches; b++ {
		path, err := table.Append(ctx, gen.batch(snap.Schema, *rows, b), rottnest.FileWriterOptions{})
		if err != nil {
			return err
		}
		fmt.Printf("appended %d rows -> %s\n", *rows, path)
	}
	return nil
}

// synthGen builds schema-shaped synthetic batches for gen and ingest.
type synthGen struct {
	uuids   *workload.UUIDGen
	text    *workload.TextGen
	vecGens map[int]*workload.VectorGen
	seed    int64
}

func newSynthGen(seed int64) *synthGen {
	return &synthGen{
		uuids:   workload.NewUUIDGen(seed),
		text:    workload.NewTextGen(workload.DefaultTextConfig(seed)),
		vecGens: map[int]*workload.VectorGen{},
		seed:    seed,
	}
}

func (g *synthGen) batch(schema *rottnest.Schema, rows, b int) *rottnest.Batch {
	batch := rottnest.NewBatch(schema)
	for ci, col := range schema.Columns {
		switch {
		case col.Type == rottnest.TypeFixedLenByteArray && col.TypeLen == 16:
			vals := make([][]byte, rows)
			for i := range vals {
				k := g.uuids.Next()
				vals[i] = append([]byte(nil), k[:]...)
			}
			batch.Cols[ci] = rottnest.ColumnValues{Bytes: vals}
		case col.Type == rottnest.TypeFixedLenByteArray:
			dim := col.TypeLen / 4
			vg := g.vecGens[dim]
			if vg == nil {
				vg = workload.NewVectorGen(workload.VectorConfig{Seed: g.seed, Dim: dim, Clusters: 64})
				g.vecGens[dim] = vg
			}
			vals := make([][]byte, rows)
			for i := range vals {
				vals[i] = workload.Float32sToBytes(vg.Next())
			}
			batch.Cols[ci] = rottnest.ColumnValues{Bytes: vals}
		case col.Type == rottnest.TypeByteArray:
			vals := make([][]byte, rows)
			for i := range vals {
				vals[i] = []byte(g.text.Doc())
			}
			batch.Cols[ci] = rottnest.ColumnValues{Bytes: vals}
		case col.Type == rottnest.TypeInt64:
			vals := make([]int64, rows)
			base := time.Now().Unix()
			for i := range vals {
				vals[i] = base + int64(b*rows+i)
			}
			batch.Cols[ci] = rottnest.ColumnValues{Ints: vals}
		case col.Type == rottnest.TypeDouble:
			vals := make([]float64, rows)
			for i := range vals {
				vals[i] = float64(i)
			}
			batch.Cols[ci] = rottnest.ColumnValues{Doubles: vals}
		case col.Type == rottnest.TypeBool:
			vals := make([]bool, rows)
			for i := range vals {
				vals[i] = i%2 == 0
			}
			batch.Cols[ci] = rottnest.ColumnValues{Bools: vals}
		}
	}
	return batch
}

// cmdIngest streams synthetic micro-batches through the group-commit
// writer: many producer batches land in few conditional PUTs on the
// log, and the printed counters show the amortization.
func cmdIngest(args []string) error {
	c := newCommon("ingest")
	rows := c.fs.Int("rows", 256, "rows per micro-batch")
	batches := c.fs.Int("batches", 32, "number of micro-batches")
	group := c.fs.Int("group", 8, "micro-batches per group commit")
	seed := c.fs.Int64("seed", time.Now().UnixNano(), "generator seed")
	maintain := c.fs.String("maintain", "", "run the maintenance scheduler daemon alongside ingest, keeping a comma-separated column:kind list fresh (e.g. id:trie,msg:fm)")
	adaptiveFlag := c.fs.Bool("adaptive", false, "with -maintain: heat-driven maintenance — hot columns index first, never-queried columns demote to the scan path (DESIGN.md §17)")
	if err := c.parse(args); err != nil {
		return err
	}
	ctx := context.Background()
	table, client, err := c.open(ctx)
	if err != nil {
		return err
	}
	snap, err := table.Snapshot(ctx)
	if err != nil {
		return err
	}
	w := rottnest.NewWriter(table, rottnest.WriterOptions{
		MaxBatchRows:       *rows,
		GroupCommitBatches: *group,
		Manual:             true, // commit on Flush/Close: deterministic CLI runs
	})
	var sched *rottnest.Scheduler
	runDone := make(chan error, 1)
	runCtx, stopRun := context.WithCancel(ctx)
	defer stopRun()
	if *maintain != "" {
		var specs []rottnest.IndexSpec
		for _, item := range strings.Split(*maintain, ",") {
			fields := strings.SplitN(strings.TrimSpace(item), ":", 2)
			if len(fields) != 2 || fields[0] == "" {
				return fmt.Errorf("-maintain wants a comma-separated column:kind list, got %q in %q", item, *maintain)
			}
			kind, err := parseKind(fields[1])
			if err != nil {
				return err
			}
			specs = append(specs, rottnest.IndexSpec{Column: fields[0], Kind: kind})
		}
		opts := rottnest.SchedulerOptions{
			Client: client,
			Writer: w,
			Specs:  specs,
		}
		if *adaptiveFlag {
			ledger := rottnest.NewHeatLedger(rottnest.HeatLedgerOptions{})
			client.SetHeatObserver(ledger)
			pilot := rottnest.NewAutopilot(client, ledger, specs, rottnest.AutopilotOptions{})
			opts.Adaptive = rottnest.NewAdaptivePolicy(rottnest.AdaptivePolicyOptions{
				Ledger: ledger,
				Pilot:  pilot,
				Client: client,
			})
		}
		sched = rottnest.NewScheduler(table, opts)
		go func() { runDone <- sched.Run(runCtx) }()
	} else if *adaptiveFlag {
		return fmt.Errorf("-adaptive needs -maintain")
	}
	gen := newSynthGen(*seed)
	acks := make([]*rottnest.Ack, 0, *batches)
	for b := 0; b < *batches; b++ {
		ack, err := w.Append(ctx, gen.batch(snap.Schema, *rows, b))
		if err != nil {
			return err
		}
		acks = append(acks, ack)
	}
	if err := w.Close(ctx); err != nil {
		return err
	}
	for _, ack := range acks {
		if _, err := ack.Wait(ctx); err != nil {
			return err
		}
	}
	ms := w.Registry().Snapshot()
	fmt.Printf("ingested %d rows in %d micro-batches\n",
		ms.Counter("ingest.rows_acked"), ms.Counter("ingest.batches_committed"))
	fmt.Printf("group commits (conditional PUTs on the log): %d\n",
		ms.Counter("ingest.group_commits"))
	if amb := ms.Counter("ingest.ambiguous_resolved"); amb > 0 {
		fmt.Printf("ambiguous commits resolved by read-back: %d\n", amb)
	}
	if sched != nil {
		// Stop the daemon, then converge maintenance so every ingested
		// row is index-covered before the command exits.
		stopRun()
		if err := <-runDone; err != nil && !errors.Is(err, context.Canceled) {
			return err
		}
		if err := sched.Quiesce(ctx); err != nil {
			return err
		}
		ss := sched.Registry().Snapshot()
		fmt.Printf("maintenance: %d index, %d compact, %d vacuum jobs; %d rows unindexed\n",
			ss.Counter("ingest.jobs_index"), ss.Counter("ingest.jobs_compact"),
			ss.Counter("ingest.jobs_vacuum"), ss.Gauge("ingest.rows_unindexed"))
		if demotes := ss.Counter("ingest.jobs_demote"); demotes > 0 {
			fmt.Printf("adaptive: %d column(s) demoted to the scan path (no query traffic seen)\n", demotes)
		}
	}
	version, err := table.Version(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("table at version %d\n", version)
	return nil
}

func parseKind(s string) (rottnest.IndexKind, error) {
	switch s {
	case "trie", "uuid":
		return rottnest.KindTrie, nil
	case "fm", "substring":
		return rottnest.KindFM, nil
	case "ivfpq", "vector":
		return rottnest.KindIVFPQ, nil
	default:
		return 0, fmt.Errorf("unknown kind %q (trie|fm|ivfpq)", s)
	}
}

func cmdIndex(args []string) error {
	c := newCommon("index")
	column := c.fs.String("column", "", "column to index (required)")
	kindName := c.fs.String("kind", "", "index kind: trie|fm|ivfpq (required)")
	if err := c.parse(args); err != nil {
		return err
	}
	if *column == "" || *kindName == "" {
		return fmt.Errorf("-column and -kind are required")
	}
	kind, err := parseKind(*kindName)
	if err != nil {
		return err
	}
	ctx := context.Background()
	_, client, err := c.open(ctx)
	if err != nil {
		return err
	}
	entry, err := client.Index(ctx, *column, kind)
	if err != nil {
		return err
	}
	if entry == nil {
		fmt.Println("index already up to date")
		return nil
	}
	fmt.Printf("indexed %d files (%d rows) -> %s (%d bytes)\n",
		len(entry.Files), entry.Rows, entry.IndexKey, entry.SizeBytes)
	return nil
}

func cmdSearch(args []string) error {
	c := newCommon("search")
	column := c.fs.String("column", "", "column to search (required)")
	uuidHex := c.fs.String("uuid", "", "exact 32-hex-digit UUID key")
	substring := c.fs.String("substring", "", "substring pattern")
	regex := c.fs.String("regex", "", "regular expression (driven by its required literal)")
	vector := c.fs.String("vector", "", "comma-separated floats")
	where := c.fs.String("where", "", `compound predicate tree, e.g. 'id=HEX AND (body~"err" OR body=~"warn(ing)?")'`)
	k := c.fs.Int("k", 10, "max results")
	nprobe := c.fs.Int("nprobe", 8, "vector: coarse lists to probe")
	refine := c.fs.Int("refine", 0, "vector: candidates to rerank (default 4k)")
	explain := c.fs.Bool("explain", false, "print the search's span tree (EXPLAIN ANALYZE)")
	shards := c.fs.Int("shards", 1, "scatter-gather: partition the snapshot into N contiguous file-range shards")
	replicas := c.fs.Int("replicas", 1, "scatter-gather: replica workers per shard (hedging kicks in above 1)")
	if err := c.parse(args); err != nil {
		return err
	}
	parseVec := func() ([]float32, error) {
		parts := strings.Split(*vector, ",")
		vec := make([]float32, len(parts))
		for i, p := range parts {
			f, err := strconv.ParseFloat(strings.TrimSpace(p), 32)
			if err != nil {
				return nil, fmt.Errorf("bad -vector element %q", p)
			}
			vec[i] = float32(f)
		}
		return vec, nil
	}
	if *where != "" {
		// Compound path: a boolean predicate tree, optionally conjoined
		// with a ranked vector leaf on -column.
		expr, err := rottnest.ParseWhere(*where)
		if err != nil {
			return err
		}
		if *vector != "" {
			if *column == "" {
				return fmt.Errorf("-where with -vector needs -column to name the vector column")
			}
			vec, err := parseVec()
			if err != nil {
				return err
			}
			expr = rottnest.And(rottnest.PredVector(*column, vec, *nprobe, *refine), expr)
		}
		cq := rottnest.CompoundQuery{Expr: expr, K: *k, Snapshot: -1, Output: *column}
		if *shards > 1 || *replicas > 1 {
			return runShardedSearch(c, *explain, *vector != "", *shards, *replicas,
				func(ctx context.Context, r *rottnest.ShardRouter, trace bool) (*rottnest.ShardResult, *rottnest.TraceNode, error) {
					if trace {
						return r.TraceCompound(ctx, cq)
					}
					res, err := r.SearchCompound(ctx, cq)
					return res, nil, err
				})
		}
		return runSearch(c, *explain, *vector != "", func(ctx context.Context, client *rottnest.Client, trace bool) (*rottnest.Result, *rottnest.TraceNode, error) {
			if trace {
				return client.TraceCompound(ctx, cq)
			}
			res, err := client.SearchCompound(ctx, cq)
			return res, nil, err
		})
	}
	if *column == "" {
		return fmt.Errorf("-column is required")
	}
	q := rottnest.Query{Column: *column, K: *k, Snapshot: -1, NProbe: *nprobe, Refine: *refine}
	switch {
	case *uuidHex != "":
		raw, err := hex.DecodeString(strings.ReplaceAll(*uuidHex, "-", ""))
		if err != nil || len(raw) != 16 {
			return fmt.Errorf("bad -uuid: want 32 hex digits")
		}
		var key [16]byte
		copy(key[:], raw)
		q.UUID = &key
	case *substring != "":
		q.Substring = []byte(*substring)
	case *regex != "":
		q.Regex = *regex
	case *vector != "":
		vec, err := parseVec()
		if err != nil {
			return err
		}
		q.Vector = vec
	default:
		return fmt.Errorf("one of -uuid, -substring, -regex, -vector, -where is required")
	}
	if *shards > 1 || *replicas > 1 {
		return runShardedSearch(c, *explain, q.Vector != nil, *shards, *replicas,
			func(ctx context.Context, r *rottnest.ShardRouter, trace bool) (*rottnest.ShardResult, *rottnest.TraceNode, error) {
				if trace {
					return r.Trace(ctx, q)
				}
				res, err := r.Search(ctx, q)
				return res, nil, err
			})
	}
	return runSearch(c, *explain, q.Vector != nil, func(ctx context.Context, client *rottnest.Client, trace bool) (*rottnest.Result, *rottnest.TraceNode, error) {
		if trace {
			return client.Trace(ctx, q)
		}
		res, err := client.Search(ctx, q)
		return res, nil, err
	})
}

// runShardedSearch routes one search through a scatter-gather router
// at N shards × M replicas; -explain renders the scatter tree
// (router.plan → router.scatter{router.shard...} → router.merge).
func runShardedSearch(c *common, explain, scored bool, shards, replicas int, do func(ctx context.Context, r *rottnest.ShardRouter, trace bool) (*rottnest.ShardResult, *rottnest.TraceNode, error)) error {
	ctx := context.Background()
	store, err := c.stack()
	if err != nil {
		return err
	}
	opts := rottnest.ShardOptions{
		Shards:   shards,
		Replicas: replicas,
		IndexDir: *c.indexDir,
	}
	if replicas > 1 {
		opts.Hedge = rottnest.HedgeOptions{Enabled: true}
	}
	if *c.cold {
		opts.CacheBytes = -1
		opts.DecodedCacheBytes = -1
		opts.PlanCacheTTLVersions = -1
	}
	r, err := rottnest.NewShardRouter(ctx, store, *c.table, opts)
	if err != nil {
		return err
	}
	start := time.Now()
	res, tree, err := do(ctx, r, explain)
	if tree != nil {
		if rerr := rottnest.RenderTrace(os.Stdout, tree); rerr != nil {
			return rerr
		}
	}
	if err != nil {
		return err
	}
	fmt.Printf("%d match(es) in %v via %d shard(s) x %d replica(s) (snapshot %d, %d scattered, hedges %d/%d won)\n",
		len(res.Matches), time.Since(start).Round(time.Millisecond), shards, replicas,
		res.Stats.Version, res.Stats.Shards, res.Stats.HedgeWins, res.Stats.Hedges)
	printMatches(res.Matches, scored)
	return nil
}

// printMatches renders the result rows shared by the single-node and
// sharded search paths.
func printMatches(matches []rottnest.Match, scored bool) {
	for i, m := range matches {
		val := m.Value
		if len(val) > 80 {
			val = val[:80]
		}
		if scored {
			fmt.Printf("%3d. %s row %d  dist=%.4f\n", i+1, m.Path, m.Row, m.Score)
		} else {
			fmt.Printf("%3d. %s row %d  %q\n", i+1, m.Path, m.Row, val)
		}
	}
}

// runSearch opens the client, executes one search (traced under
// -explain), and prints the result summary and matches.
func runSearch(c *common, explain, scored bool, do func(ctx context.Context, client *rottnest.Client, trace bool) (*rottnest.Result, *rottnest.TraceNode, error)) error {
	ctx := context.Background()
	_, client, err := c.open(ctx)
	if err != nil {
		return err
	}
	start := time.Now()
	res, tree, err := do(ctx, client, explain)
	if tree != nil {
		if rerr := rottnest.RenderTrace(os.Stdout, tree); rerr != nil {
			return rerr
		}
	}
	if err != nil {
		return err
	}
	fmt.Printf("%d match(es) in %v (index files: %d, pages probed: %d, files scanned: %d)\n",
		len(res.Matches), time.Since(start).Round(time.Millisecond),
		res.Stats.IndexFiles, res.Stats.PagesProbed, res.Stats.FilesScanned)
	// The process runs one search, so the client's cache, retry and
	// coalescing totals are that search's.
	m := client.Metrics()
	fmt.Printf("reads: %d GETs, %.1f KB (cache: %d hits, %d misses, %.1f KB saved)\n",
		res.Stats.GETs, float64(res.Stats.BytesRead)/1e3,
		m.Counter("cache.hits"), m.Counter("cache.misses"), float64(m.Counter("cache.bytes_saved"))/1e3)
	if explain {
		// Planner savings: pages the probes nominated, pages the page-set
		// intersection pruned before any fetch, and probes answered by a
		// shared flight or the probe memo instead of executing.
		fmt.Printf("plan: %d candidate pages, %d pruned by intersection, %d probes coalesced\n",
			res.Stats.PagesCandidate, res.Stats.PagesPruned, m.Counter("search.probe_coalesced"))
		// Cost-based AND staging: whether cheap leaves ran first, and
		// whether their empty intersection let the executor skip the
		// expensive probes entirely.
		if res.Stats.OrderedAND {
			if res.Stats.ShortCircuited {
				fmt.Printf("plan: AND ordered by cost, short-circuited (%d expensive probes skipped)\n",
					res.Stats.LeavesSkipped)
			} else {
				fmt.Printf("plan: AND ordered by cost, no short-circuit\n")
			}
		}
	}
	if retries := m.Counter("retry.retries"); retries > 0 {
		fmt.Printf("retries: %d (%d throttle waits)\n", retries, m.Counter("retry.throttle_waits"))
	}
	printMatches(res.Matches, scored)
	return nil
}

func cmdCompact(args []string) error {
	c := newCommon("compact")
	column := c.fs.String("column", "", "column (required)")
	kindName := c.fs.String("kind", "", "index kind (required)")
	smaller := c.fs.Int64("smaller-than", 0, "only merge index files below this size in bytes (0 = all)")
	if err := c.parse(args); err != nil {
		return err
	}
	if *column == "" || *kindName == "" {
		return fmt.Errorf("-column and -kind are required")
	}
	kind, err := parseKind(*kindName)
	if err != nil {
		return err
	}
	ctx := context.Background()
	_, client, err := c.open(ctx)
	if err != nil {
		return err
	}
	merged, err := client.Compact(ctx, *column, kind, rottnest.CompactOptions{SmallerThanBytes: *smaller})
	if err != nil {
		return err
	}
	if len(merged) == 0 {
		fmt.Println("nothing to compact")
		return nil
	}
	for _, e := range merged {
		fmt.Printf("merged -> %s covering %d files (%d bytes)\n", e.IndexKey, len(e.Files), e.SizeBytes)
	}
	return nil
}

func cmdVacuum(args []string) error {
	c := newCommon("vacuum")
	keep := c.fs.Int64("keep-snapshot", -1, "oldest lake snapshot version to keep searchable")
	if err := c.parse(args); err != nil {
		return err
	}
	ctx := context.Background()
	_, client, err := c.open(ctx)
	if err != nil {
		return err
	}
	report, err := client.Vacuum(ctx, rottnest.VacuumOptions{KeepSnapshot: *keep})
	if err != nil {
		return err
	}
	fmt.Printf("dropped %d metadata entries, removed %d objects, kept %d entries\n",
		len(report.DroppedEntries), len(report.RemovedObjects), report.KeptEntries)
	return nil
}

func cmdLakeCompact(args []string) error {
	c := newCommon("lake-compact")
	smaller := c.fs.Int64("smaller-than", 1<<40, "merge data files below this size in bytes")
	targetRows := c.fs.Int64("target-rows", 1<<20, "rows per output file")
	if err := c.parse(args); err != nil {
		return err
	}
	ctx := context.Background()
	table, _, err := c.open(ctx)
	if err != nil {
		return err
	}
	paths, err := table.Compact(ctx, *smaller, *targetRows)
	if err != nil {
		return err
	}
	if len(paths) == 0 {
		fmt.Println("nothing to compact")
		return nil
	}
	fmt.Printf("rewrote lake into %d file(s): %v\n", len(paths), paths)
	return nil
}

func cmdStatus(args []string) error {
	c := newCommon("status")
	if err := c.parse(args); err != nil {
		return err
	}
	ctx := context.Background()
	table, client, err := c.open(ctx)
	if err != nil {
		return err
	}
	snap, err := table.Snapshot(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("table %s @ version %d: %d files, %d live rows\n",
		*c.table, snap.Version, len(snap.Files), snap.LiveRows())
	var bytes int64
	for _, f := range snap.Files {
		bytes += f.Size
	}
	fmt.Printf("  data: %.2f MB\n", float64(bytes)/1e6)
	statuses, err := client.Status(ctx)
	if err != nil {
		return err
	}
	if len(statuses) == 0 {
		fmt.Println("  no indices")
		return nil
	}
	for _, st := range statuses {
		fmt.Printf("  index column=%s kind=%d: %d files (%.1f KB), covers %d/%d lake files, %d stale refs, %d redundant\n",
			st.Column, st.Kind, st.Entries, float64(st.IndexBytes)/1024,
			st.CoveredFiles, st.CoveredFiles+st.UnindexedFiles, st.StaleRefs, st.RedundantEntries)
	}
	return nil
}

// cmdMaintain runs one automated maintenance pass: index new files,
// compact when fragmented, vacuum when stale.
func cmdMaintain(args []string) error {
	c := newCommon("maintain")
	column := c.fs.String("column", "", "column (required)")
	kindName := c.fs.String("kind", "", "index kind (required)")
	threshold := c.fs.Int("compact-at", 8, "compact once this many index files accumulate")
	if err := c.parse(args); err != nil {
		return err
	}
	if *column == "" || *kindName == "" {
		return fmt.Errorf("-column and -kind are required")
	}
	kind, err := parseKind(*kindName)
	if err != nil {
		return err
	}
	ctx := context.Background()
	_, client, err := c.open(ctx)
	if err != nil {
		return err
	}
	report, err := client.Maintain(ctx, rottnest.MaintainPolicy{CompactWhenEntries: *threshold},
		rottnest.IndexSpec{Column: *column, Kind: kind})
	if err != nil {
		return err
	}
	fmt.Printf("indexed %d, compacted %d", len(report.Indexed), report.Compacted)
	if report.Vacuum != nil {
		fmt.Printf(", vacuum dropped %d entries / removed %d objects",
			len(report.Vacuum.DroppedEntries), len(report.Vacuum.RemovedObjects))
	}
	fmt.Println()
	return nil
}
