GO ?= go

.PHONY: build test check benchmark-test bench-alloc fuzz-smoke trace-smoke bench-build bench-fig13 bench-serve bench-multi bench-sharded bench-planner bench-ingest bench-adaptive benchgate vulncheck

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# check is the PR gate: vet, formatting, the race detector over every
# package, and a short fuzz pass over the byte-level decoders. The
# experiment shape tests in internal/bench skip themselves under -race
# (their thresholds mix in real wall-clock CPU time, which race
# instrumentation inflates) and so does the FM allocation budget in
# internal/fmindex (race builds empty sync.Pool at random), so they
# get a separate plain run.
check:
	$(GO) vet ./...
	@fmt_out="$$(gofmt -l .)"; if [ -n "$$fmt_out" ]; then \
		echo "gofmt needed on:"; echo "$$fmt_out"; exit 1; fi
	$(GO) test -race ./...
	$(GO) test ./internal/bench/ ./internal/fmindex/
	$(MAKE) benchmark-test
	$(MAKE) bench-alloc
	$(MAKE) trace-smoke
	$(MAKE) fuzz-smoke
	$(MAKE) bench-build
	$(MAKE) bench-fig13
	$(MAKE) bench-serve
	$(MAKE) bench-multi
	$(MAKE) bench-sharded
	$(MAKE) bench-planner
	$(MAKE) bench-ingest
	$(MAKE) bench-adaptive
	$(MAKE) benchgate
	$(MAKE) vulncheck

# benchmark-test vets and tests the wall-clock benchmark. benchmark/
# is a module of its own that imports rottnest/internal/..., so the
# root "go build ./... && go test ./..." never compiles it: without
# this target an internal signature change first fails in the
# benchmark pipeline instead of here.
benchmark-test:
	cd benchmark && $(GO) vet . && $(GO) test .

# bench-alloc compiles and runs the allocation benchmarks (the only
# ones reporting allocs/op): warm queries per class, the set algebra
# and read planner on synthetic candidate sets, the range operations,
# one 64 KiB page through the page decoder per codec and shape, and
# IVF-PQ and FM builds and three-source merges at the wall-clock
# benchmark's sizes, with SA-IS beside its oracle (three iterations:
# the large ones take a second or two each). Nothing is gated here —
# the FM build's bytes per text byte are, by TestFMAllocBudget; a PR
# that claims an allocation change quotes these numbers at its parent
# and at its head.
bench-alloc:
	$(GO) test -run '^$$' -bench 'WarmSearch|FilterRanges|PlanReads|UnionRanges|IntersectRanges|DecodePage' -benchtime 50x ./internal/core ./internal/postings ./internal/parquet
	$(GO) test -run '^$$' -bench 'IVFPQBuild|IVFPQMerge' -benchtime 3x ./internal/ivfpq
	$(GO) test -run '^$$' -bench 'FMBuild|FMMerge|SuffixArray' -benchtime 3x ./internal/fmindex

# fuzz-smoke runs each fuzz target briefly (native Go fuzzing allows
# one -fuzz pattern per package invocation): corrupted bytes must
# error, never panic, the SA-IS builder must agree with its
# prefix-doubling oracle, and the pruned nearest-centroid search with
# the exhaustive scan. -run pins each invocation to its own seed
# corpus: fuzz builds carry coverage instrumentation, which would skew
# the timing-sensitive shape tests (they run uninstrumented above).
fuzz-smoke:
	$(GO) test -fuzz=FuzzTrieNodeDecode -run '^FuzzTrieNodeDecode$$' -fuzztime=10s ./internal/trie/
	$(GO) test -fuzz=FuzzPageDecode -run '^FuzzPageDecode$$' -fuzztime=10s ./internal/parquet/
	$(GO) test -fuzz=FuzzFMIndexOpen -run '^FuzzFMIndexOpen$$' -fuzztime=10s ./internal/fmindex/
	$(GO) test -fuzz=FuzzSuffixArray -run '^FuzzSuffixArray$$' -fuzztime=10s ./internal/fmindex/
	$(GO) test -fuzz=FuzzCache -run '^FuzzCache$$' -fuzztime=10s ./internal/cache/
	$(GO) test -fuzz=FuzzPredicateParser -run '^FuzzPredicateParser$$' -fuzztime=10s ./internal/core/
	$(GO) test -fuzz=FuzzShardMerge -run '^FuzzShardMerge$$' -fuzztime=10s ./internal/shard/
	$(GO) test -fuzz=FuzzFMSuperwalk -run '^FuzzFMSuperwalk$$' -fuzztime=10s ./internal/fmindex/
	$(GO) test -fuzz=FuzzHeatLedger -run '^FuzzHeatLedger$$' -fuzztime=10s ./internal/adaptive/
	$(GO) test -fuzz=FuzzTxlogReplay -run '^FuzzTxlogReplay$$' -fuzztime=10s ./internal/txlog/
	$(GO) test -fuzz=FuzzKMeansAssign -run '^FuzzKMeansAssign$$' -fuzztime=10s ./internal/ivfpq/
	$(GO) test -fuzz=FuzzIVFPQOpen -run '^FuzzIVFPQOpen$$' -fuzztime=10s ./internal/ivfpq/
	$(GO) test -fuzz=FuzzComponentOpen -run '^FuzzComponentOpen$$' -fuzztime=10s ./internal/component/
	$(GO) test -fuzz=FuzzDeletionVector -run '^FuzzDeletionVector$$' -fuzztime=10s ./internal/lake/
	$(GO) test -fuzz=FuzzFileMeta -run '^FuzzFileMeta$$' -fuzztime=10s ./internal/parquet/

# trace-smoke proves the observability path end to end: quickstart
# runs every lookup through Client.Trace, writes the span trees as
# JSON, and self-verifies them (parse-back, phase presence, phase
# virtual durations summing exactly to the reported latency). A
# failure exits nonzero and fails check.
trace-smoke:
	@tmp="$$(mktemp trace-smoke.XXXXXX.json)"; \
	$(GO) run ./examples/quickstart -trace "$$tmp" >/dev/null; rc=$$?; \
	rm -f "$$tmp"; \
	if [ $$rc -ne 0 ]; then echo "trace-smoke failed"; exit $$rc; fi; \
	echo "trace-smoke ok"

# bench-build records maintenance depth: the GETs and dependent round
# trips of one Index call and of an FM Compact of three sources, which
# benchgate holds to "may not grow". Build speed is wall-clock:
# benchmark/'s build_compact and make bench-alloc measure it.
bench-build:
	$(GO) run ./cmd/rottnest-bench -quick -seed 13 -json BENCH_build.json build

# bench-fig13 records the Figure 13 series: search latency before and
# after compaction as the index file count grows, and the virtual
# latency of the Compact call that merged them.
bench-fig13:
	$(GO) run ./cmd/rottnest-bench -quick -seed 13 -json BENCH_fig13.json fig13

# bench-serve records the serving experiment in requests: concurrent
# clients over a Zipf query mix with every cache off, the byte cache
# only, and every cache primed — GETs/query and cache hit counts.
bench-serve:
	$(GO) run ./cmd/rottnest-bench -quick -seed 13 -json BENCH_serve.json serve

# bench-multi records the multi-predicate planner experiment: compound
# AND plans vs separate searches (GETs, pages, pages pruned by the
# page-set intersection) and shared-probe batching (probe runs
# coalesced vs independent under a concurrent Zipf stream).
bench-multi:
	$(GO) run ./cmd/rottnest-bench -quick -seed 13 -json BENCH_multi.json multi

# bench-sharded records the scatter-gather serving experiment:
# aggregate QPS vs shard count, and hedged-request p50/p99 against a
# latency-spiked replica at the same N x M x K point — and the requests
# of one hot routed query's plan (router_plan_*), which benchgate holds
# to "may not grow".
bench-sharded:
	$(GO) run ./cmd/rottnest-bench -quick -seed 13 -json BENCH_sharded.json sharded

# bench-planner records the probe-side fast-path experiment: FM
# superwalk occ-fetch dedup vs singleton walks and cost-based AND
# short-circuit GET savings (the ADC scan rate is BenchmarkPQScanADC's).
bench-planner:
	$(GO) run ./cmd/rottnest-bench -quick -seed 13 -json BENCH_planner.json planner

# bench-ingest records the continuous-ingestion experiment: the
# group-commit writer's conditional-PUT amortization over per-batch
# appends and the store requests per acked batch (ack_lists, ack_gets,
# ack_puts: benchgate holds them to "may not grow"). Ack and
# searchable-lag latencies are benchmark/'s ingest_live.
bench-ingest:
	$(GO) run ./cmd/rottnest-bench -quick -seed 13 -json BENCH_ingest.json ingest

# bench-adaptive records the workload-adaptive maintenance
# experiment: heat-driven scheduling vs index-everything vs scan-only
# on the Zipf mix — maintenance store-request reduction, hot-partition
# searchable lag, and steady-state query latency per regime.
bench-adaptive:
	$(GO) run ./cmd/rottnest-bench -quick -seed 21 -json BENCH_adaptive.json adaptive

# benchgate fails check when a regenerated record regresses a field
# its manifest (cmd/benchgate/main.go) names against the committed
# baseline: a count that grows at all, or one of the few virtual figure
# quantities that moves more than 20% the wrong way. A listed field
# missing from either side fails; untracked files are skipped.
benchgate:
	$(GO) run ./cmd/benchgate BENCH_*.json

# vulncheck runs govulncheck when it is installed; environments
# without it (or without network access to the vuln DB) skip rather
# than fail, so check stays runnable offline.
vulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./... || echo "vulncheck: findings above are advisory, not failing check"; \
	else echo "vulncheck: govulncheck not installed, skipping"; fi
