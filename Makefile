GO ?= go

.PHONY: build test check benchmark-test bench-alloc fuzz-smoke trace-smoke bench-fig13 vulncheck depth-table maint-table

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# check is the PR gate: vet, formatting, the race detector over every
# package, a short fuzz pass over the byte-level decoders, and the one
# regenerated record, BENCH_fig13.json (nothing compares it against the
# committed copy: review its diff). The experiment shape tests in
# internal/bench skip themselves under -race (their thresholds mix in
# real wall-clock CPU time, which race instrumentation inflates) and so
# does the FM allocation budget in internal/fmindex (race builds empty
# sync.Pool at random), so they get a separate plain run. Request
# counts of the serving, multi-predicate, planner, maintenance, ingest,
# sharded and adaptive workloads are assertions of the race run
# (internal/core, internal/ingest, internal/shard), not records.
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
	$(MAKE) bench-fig13
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
# benchmark's sizes, with SA-IS beside its oracle and alone on 10 MiB,
# and one source's BWT inversion beside the serial walk (three
# iterations: the large ones take a second or two each). Nothing is gated here —
# the FM build's bytes per text byte are, by TestFMAllocBudget; a PR
# that claims an allocation change quotes these numbers at its parent
# and at its head.
bench-alloc:
	$(GO) test -run '^$$' -bench 'WarmSearch|FilterRanges|PlanReads|UnionRanges|IntersectRanges|DecodePage' -benchtime 50x ./internal/core ./internal/postings ./internal/parquet
	$(GO) test -run '^$$' -bench 'IVFPQBuild|IVFPQMerge' -benchtime 3x ./internal/ivfpq
	$(GO) test -run '^$$' -bench 'FMBuild|FMMerge|SuffixArray|BWTInvert' -benchtime 3x ./internal/fmindex

# depth-table prints the cold path's class table (DESIGN.md §18) as
# TestColdPathDepth measures it: per world, client and query class, the
# levels past the LIST, GETs, bytes and virtual milliseconds. Run it at
# a change's parent and head to paste the table old -> new.
depth-table:
	@echo '| world, client | class | levels | GETs | bytes | ms |'
	@echo '|---|---|---|---|---|---|'
	@$(GO) test ./internal/core -run '^TestColdPathDepth$$' -count=1 -v | sed -n 's/^ *colddepth_test.go:[0-9]*: \(|.*\)$$/\1/p'

# maint-table prints the maintenance depth table (DESIGN.md §19) as
# TestMaintenanceDepth, TestOneIndexJobCoversEverySpec and
# TestIngestDepth measure it on the S3 model: per test and operation,
# the LISTs, GETs, PUTs, DELETEs and virtual milliseconds. Run it at a
# change's parent and head to paste the table old -> new.
maint-table:
	@echo '| test | operation | LISTs | GETs | PUTs | DELETEs | ms |'
	@echo '|---|---|---|---|---|---|---|'
	@$(GO) test ./internal/core -run '^TestMaintenanceDepth$$' -count=1 -v | sed -n 's/^ *maintdepth_test.go:[0-9]*: \(|.*\)$$/\1/p'
	@$(GO) test ./internal/ingest -run '^(TestOneIndexJobCoversEverySpec|TestIngestDepth)$$' -count=1 -v | sed -n 's/^ *depth_test.go:[0-9]*: \(|.*\)$$/\1/p'

# fuzz-smoke runs each fuzz target briefly (native Go fuzzing allows
# one -fuzz pattern per package invocation): corrupted bytes must
# error, never panic, the SA-IS builder must agree with its
# prefix-doubling oracle, the BWT inversion with the serial walk, and
# the pruned nearest-centroid search with the exhaustive scan, the
# in-situ run loop with the row loop, and an index key's column segment
# must stay one path segment that decodes back. -run pins each
# invocation to its own seed corpus: fuzz builds carry coverage instrumentation, which would skew
# the timing-sensitive shape tests (they run uninstrumented above).
fuzz-smoke:
	$(GO) test -fuzz=FuzzTrieNodeDecode -run '^FuzzTrieNodeDecode$$' -fuzztime=10s ./internal/trie/
	$(GO) test -fuzz=FuzzPageDecode -run '^FuzzPageDecode$$' -fuzztime=10s ./internal/parquet/
	$(GO) test -fuzz=FuzzFMIndexOpen -run '^FuzzFMIndexOpen$$' -fuzztime=10s ./internal/fmindex/
	$(GO) test -fuzz=FuzzSuffixArray -run '^FuzzSuffixArray$$' -fuzztime=10s ./internal/fmindex/
	$(GO) test -fuzz=FuzzBWTInvert -run '^FuzzBWTInvert$$' -fuzztime=10s ./internal/fmindex/
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
	$(GO) test -fuzz=FuzzEvalRuns -run '^FuzzEvalRuns$$' -fuzztime=10s ./internal/insitu/
	$(GO) test -fuzz=FuzzIndexKey -run '^FuzzIndexKey$$' -fuzztime=10s ./internal/core/

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

# bench-fig13 records the Figure 13 series: search latency before and
# after compaction as the index file count grows, and the virtual
# latency of the Compact call that merged them.
bench-fig13:
	$(GO) run ./cmd/rottnest-bench -quick -seed 13 -json BENCH_fig13.json fig13

# vulncheck runs govulncheck when it is installed; environments
# without it (or without network access to the vuln DB) skip rather
# than fail, so check stays runnable offline.
vulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./... || echo "vulncheck: findings above are advisory, not failing check"; \
	else echo "vulncheck: govulncheck not installed, skipping"; fi
