GO ?= go

.PHONY: check build vet fmt test bench-test race race-dag fuzz-smoke bench-record bench-compare bench-pairs bench go-bench serve-bench clean

# The full gate: compile everything, vet, check formatting, run the
# suite in shuffled order, race-test the concurrent packages (fast
# feedback), run the whole suite under the race detector, then smoke
# the fuzz targets. bench-test builds and smoke-runs the end-to-end
# benchmark (its own module, invisible to ./...), so a change that
# breaks an internal API the benchmark compiles against fails here and
# not at the next benchmark build.
check: build vet fmt test bench-test race-dag race fuzz-smoke

build:
	$(GO) build ./...

# The benchmark is its own module, which ./... does not reach.
vet:
	$(GO) vet ./...
	$(GO) vet -C bench .

# Formatting gate: gofmt must have nothing to rewrite.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# -shuffle=on randomizes test (and subtest) execution order so the
# tier-1 gate also catches inter-test state dependence.
test:
	$(GO) test -shuffle=on ./...

# The end-to-end benchmark's own tests: all five workloads, untraced
# and traced, at scale 0.01; BENCHMARK.json == `bench -describe`.
bench-test:
	$(GO) test -C bench .

race:
	$(GO) test -race ./...

# Focused race gate for the concurrent layers: the worker pool and the
# executor's two task lists (lookup builds, then class passes and cache
# rollups) claimed on it, the memory broker, the result cache, the
# sharded buffer pool, the page-batched fetch / bitmap routing layers
# under the shared page loop's workers, the snapshot-isolated catalog (star,
# epoch reclamation in storage) with the core executor above it, and
# the facade-level snapshot torture test, the facade differential
# test (random expressions x random configuration against exec.Naive),
# the one-request-path tests (lone and merged requests sharing one
# plan-cache entry), one cached composition run by two runners at once,
# the admission queue's goroutine ownership and option merging, and the
# per-request fallback when a merged composition fails to plan.
# The partition-wise finalization, derivation and fold-table merge
# suites, the task-list driver's suite, the shared page loop's
# equivalence and regime suites, and the executor's equivalence and
# error suites run again at -cpu 1,4, so their pool tasks really run
# concurrently under the detector.
race-dag:
	$(GO) test -race ./internal/exec/... ./internal/sched/... ./internal/mem/... ./internal/rescache/... ./internal/storage/... ./internal/table/... ./internal/bitmap/... ./internal/core/... ./internal/star/...
	$(GO) test -race -cpu 1,4 -run 'TestPartition|TestDerivation|TestMorsel|TestPoolDrive|TestRunTasks|TestFinalizeOrder|TestFoldTableMerge|TestSharedIndexVectorScalar|TestSharedMixedVectorScalar|TestSharedPassRegimes' ./internal/exec
	$(GO) test -race -cpu 1,4 -run 'TestDAGExecutionEquivalence|TestDAGEquivalenceUnderDetach|TestDAGErrorReleasesResources' ./internal/core
	$(GO) test -race -run 'TestSnapshotTorture|TestSnapshotReclamation|TestDifferentialAgainstNaive|TestOneRequestPath|TestSharedCompositionOverlaps|TestAdmissionOwnsNoIdleGoroutine|TestEquivalentOptionsMerge|TestBatched|TestServePlanFailureFallsBackPerSubmission' .

# Short deterministic runs of the native fuzz targets (packed-key
# codec and sort order at one and two words, the rollup key remap, the
# partitioned worker merge, spill record codec, selection-vector
# expansion, the bitmap index directory page) — regression smoke, not a
# fuzzing session.
fuzz-smoke:
	$(GO) test ./internal/exec -run '^$$' -fuzz FuzzPackedKeyRoundTrip -fuzztime 5s
	$(GO) test ./internal/exec -run '^$$' -fuzz FuzzPackedSortOrder -fuzztime 5s
	$(GO) test ./internal/exec -run '^$$' -fuzz FuzzRollupRemap -fuzztime 5s
	$(GO) test ./internal/exec -run '^$$' -fuzz FuzzPartitionMerge -fuzztime 5s
	$(GO) test ./internal/exec -run '^$$' -fuzz FuzzSpillRecCodec -fuzztime 5s
	$(GO) test ./internal/exec -run '^$$' -fuzz FuzzSelVecExpand -fuzztime 5s
	$(GO) test ./internal/bitmap -run '^$$' -fuzz FuzzIndexOpen -fuzztime 5s

# End-to-end benchmark, recorded and compared (bench/README.md). Record
# one file per commit — seeds 1-10 of every workload, a run each — then
# compare the two: medians, spreads and each metric's BENCHMARK.json
# bound, exit 1 on a regression.
#   make bench-record OUT=base.jsonl      (on the parent commit)
#   make bench-record OUT=new.jsonl       (on the change)
#   make bench-compare BASE=base.jsonl NEW=new.jsonl
BENCH_WORKLOADS = scan_cold probe_warm lattice_wide session_cached maint_mixed

bench-record:
	@test -n "$(OUT)" || { echo "usage: make bench-record OUT=file.jsonl"; exit 2; }
	for s in 1 2 3 4 5 6 7 8 9 10; do for w in $(BENCH_WORKLOADS); do \
		bash bench/run.sh --workload $$w --seed $$s --seconds 10 --record $(OUT) || exit 1; \
	done; done

bench-compare:
	@test -n "$(BASE)" -a -n "$(NEW)" || { echo "usage: make bench-compare BASE=a.jsonl NEW=b.jsonl"; exit 2; }
	bash bench/run.sh -compare $(BASE) $(NEW)

# The pairing protocol of EXPERIMENTS.md in one command: unpack the
# parent revision into a scratch directory, run every (workload, seed)
# once on the parent and once on this checkout — the side that goes
# first alternates from pair to pair — and compare the two record files.
# About 40 s per pair: 35 minutes for ten seeds. Run nothing else
# meanwhile. Seeds not used during development: SEED_LIST="11 12 13".
#   make bench-pairs PARENT=HEAD~1 [SEEDS=10] [PAIRS_DIR=/tmp/mdxopt-bench-pairs]
PAIRS_DIR ?= /tmp/mdxopt-bench-pairs
SEEDS ?= 10
SEED_LIST ?= $(shell seq 1 $(SEEDS))

bench-pairs:
	@test -n "$(PARENT)" || { echo "usage: make bench-pairs PARENT=<rev> [SEEDS=10 | SEED_LIST=\"11 12 13\"] [PAIRS_DIR=dir]"; exit 2; }
	rm -rf $(PAIRS_DIR)/parent $(PAIRS_DIR)/parent.jsonl $(PAIRS_DIR)/change.jsonl
	mkdir -p $(PAIRS_DIR)/parent
	git archive $(PARENT) | tar -x -C $(PAIRS_DIR)/parent
	n=0; for s in $(SEED_LIST); do for w in $(BENCH_WORKLOADS); do \
		n=$$((n+1)); \
		parent="bash $(PAIRS_DIR)/parent/bench/run.sh --workload $$w --seed $$s --seconds 10 --record $(abspath $(PAIRS_DIR))/parent.jsonl"; \
		change="bash bench/run.sh --workload $$w --seed $$s --seconds 10 --record $(abspath $(PAIRS_DIR))/change.jsonl"; \
		if [ $$((n % 2)) -eq 1 ]; then $$parent && $$change; else $$change && $$parent; fi || exit 1; \
	done; done
	bash bench/run.sh -compare $(PAIRS_DIR)/parent.jsonl $(PAIRS_DIR)/change.jsonl

# All benchmarks: the Go micro/paper benchmarks plus the serving-layer
# experiment (seeded deterministically; it writes BENCH_serve.json). The
# end-to-end benchmark is bench-record / bench-pairs above.
bench: go-bench serve-bench

# Paper experiment benchmarks (Tests 1-7 etc.).
go-bench:
	$(GO) test -bench . -benchtime 1x -benchmem -run xxx ./...

# The serving-layer comparison; writes BENCH_serve.json.
serve-bench:
	$(GO) run ./cmd/mdxbench -dir /tmp/mdxopt-servedb -scale 0.1 -exp serve -json BENCH_serve.json

clean:
	rm -rf /tmp/mdxopt-servedb
