# Developer entry points. CI runs the same targets; see
# .github/workflows/ci.yml.

GO ?= go

# Fuzz targets for the smoke pass: package, then fuzz function.
FUZZ_TARGETS = \
	./internal/hierarchy,FuzzRead \
	./internal/hierarchy,FuzzFromPaths \
	./internal/hierarchy,FuzzFromEdges \
	./internal/strutil,FuzzEditDistanceWithin \
	./internal/strutil,FuzzTokenize \
	./internal/core,FuzzLoadIndexer \
	./internal/wal,FuzzWALReplay \
	./internal/wal,FuzzWALStream \
	./internal/cluster,FuzzGatherMerge \
	./internal/cluster,FuzzCoordinatorWALReplay

# bin/kjoin-lint is declared phony so `go build` (itself incremental)
# decides staleness, not make.
.PHONY: all build test test-race fmt-check lint lint-self analysis-test bin/kjoin-lint vet fuzz-smoke bench bench-json bench-build bench-smoke perf-smoke crash-smoke replication-smoke segment-smoke cluster-smoke reshard-smoke

all: build lint test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# test-race is the CI test job: the whole suite under the race detector.
test-race:
	$(GO) test -race ./...

# fmt-check fails on any .go file gofmt would rewrite, build outputs
# (.bench_build/ holds checkouts of other commits) aside.
fmt-check:
	@out=$$(find . -name '*.go' -not -path './.bench_build/*' -not -path './bin/*' | xargs gofmt -l); \
	if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# lint runs the formatting gate, go vet and the project's own invariant
# analyzers (cmd/kjoin-lint): lockcheck, ctxpoll, floateq, maporder,
# errform, lockorder, ackorder, syncerr, goleak. The driver is built once
# so the module-wide pass (which loads every package for facts) isn't
# paying a `go run` rebuild on top.
lint: fmt-check vet bin/kjoin-lint
	./bin/kjoin-lint ./...

# lint-self runs the analyzers over the analysis framework itself —
# the linter must hold its own invariants.
lint-self: bin/kjoin-lint
	./bin/kjoin-lint ./internal/analysis/...

bin/kjoin-lint:
	$(GO) build -o bin/kjoin-lint ./cmd/kjoin-lint

# analysis-test runs the analyzer framework and analyzer suites
# uncached: analysistest fixtures live on disk and a stale cache can
# mask testdata edits.
analysis-test:
	$(GO) test -count=1 ./internal/analysis/...

vet:
	$(GO) vet ./...

# fuzz-smoke runs each native fuzz target briefly against its checked-in
# seed corpus (testdata/fuzz) — a regression net, not a discovery run.
fuzz-smoke:
	@set -e; for t in $(FUZZ_TARGETS); do \
		pkg=$${t%,*}; fn=$${t#*,}; \
		echo "fuzz $$pkg $$fn"; \
		$(GO) test $$pkg -run='^$$' -fuzz="^$$fn$$" -fuzztime=10s; \
	done

# crash-smoke runs the deterministic fault-injection recovery matrix
# under the race detector: scripted WAL/snapshot failures and crashes at
# every write boundary, each followed by a reboot that must reproduce
# exactly the acknowledged adds with bit-identical query answers — plus
# the WAL, the fault injector and serverutil, whose durable-log kernel
# (recovery, compaction floor, snapshot→compact) both owners run on.
crash-smoke:
	$(GO) test -race -count=1 \
		-run 'TestCrashMatrix|TestCrashSweepEveryWalWrite|TestConcurrentAddsCrashAtSyncBoundary|TestRecovery|TestRecoverRejectsDeletedWal|TestWalFailureDegradesNotCorrupts' \
		./internal/server/
	$(GO) test -race -count=1 ./internal/wal/ ./internal/fault/ ./internal/serverutil/

# replication-smoke runs the replica chaos matrix under the race
# detector: WAL-shipping followers fed through deterministic network
# faults (drops, stalls, mid-frame truncation, hangups), kill/restart
# resume, primary compaction during follower downtime, staleness gating
# and fail-over routing — every acked add must be visible on every live
# replica with bit-identical query answers.
replication-smoke:
	$(GO) test -race -count=1 ./internal/replica/
	$(GO) test -race -count=1 \
		-run 'TestWALStream|TestReplica|TestApplyReplicated|TestSnapshotBuffer|TestAdmitRetryAfter' \
		./internal/server/ ./internal/serverutil/
	$(GO) test -race -count=1 ./cmd/kjoin-serve/

# cluster-smoke runs the scatter-gather chaos matrix and differential
# suite under the race detector: a coordinator over real shard servers
# joined by deterministic network faults (dead shard, stalled shard,
# mid-frame truncation, flapping breaker, deadline expiry mid-gather,
# replica hedging and fail-over), asserting coverage headers, breaker
# transitions, no goroutine leaks, and full-coverage answers
# bit-identical to the single-node engine — plus the shared HTTP edge
# both tiers run on: the deadline header, the probes, the error mapper
# and the outbound shard call that forwards the remaining budget.
cluster-smoke:
	$(GO) test -race -count=1 ./internal/cluster/
	$(GO) test -race -count=1 -run 'TestClientHonorsRetryAfter|TestClientRetryAfterCappedByContext|TestClientSimilarity|TestNetInjector|TestCallForwardsDeadlineAndStatus|TestEdge|TestFailMapsErrors' \
		./internal/replica/ ./internal/fault/ ./internal/serverutil/
	$(GO) test -race -count=1 -run 'TestFlagsClusterConfig|TestFlagsRejectLoudly' ./cmd/kjoin-serve/
	$(GO) test -race -count=1 -run 'TestStreamPollJitterBandAndDeterminism' ./internal/server/

# reshard-smoke runs the durable control plane and live-resharding
# chaos matrix under the race detector: coordinator kill/restart and
# crash-at-every-WAL-write recovery sweeps (every acked add survives
# with bit-identical answers), reshard grow/shrink differentials, the
# dual-read window under a throttled mover, transient shard death
# mid-migration, abort-then-retry, mid-migration coordinator crashes,
# the compaction floor across coordinator restarts, stale route-version
# refusals, and the coordinator durability flags.
reshard-smoke:
	$(GO) test -race -count=1 \
		-run 'TestCoordinator|TestCoordinatorCompactionFloorSurvivesRestart|TestReshard|TestStaleRouteVersion|TestAddChargesRetryBudgetOnce' \
		./internal/cluster/
	$(GO) test -race -count=1 -run 'TestFlagsDurableCoordinatorConfig|TestFlagsRejectLoudly' ./cmd/kjoin-serve/

bench:
	$(GO) test -bench=. -benchmem -run='^$$' ./...

# bench-json refreshes the "current" section of BENCH_hotpath.json with
# the hot-path benchmarks (self-join, R-S join, pairwise similarity).
# Pass -hotpath-baseline through cmd/kjoin-bench directly to re-pin the
# baseline section instead.
bench-json:
	$(GO) run ./cmd/kjoin-bench -hotpath BENCH_hotpath.json

# bench-build vets, builds and tests the benchmark harness. bench/ is a
# module of its own (replace kjoin => ../), so the root build and test
# never compile it: this is what notices an engine API change that
# breaks the benchmark.
bench-build:
	cd bench && $(GO) vet ./... && $(GO) build ./... && $(GO) test -count=1 ./...

# bench-smoke runs every benchmark workload end to end for two seconds,
# untraced and traced, the way the performance pipeline invokes it: each
# run must exit 0 (its last line is the JSON result with "correct":true).
# bench-build proves the harness compiles against the engine; this proves
# it still runs.
BENCH_WORKLOADS = batch-filter batch-skew batch-verify serve-mixed serve-ingest cluster-mixed

bench-smoke:
	@set -e; for w in $(BENCH_WORKLOADS); do for t in 0 1; do \
		echo "bench $$w trace=$$t"; \
		out=$$(bash bench/run.sh --workload $$w --seed 1 --seconds 2 --trace $$t) || { echo "$$out"; exit 1; }; \
		echo "$$out" | tail -n 1 | grep -q '"correct":true' || { echo "$$out"; exit 1; }; \
	done; done

# perf-smoke is the CI-sized performance gate: the allocation-regression
# tests (steady-state verification must stay at zero allocs per pair,
# the probe kernel at zero per batch), the ladder-laziness test (a pair
# ΣB^u rejects pays for no solve, an accepted pair for one exact solve
# per group and nothing else), the score a join takes from the ladder against Similarity bit
# for bit, the greedy lower bounds against their O(n⁴) originals bit for
# bit, the sketch gate's hit rate (a hash or layout change that blunts it
# fails nothing else), the O(1) path-code similarity and rung 2b's column
# maximum against Resolver.Sim bit for bit, the armed probe tables and
# their cached column maxima never read stale, and the bound chain with
# rung 2b's link (Lemma 4 ≥ column ≥ B^u) and its boundary decisions
# against the seed, plus one iteration of each hot benchmark to catch
# bit-rot in the bench code itself — the exact-solve-against-greedy
# group benchmark among them. MixedAddQuery covers
# the segmented engine's concurrent add/query path.
perf-smoke:
	$(GO) test . ./internal/verify/ ./internal/core/ ./internal/hierarchy/ ./internal/matching/ -run 'ZeroAlloc|LadderLazy|ScoreBitIdentical|GreedyMatchesOracle|SketchGatePrecision|PathSimBitIdentical|ArmedTablesNeverStale|PathCodeLCA|BoundChain|WeightedBoundMatchesGroups' -count=1
	$(GO) test -bench 'SelfJoinPOI|Similarity|MixedAddQuery' -benchtime=1x -benchmem -run='^$$' .
	$(GO) test -bench . -benchtime=1x -benchmem -run='^$$' ./internal/verify/ ./internal/sig/
	$(GO) test -bench GroupSolve -benchtime=1x -run='^$$' ./internal/matching/

# segment-smoke runs the segmented-engine proofs under the race
# detector: the concurrent Add/Seal/Merge/RunQuery stress, the
# differential bit-identity suite against the single-structure path,
# the merge-policy/confluence units, the snapshot-v3 layout round-trip,
# the bulk load and WAL-run replay against an Add-fed index (every
# snapshot version, serial and parallel), the one probe adds and queries
# share (against the naive join, under concurrent prepared queries, and
# with pooled query counts kept out of Stats), and the WAL seal-record
# recovery layout test — plus the verifier's
# per-worker clones and probe tables (their rung 2b column cache, its
# bound chain and boundary decisions included), which the engine's
# pooled probe kernels arm concurrently — and the score each kernel's
# verifier holds for the pair it accepted, read back by that kernel
# alone.
segment-smoke:
	$(GO) test -race -count=1 \
		-run 'TestSegmented|TestSnapshotV3|TestMerge|TestIndexer|TestParallelJoinBitIdentical|TestBulkLoadMatchesAdds|TestKernelPathsMatchNaive|TestQueryPreparedConcurrent|TestQueryCountsNeverLeakIntoStats' \
		./internal/core/
	$(GO) test -race -count=1 -run 'TestPathSimBitIdentical|TestArmedTablesNeverStale|TestScratchCloneIsolation|TestBoundChain|TestWeightedBoundMatchesGroups|TestScoreBitIdentical' ./internal/verify/
	$(GO) test -race -count=1 -run 'TestScoreBitIdentical' .
	$(GO) test -race -count=1 -run 'TestRecoverySegmentLayoutFromSealRecords' ./internal/server/
