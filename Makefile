# Development entry points for beqos. Everything is plain `go` underneath.

GO ?= go

.PHONY: all build vet test race race-soak deadcode check cli-check workload-check perfbench-check bench bench-diff bench-server bench-cluster figures examples cover cover-gate clean

# Benchmarks the regression gate enforces (see bench-diff): the simulator
# validation runs, the enforcement loop, the SCFQ hot path, the
# admission-server throughput suite (ns/op and allocs/op — the serving
# plane's reserve→grant path must stay at 0 allocs/op), the datagram
# transport, the 100k-flow high-concurrency churn, and the per-policy
# admission micro-benchmark (every policy's Admit→Release at 0 allocs/op),
# the cluster plane (aggregate path-admission churn plus the local-admit
# and forwarded-hop hot paths, both pinned at 0 allocs/op), the soft-state
# table's install, remove and lookup, and the admission cell's install +
# drop, refresh and expiry (all 0 allocs/op).
BENCH_GATE = BenchmarkS1SimulatedLoad|BenchmarkS2HeavyTailLoad|BenchmarkX4SchedulingEnforcement|BenchmarkMicroSCFQEnqueueDequeue|BenchmarkServerThroughput|BenchmarkServerHighConcurrency|BenchmarkUDPThroughput|BenchmarkPolicyAdmit|BenchmarkClusterThroughput|BenchmarkClusterLocalAdmit|BenchmarkClusterForward|BenchmarkSoftStateTable|BenchmarkSoftStateCell

# Absolute metric floors on the fresh bench-diff run (NAME_RE=unit:MIN, see
# cmd/benchjson -floor). The high-concurrency churn measured ~276k req/s
# with 100k standing flows on the CI-class container; 20k req/s is the
# "still fundamentally works at scale" bar, far below normal but well above
# any accidental serialization of the mux or shard paths. The cluster
# aggregate churn measured ~5.4M req/s on the CI-class container; 400k is
# the same order-of-magnitude safety bar. The batched forwarded-hop path
# measured ~2.1M req/s (vs ~190k single-frame); 600k is the "batching still
# pays for itself" bar — roughly 3× the single-frame rate.
BENCH_FLOOR = BenchmarkServerHighConcurrency=req/s:20000,BenchmarkServerHighConcurrency=flows:100000,BenchmarkClusterThroughput/n4=req/s:400000,BenchmarkClusterForwardBatched=req/s:600000

# Packages with concurrency worth racing: the single source of truth for
# both `make race` and CI (which calls `make race`), so the two can never
# drift apart again. The dead-code ratchet's package, ./internal/deadcode/,
# is left out: it runs no concurrent code (see deadcode).
RACE_PKGS = ./internal/core/ ./internal/resv/ ./internal/policy/ ./internal/search/ ./internal/loadgen/ ./internal/sim/ ./internal/sched/ ./internal/sweep/ ./internal/obs/ ./internal/obs/obshttp/ ./internal/cluster/ ./internal/workload/ ./cmd/beqos/ .

# Coverage floor (percent) enforced by cover-gate on the serving,
# admission-policy, observability, cluster and workload planes and the
# load harness.
COVER_PKGS  = ./internal/resv/ ./internal/policy/ ./internal/obs/ ./internal/obs/obshttp/ ./internal/cluster/ ./internal/workload/ ./internal/loadgen/
COVER_FLOOR = 70

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The serving tests run at one processor too, where a server keeps one
# lock stripe and a stream read holds its shard lock from its first flow op
# until it is served: a hold left held there fails as a hang.
race:
	$(GO) test -race $(RACE_PKGS)
	$(GO) test -cpu 1 ./internal/resv/ ./internal/cluster/
	$(GO) test -race -cpu 1 ./internal/resv/

# The release paths — teardown, rollback (a failed path refresh's
# included), connection drop, TTL expiry, closing a serving plane (its connections' last log lines included) —
# and the callers' hop flushes, raced ten times over: every claim must go
# back exactly once however they interleave. The gossip view's writers are
# raced too: a link's occupancy snapshot must never roll back. So are the
# routing tests, which also guard the load signals of a quiet link: the
# anti-entropy sweeps must keep them inside the staleness bound. Timing-
# dependent failures here show up only under repetition.
RACE_SOAK = TestConnectionDrop|TestBatchConnDropReleasesOnce|TestMux|TestClientSharedConn|TestClientAbandonedCallNoWaiter|TestTableMatchesModel|TestUDPPeerReapedAfterExpiry|TestUDPPeerAcrossShards|TestPathAdmissionConformance|TestRollbackLeavesNoResidue|TestClusterBatchRacedBoundary|TestExpiryStep|TestWireConnDropRollsBack|TestCell|TestResvMatchesOneLinkCluster|TestHopCoalescer|TestKilledNodeReleasesAndExpires|TestViewApplyMonotone|TestCloseReleasesStreamFlows|TestHandleConnAfterClose|TestCloseEndsLoops|TestPeerTeardownOfExpiredClaimNoError|TestClientPost|TestCloseEndsDatagramServing|TestCloseWaitsForConnLog|TestTwoChoiceAvoidsLoadedPath|TestBurstPlacementBalances|TestRefreshOfLostHopRollsBack|TestRefreshRacingTeardownReleasesOnce

race-soak:
	$(GO) test -race -count=10 -run '$(RACE_SOAK)' ./internal/resv/ ./internal/cluster/

# The dead-code ratchet alone, uncached: it builds every binary (cmd/*,
# examples/*, perfbench) with inlining off in beqos packages and fails on a
# non-test function none of them links that internal/deadcode/allowlist.txt
# does not name, or on an allowlist entry that is gone or linked. `go test
# ./...` runs it too, so both CI test legs do and CI needs no step of its own.
deadcode:
	$(GO) test -count=1 ./internal/deadcode/

# Full pre-merge gate: vet, the race-enabled test suite, the workload
# spec corpus, the end-to-end benchmark's build and correctness smoke,
# every runnable example and the CLI oracles.
check: vet race workload-check perfbench-check examples cli-check
	$(GO) test ./...

# The CLI oracles, each of which exits non-zero when a check leaves its
# bound: the policy sweep smoke (a live two-cell grid cross-validated
# against the model), a light-load sweep in each mode (cells that measure
# no blocking, held to the binomial sigma) and the live load harness on a
# stationary spec (the run battery), on a flash-crowd spec (the per-phase
# battery) and with batch bodies and connection drops.
cli-check:
	$(GO) run ./cmd/beqos sweep-policy -quick
	$(GO) run ./cmd/beqos sweep-policy -mode live -mean 2
	$(GO) run ./cmd/beqos sweep-policy -mode sim -mean 1
	$(GO) run ./cmd/beqos load -workload specs/baseline.spec
	$(GO) run ./cmd/beqos load -workload specs/flashcrowd.spec
	$(GO) run ./cmd/beqos load -batch 8 -drop-every 7

# Validate the bundled workload spec corpus: every spec must parse (with
# precise line-anchored errors when it does not).
workload-check:
	$(GO) run ./cmd/beqos workload specs

# The end-to-end benchmark is its own module, so the root `go build ./...`
# never compiles it: vet it, then run short link, softstate, cluster and
# sim workloads as a correctness smoke. A run exits 1 on a counter
# mismatch, residue held after clean-up, a wrong expiry count, or a failed
# simulator check. softstate checks the soft-state table's release paths:
# its expiries must equal the standing flows left un-refreshed, and its
# connection drops must release exactly the refreshed ones. sim checks the
# simulator's measured blocking against Erlang B (4σ) and the model's
# sanity on every replication's occupancy.
perfbench-check:
	cd perfbench && $(GO) vet ./...
	bash perfbench/run.sh --workload link --seed 1 --seconds 2 --trace 0
	bash perfbench/run.sh --workload softstate --seed 1 --seconds 2 --trace 0
	bash perfbench/run.sh --workload cluster --seed 1 --seconds 2 --trace 0
	bash perfbench/run.sh --workload sim --seed 1 --seconds 2 --trace 0

# Run the benchmark suite and archive it as machine-readable JSON. Always
# -benchmem, so every BENCH_core.json entry carries bytes/allocs, and
# -count $(BENCH_COUNT): benchjson folds the repeats into one entry each,
# the median ns/op with its range and the largest allocs/op seen. Five
# repeats of the suite take about 12 minutes on a 2-CPU host, past go
# test's default 10-minute timeout, hence BENCH_TIMEOUT. A failed or
# timed-out run writes no baseline: the output lands in bench_output.txt
# first, so the failure is not lost in a pipe.
BENCH_COUNT = 5
BENCH_TIMEOUT = 30m

bench:
	$(GO) test -bench=. -benchmem -count $(BENCH_COUNT) -timeout $(BENCH_TIMEOUT) . > bench_output.txt || { cat bench_output.txt; exit 1; }
	$(GO) run ./cmd/benchjson -o BENCH_core.json < bench_output.txt
	@echo "wrote BENCH_core.json"

# Benchmark regression gate: rerun the gated benchmarks with -benchmem and
# -count $(BENCH_COUNT), and compare their medians against the committed
# BENCH_core.json. Fails on >30% ns/op, any allocs/op regression, or a
# BENCH_FLOOR metric below its minimum (see cmd/benchjson -diff / -floor).
# The raw run lands in bench_output.txt and
# the comparison in bench_diff.txt — intermediate files, not a pipeline,
# so a failed gate still leaves both behind for CI to upload and a flaky
# cell can be diagnosed from the artifacts alone.
bench-diff:
	@$(GO) test -bench='$(BENCH_GATE)' -benchmem -count $(BENCH_COUNT) -timeout $(BENCH_TIMEOUT) -run '^$$' . > bench_output.txt || { cat bench_output.txt; exit 1; }
	@$(GO) run ./cmd/benchjson -diff BENCH_core.json -gate '$(BENCH_GATE)' -floor '$(BENCH_FLOOR)' < bench_output.txt > bench_diff.txt; \
	status=$$?; cat bench_diff.txt; exit $$status

# Just the serving-plane suites (sync, pipelined, datagram, and the
# 100k-flow high-concurrency churn; BEQOS_BENCH_1M=1 raises the standing
# population to 1M), for quick iteration on internal/resv.
bench-server:
	$(GO) test -bench='BenchmarkServerThroughput|BenchmarkServerHighConcurrency|BenchmarkUDPThroughput' -benchmem -run '^$$' .

# Just the cluster-plane suites (aggregate N-node churn, the zero-alloc
# local-admit path, and the forwarded-hop path), for quick iteration on
# internal/cluster.
bench-cluster:
	$(GO) test -bench='BenchmarkCluster' -benchmem -run '^$$' .

# Regenerate every paper table and figure into out/ (see EXPERIMENTS.md).
figures:
	$(GO) run ./cmd/figures -out out

# Run every example end to end (they exit non-zero on any error).
examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/provisioning
	$(GO) run ./examples/admission
	$(GO) run ./examples/selfsimilar
	$(GO) run ./examples/tradeoff
	$(GO) run ./examples/enforcement

cover:
	$(GO) test -cover ./...

# Coverage gate for the serving + observability planes: writes cover.out
# (CI uploads it as an artifact) and fails below the COVER_FLOOR.
cover-gate:
	$(GO) test -coverprofile=cover.out $(COVER_PKGS)
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	if awk -v t=$$total -v f=$(COVER_FLOOR) 'BEGIN {exit !(t >= f)}'; then \
		echo "coverage $$total% meets the $(COVER_FLOOR)% floor"; \
	else \
		echo "coverage $$total% is below the $(COVER_FLOOR)% floor"; exit 1; \
	fi

clean:
	rm -rf out test_output.txt bench_output.txt bench_diff.txt cover.out
