# Build, verify and benchmark the numasim reproduction.
#
#   make check    - build everything (the nested bench module too), vet,
#                   lint (numalint), run the full test suite under the
#                   race detector (the parallel harness runs many
#                   simulations concurrently; -race guards it) and the
#                   bench module's tests, then the audit and pressure
#                   drills and the example programs
#   make audit    - run the protocol-fuzz suite with full online
#                   auditing (every protocol action re-validates the
#                   directory invariants; violations die with forensics)
#   make lint     - build bin/numalint and run its analyzer suite
#                   (determinism, maporder, statemachine, units,
#                   violation, hotpath, atomicmix, callers) over ./...:
#                   among them, every range over a map needs a
#                   //numalint:ordered reason, and no package-level
#                   sync/atomic function may be called
#   make inline   - require the compiler to inline the reference path:
#                   each vm.Context accessor's mem.Frame accessor, and
#                   the MMU probe, charge row and link charge in
#                   refFetch, refStore and refUpdate
#   make bench    - run the benchmark suite (tables, ablations, the
#                   simulator hot-path microbenchmarks, and the simtrace
#                   overhead check: BenchmarkTraceOverhead/off must stay
#                   within noise of earlier runs). BENCHFILTER narrows
#                   the set (a -bench regexp) and BENCHTIME overrides
#                   -benchtime: make bench BENCHFILTER=FaultPath BENCHTIME=10x
#   make bench-json - run the benchmarks and record the run as
#                   BENCH_<date>.json (the tracked perf trajectory;
#                   compare two runs with cmd/benchdiff)
#   make bench-ci - the CI perf gate, an A/B run on one host: measure
#                   the reduced hot-path set and the end-to-end Table 3
#                   and availability rows with the test binaries of
#                   BENCH_BASE (default HEAD) and of the working tree in
#                   alternation, and fail if any median ns/op, or any
#                   B/op or allocs/op, regressed more than BENCHDIFF_TOL
#                   (default 20%)
#   make examples - run every example program and compare its output
#                   with its golden in examples/testdata
#   make tables   - regenerate the paper's tables and figures
#   make pressure - smoke-run the memory-pressure sweep with seeded fault
#                   injection (small sizes; exercises reclaim, fallback
#                   and retry end to end)
#   make topo     - the topology gate: ACE byte-identity goldens through
#                   the generalized path, spec-priced copies and the G/L
#                   sweep on every topology, the multi-node protocol fuzz,
#                   and the link-contention property tests, under -race
#   make tournament - the policy-zoo gate: run the ranked tournament CSV
#                   at -parallel 1 and -parallel 8 and require the bytes
#                   to match, plus the capability fuzz and the adaptive
#                   acceptance test
#   make avail    - the degraded-mode gate: the availability sweep
#                   (every app through node/link failure schedules, on
#                   4socket and on mesh8) must be byte-identical at any
#                   -parallel and under the stride-1 auditor, and the
#                   failure-schedule fuzz, the evacuation property tests
#                   and the rerouting unit and property tests must hold
#                   under -race

GO ?= go
NUMALINT := bin/numalint

# Benchmark knobs: BENCHFILTER is the -bench regexp, BENCHTIME the
# -benchtime argument (a duration like 2s or a count like 100x).
BENCHFILTER ?= .
BENCHTIME ?= 1s
BENCHDATE := $(shell date +%Y-%m-%d)

# The reduced hot-path set the CI perf gate re-measures, with a row per
# Context accessor on a TLB hit (BenchmarkAccessor/<accessor>, and a
# remote and a local Load32 on 4socket), plus one end-to-end row per
# Table 3 application (BenchmarkTable3/<app>: the paper's three runs at
# the small sizes, one simulation at a time) and one per availability
# application (BenchmarkAvailability/<app>: its failure schedules on the
# small 4-processor 4socket machine, which gates the contended and
# degraded interconnect path as the Table 3 rows gate the ACE).
# Time-based -benchtime keeps ns/op out of one-shot noise on the
# nanosecond-scale paths while bounding the gate's wall-clock on the
# millisecond-scale ones; B/op and allocs/op move little with the
# iteration count.
BENCH_CI_FILTER := 'LocalAccess$$|Accessor$$|PageMigration$$|FaultPath$$|ReclaimFault$$|PickManyThreads|TraceOverhead|NewMachine|Table3$$|Availability$$'
BENCH_CI_TIME := 300ms
BENCH_CI_ROUNDS := 5
BENCH_CI_DIR := .bench_ci
BENCHDIFF_TOL ?= 0.20
# BENCH_BASE is the commit bench-ci compares the working tree against; CI
# passes the pull request's base, or HEAD~1 on a push.
BENCH_BASE ?= HEAD

.PHONY: check build vet lint inline test bench bench-json bench-ci examples tables pressure audit topo tournament avail

check: build vet lint inline test audit pressure topo tournament avail examples

# bench/ is its own module, so the root ./... patterns do not reach it;
# build, vet and test it explicitly, since it imports the harness.
build:
	$(GO) build ./...
	cd bench && $(GO) build -o /dev/null ./...

vet:
	$(GO) vet ./...
	cd bench && $(GO) vet ./...

lint:
	$(GO) build -o $(NUMALINT) ./cmd/numalint
	$(NUMALINT) ./...

test:
	$(GO) test -race ./...
	cd bench && $(GO) test ./...

# inline reads the compiler's inlining report for internal/vm, attributes
# each inlined call to the function whose declaration precedes it, and
# fails unless every caller:callee pair in INLINE_WANT is there. The
# reference path's speed rests on these calls inlining (budget 80), and a
# field or branch added to one of them can push it over silently. The
# per-reference clock is part of that path: each accessor's quantum check
# (*Context).tick (cost 70) and the engine's sim.(*Thread).Advance, which
# writes only the thread's clock.
INLINE_WANT := \
	Load32:mem.(*Frame).Load32 Store32:mem.(*Frame).Store32 \
	Load8:mem.(*Frame).Load8 Store8:mem.(*Frame).Store8 \
	Load64:mem.(*Frame).Load64 Store64:mem.(*Frame).Store64 \
	TestAndSet:mem.(*Frame).Load32 TestAndSet:mem.(*Frame).Store32 \
	FetchOr32:mem.(*Frame).Load32 FetchOr32:mem.(*Frame).Store32 \
	refFetch:mmu.(*MMU).Probe refFetch:ace.Row.Fetch refFetch:ace.(*Machine).ChargeLink \
	refStore:mmu.(*MMU).Probe refStore:ace.Row.Store refStore:ace.(*Machine).ChargeLink \
	refUpdate:mmu.(*MMU).Probe refUpdate:ace.Row.Fetch refUpdate:ace.Row.Store \
	refUpdate:ace.(*Machine).ChargeLink \
	Load32:(*Context).tick Store32:(*Context).tick \
	Load8:(*Context).tick Store8:(*Context).tick \
	Load64:(*Context).tick Store64:(*Context).tick \
	TestAndSet:(*Context).tick FetchOr32:(*Context).tick instr:(*Context).tick \
	refFetch:sim.(*Thread).Advance refStore:sim.(*Thread).Advance \
	refUpdate:sim.(*Thread).Advance instr:sim.(*Thread).Advance

inline:
	$(GO) build -gcflags=-m=2 -o /dev/null ./internal/vm 2>&1 | awk -F: -v want="$(INLINE_WANT)" ' \
		$$1 != "internal/vm/vm.go" { next } \
		$$4 ~ /^ (can|cannot) inline / && $$4 !~ /func[0-9]/ { \
			name = $$4; sub(/^ (can|cannot) inline /, "", name); sub(/ .*/, "", name); \
			sub(/^\(\*Context\)\./, "", name); start[$$2 + 0] = name; next } \
		$$4 ~ /^ inlining call to / { callee = $$4; sub(/^ inlining call to /, "", callee); calls[$$2 + 0, callee] = 1 } \
		END { \
			for (k in calls) { split(k, kc, SUBSEP); fn = ""; best = 0; \
				for (l in start) if (l + 0 <= kc[1] + 0 && l + 0 > best) { best = l + 0; fn = start[l] } \
				got[fn ":" kc[2]] = 1 } \
			n = split(want, w, " "); bad = 0; \
			for (i = 1; i <= n; i++) if (!(w[i] in got)) { print "inline: not inlined: " w[i]; bad = 1 } \
			if (bad) exit 1; print "inline: all " n " reference-path calls inline" }'

bench:
	$(GO) test -bench '$(BENCHFILTER)' -benchtime $(BENCHTIME) -benchmem -run '^$$' .

# bench-json records the run in the tracked JSON form. Diff two runs:
#   go run ./cmd/benchdiff -tolerance 0.20 BENCH_old.json BENCH_new.json
bench-json:
	$(GO) test -bench '$(BENCHFILTER)' -benchtime $(BENCHTIME) -benchmem -run '^$$' . \
		| $(GO) run ./cmd/benchjson -o BENCH_$(BENCHDATE).json
	@echo wrote BENCH_$(BENCHDATE).json

# bench-ci is the perf gate. It measures the change, not the host: the
# base binary is built in a temporary git worktree at $(BENCH_BASE), the
# new one from the working tree, and the two run the reduced set in
# alternation for $(BENCH_CI_ROUNDS) rounds on the same host. benchjson
# folds each side's rounds into medians. Exit 1 on any >$(BENCHDIFF_TOL)
# ns/op, B/op or allocs/op regression (a zero-alloc path must stay zero).
bench-ci:
	rm -rf $(BENCH_CI_DIR)
	git worktree prune
	git worktree add --detach $(BENCH_CI_DIR)/base $(BENCH_BASE)
	cd $(BENCH_CI_DIR)/base && $(GO) test -c -o ../base.test .
	git worktree remove --force $(BENCH_CI_DIR)/base
	$(GO) test -c -o $(BENCH_CI_DIR)/new.test .
	for i in $$(seq $(BENCH_CI_ROUNDS)); do \
		order="base new"; [ $$((i % 2)) = 1 ] || order="new base"; \
		for side in $$order; do \
			$(BENCH_CI_DIR)/$$side.test -test.run '^$$' -test.bench $(BENCH_CI_FILTER) \
				-test.benchtime $(BENCH_CI_TIME) -test.benchmem >> $(BENCH_CI_DIR)/$$side.txt || exit 1; \
		done; \
	done
	$(GO) run ./cmd/benchjson -o $(BENCH_CI_DIR)/base.json < $(BENCH_CI_DIR)/base.txt
	$(GO) run ./cmd/benchjson -o $(BENCH_CI_DIR)/new.json < $(BENCH_CI_DIR)/new.txt
	$(GO) run ./cmd/benchdiff -tolerance $(BENCHDIFF_TOL) $(BENCH_CI_DIR)/base.json $(BENCH_CI_DIR)/new.json

# examples runs each example program, which go build only compiles, and
# requires its output to match examples/testdata/NAME.golden byte for
# byte; a new example needs a golden to pass.
EXAMPLES := $(patsubst examples/%/main.go,%,$(wildcard examples/*/main.go))

examples:
	dir=$$(mktemp -d) && \
	for e in $(EXAMPLES); do \
		$(GO) run ./examples/$$e > $$dir/$$e.out && \
		cmp $$dir/$$e.out examples/testdata/$$e.golden || exit 1; \
	done && rm -r $$dir

tables:
	$(GO) run ./cmd/tables

pressure:
	$(GO) run ./cmd/tables -small -nproc 3 -exp pressuresweep -app FFT \
		-frames 4,2 -chaos-seed 42 -chaos-fail 0.05 -chaos-delay 0.10

# audit replays the protocol-fuzz scripts (the full seed set, including
# the pressure variant) with the online auditor at stride 1: the
# directory invariants are re-validated after every protocol action, and
# any violation dies with the page, its state and the event-ring trace.
audit:
	$(GO) test -run 'TestProtocolFuzz' -count=1 ./internal/numa/

# topo is the topology gate: the ACE goldens must stay byte-identical
# through the generalized topology path, every topology name must resolve
# to its shape, page copies and zero-fills must be priced from the spec
# and the G/L sweep must scale global memory on every registered
# topology, the protocol fuzz must hold on random multi-node machines,
# and the link model's conservation, monotonicity and determinism
# properties must pass — all under -race.
topo:
	$(GO) test -race -count=1 -run 'TestTable3GoldenACE|TestFigure1Golden|TestTable3ACEExplicitTopology|TestTopologyParallelDeterminism|TestGLSweepEveryTopology' ./internal/harness/
	$(GO) test -race -count=1 -run 'TestCopyZeroChargesFromSpec|TestSpecForConfigShapes' ./internal/ace/
	$(GO) test -race -count=1 -run 'TestProtocolFuzzTopology' ./internal/numa/
	$(GO) test -race -count=1 ./internal/topology/

# tournament is the policy-zoo gate: the ranked grid must be
# byte-identical at any -parallel (adaptive policies carry per-run
# state — decaying histograms, a bandit PRNG — so this also proves no
# state leaks across the worker pool), the capability fuzz must hold,
# and at least one adaptive policy must beat the fixed threshold on the
# skewed Zipf probe.
tournament:
	dir=$$(mktemp -d) && \
	$(GO) run ./cmd/tables -small -nproc 3 -exp tournament -csv -parallel 1 > $$dir/p1.csv && \
	$(GO) run ./cmd/tables -small -nproc 3 -exp tournament -csv -parallel 8 > $$dir/p8.csv && \
	cmp $$dir/p1.csv $$dir/p8.csv && rm -r $$dir
	$(GO) test -race -count=1 -run 'TestTournament|TestAdaptiveBeatsThresholdOnZipf' ./internal/harness/
	$(GO) test -race -count=1 -run 'TestProtocolFuzzCapabilities|TestHeatDecay' ./internal/numa/

# avail is the degraded-mode gate: the availability sweep (every Table 3
# app plus Zipf through single-loss, rolling-loss and link-brownout
# schedules) must be byte-identical at any -parallel and under the
# stride-1 online auditor (-audit 1, which panics a run on any protocol
# or quarantine violation), on 4socket and again on 8-processor mesh8,
# where the sweep drops the brownout (mesh8 has no node0-node2 link);
# the sweep must run on the ACE and mesh8 by name, and the
# failure-schedule fuzz (-short subset), the evacuation property tests,
# the rerouting unit tests and the routing property test (every failure
# set on 4socket and mesh8) must hold under -race.
avail:
	dir=$$(mktemp -d) && \
	$(GO) run ./cmd/tables -small -nproc 4 -exp availability -csv -parallel 1 > $$dir/p1.csv && \
	$(GO) run ./cmd/tables -small -nproc 4 -exp availability -csv -parallel 8 > $$dir/p8.csv && \
	$(GO) run ./cmd/tables -small -nproc 4 -exp availability -csv -parallel 8 -audit 1 > $$dir/audit.csv && \
	cmp $$dir/p1.csv $$dir/p8.csv && cmp $$dir/p1.csv $$dir/audit.csv && \
	$(GO) run ./cmd/tables -small -nproc 8 -topology mesh8 -exp availability -csv -parallel 1 > $$dir/mesh8-p1.csv && \
	$(GO) run ./cmd/tables -small -nproc 8 -topology mesh8 -exp availability -csv -parallel 8 > $$dir/mesh8-p8.csv && \
	$(GO) run ./cmd/tables -small -nproc 8 -topology mesh8 -exp availability -csv -parallel 8 -audit 1 > $$dir/mesh8-audit.csv && \
	cmp $$dir/mesh8-p1.csv $$dir/mesh8-p8.csv && cmp $$dir/mesh8-p1.csv $$dir/mesh8-audit.csv && rm -r $$dir
	$(GO) test -race -count=1 -run 'TestAvailabilityOnACE|TestAvailabilityOnMesh8' ./internal/harness/
	$(GO) test -race -count=1 -short -run 'TestProtocolFuzzFailure|TestEvacuation|TestRevivedNodeStartsCold' ./internal/numa/
	$(GO) test -race -count=1 -run 'TestMeshDetour|TestFullyConnectedRelay|TestNodeDownSeversIncidentLinks|TestNodeDownFollowsHealth|TestDegradedChargeDeterminism|TestInterleaveSkipsOfflineNodes|TestRoutingProperties' ./internal/topology/
