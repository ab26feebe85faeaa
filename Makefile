GO ?= go

.PHONY: all build fmt vet test race bench bench-compare bench-fixtures lint fuzz-smoke fuzz golden profiles check clean

all: check

build:
	$(GO) build ./...

# fmt fails when any Go file in the tree, bench/ and testdata included, is
# not gofmt-formatted, and lists the files.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# vet also vets bench/, a module of its own (its go.mod replaces repro with
# ../), which neither `go build ./...` nor `go vet ./...` reaches: a public
# API change that breaks the benchmark harness fails here, not first in a
# benchmark run.
vet:
	$(GO) vet ./...
	cd bench && $(GO) vet ./...

test:
	$(GO) test ./...

# race runs the suite under the race detector in a shuffled order: tests
# share process-wide state (the cell memo, the period memo, the default
# profile and the pool width), and a fixed order would hide a test that
# passes only after another. A failing package prints the seed of its
# order, and -shuffle=<seed> replays it.
race:
	$(GO) test -race -shuffle=on ./...

# lint runs nvlint, the simulator-aware static analyzer (see DESIGN.md §8 and
# §13): determinism, hot-path allocation-freedom, exit-reason exhaustiveness,
# nopanic, and the v2 pipeline contract (cachegen) — five rules, each
# with a mutant on record that no test catches (DESIGN.md §13.1). -unused-directives keeps the suppression inventory honest: a
# //nvlint comment that no longer suppresses anything fails the gate.
# VERBOSE=1 also prints the hot-path call chains and every suppressed
# finding with its justification.
lint:
	$(GO) run ./cmd/nvlint -unused-directives $(if $(VERBOSE),-v,)

# bench runs the harness and hot-path benchmarks: Figure 7 sequential vs
# parallel pool (each iteration clears the cell memo, so it times
# simulation, not memo hits), stack construction at L1, L2 DVH and L4 (ns,
# bytes and allocations per Build), the Section 4 migration entry at pool
# width 1 (ns and bytes per call), the allocation-free nested Execute path
# in both plan modes, one cold plan compile at L2-L4 (ns, bytes and
# allocations per compile), the workload runner's Run and RunFor (ns and
# allocs per transaction), the page path migration takes: first touch,
# copy and verify of an 8,192-page working set on a 2-level stack, in page
# runs (ns per page), the first quadword written into an untouched region
# of a depth-2 VM, as a guest hypervisor first writes its VCIMT (bytes and
# allocations of the page-table nodes, bitmap chunks and frame leaf it
# creates), and the memory layer: page-table Map, full-page writes and
# quadword writes to fresh pages (ns, bytes and allocations per page).
# It then regenerates BENCH_10.json, the committed machine-readable artifact
# (per-figure modeled cycles and overheads plus ns/op and allocs/op for the
# pipeline's hot paths, uncached vs replayed).
bench:
	$(GO) test -run='^$$' -bench='BenchmarkFigure7|BenchmarkBuild|BenchmarkMigration|BenchmarkExecuteNested|BenchmarkExecute/|BenchmarkCompilePlan|BenchmarkRunnerRun|BenchmarkGuestMemoryPages|BenchmarkGuestMemoryFirstTouch|BenchmarkPageTableMap|BenchmarkAddressSpaceWrite' -benchmem ./internal/experiment/ ./internal/hyper/ ./internal/workload/ ./internal/mem/
	$(GO) run ./cmd/nvperf -o BENCH_10.json

# bench-compare re-collects the artifact and gates it against the committed
# BENCH_10.json on host-portable quantities only: Table 3 and delivery-storm
# cycles must match exactly, no hot-path benchmark may exceed the baseline's
# allocs/op or B/op, and steady-state replay must stay allocation-free and
# >= 5x faster than the uncached recursion (measured in the same run) on the
# L3 forward and L3 timer-delivery paths. Absolute ns/op is never gated.
bench-compare:
	$(GO) run ./cmd/nvperf -compare BENCH_10.json

# bench-fixtures runs the benchmark module's fixture tests: the committed
# fixtures regenerated with the plan caches off (TestFixturesWithoutPlanCache:
# the nvbench -all transcript, a stride of the cell universe and each
# workload's fingerprints) and each workload's seed contract (TestSeeds). A
# change that moves what a workload computes fails here instead of in a
# benchmark run. It writes nothing into the tree. TestWorkloads, which runs
# every workload at tiny scale and reads wall-clock coverage, is left out:
# it fails on loaded hosts (ROADMAP item 5).
bench-fixtures:
	cd bench && $(GO) test -run '^(TestFixturesWithoutPlanCache|TestSeeds)$$' ./...

# FUZZ_TARGETS are the native fuzz targets as package:Target pairs — the
# targets in internal/check (among them FuzzLAPIC and FuzzMergeChain, the
# only checks of IRR/ISR disjointness and vmx.Merge associativity, which the
# invariant checker does not re-check), the sparse bitmap, byte-extent
# address-space and cached page-table walk differentials in internal/mem,
# the event engine's heap-vs-sorted-slice differential in internal/sim, and
# the fixed-offset VMCS against a map-backed one in internal/vmx.
# go test allows only one -fuzz per invocation, so fuzz-smoke loops.
# FUZZTIME=100x bounds each target to 100 new inputs beyond the seed corpus
# — a mutation smoke pass, not a campaign; use `make fuzz FUZZTIME=30s` for
# a real one.
FUZZ_TARGETS := \
	./internal/check/:FuzzHistogram \
	./internal/check/:FuzzLAPIC \
	./internal/check/:FuzzMergeChain \
	./internal/check/:FuzzConfigSpace \
	./internal/check/:FuzzRestoreSnapshot \
	./internal/check/:FuzzStackCell \
	./internal/check/:FuzzPlanCache \
	./internal/mem/:FuzzBitmap \
	./internal/mem/:FuzzAddressSpace \
	./internal/mem/:FuzzPageTable \
	./internal/sim/:FuzzEngine \
	./internal/vmx/:FuzzVMCS
FUZZTIME ?= 100x

fuzz-smoke fuzz:
	@for t in $(FUZZ_TARGETS); do \
		pkg=$${t%%:*}; name=$${t##*:}; \
		echo "fuzz $$name in $$pkg ($(FUZZTIME))"; \
		$(GO) test $$pkg -run='^$$' -fuzz="^$$name$$" -fuzztime=$(FUZZTIME) || exit 1; \
	done

# golden regenerates the committed experiment fixtures in place, under
# internal/experiment/testdata: each golden/<entry>.golden is the text of
# the registry entry it is named after (Table 3, Figures 7-10, the two
# stage breakdowns, the storms; TestGoldenMatrix), runfor.golden what the
# event timeline fires (TestRunForGolden), stage-tables.golden the stage
# tables of cells no entry renders (TestCellStageTables), and
# migration-rounds.golden the Section 4 migrations at a bandwidth that
# makes them iterate (TestMigrationRoundsGolden). Only for deliberate model
# changes: `make check` never runs it and diffs every fixture byte-for-byte
# through those tests, so an accidental regeneration fails the gate as a
# diff in git, not silently. It never creates a registry entry's fixture,
# and it leaves bench/testdata/eval-all.golden, the `nvbench -all`
# transcript, to `bash bench/run.sh -update`.
golden:
	NVSIM_UPDATE_GOLDEN=1 $(GO) test ./internal/experiment/ -run '^(TestGoldenMatrix|TestRunForGolden|TestCellStageTables|TestMigrationRoundsGolden)$$' -count=1

# profiles runs the calibration-profile sweep (internal/profile): every
# registered testbed profile is anchor-validated against live measurement,
# run through the internal/check invariant sweep across the evaluation
# configurations, and held to the paper's metamorphic properties (exit
# multiplication, the DVH reduction) — proving the engine's claims are
# profile-independent while the absolute cycles shift.
profiles:
	$(GO) test ./internal/profile/ -count=1

# check is the full gate: everything must build, vet clean, lint clean
# under nvlint, pass the test suite under the race detector (the parallel
# harness runs Worlds on multiple goroutines, so -race is part of tier 1,
# not an extra), survive a fuzz smoke pass over the fuzz targets, hold the
# committed benchmark baseline (bench-compare) and the benchmark's cache-off
# fixtures (bench-fixtures), and pass the per-profile calibration sweep
# (profiles). fmt runs first: formatting is the cheapest gate.
check: fmt build vet lint race fuzz-smoke bench-compare bench-fixtures profiles

clean:
	$(GO) clean ./...
