# Development entry points. Performance has one record and one gate, both
# benchmark/'s (benchmark/README.md, BENCHMARK.json): `make bench` prints every
# number the docs cite, `make bench-gate` compares this checkout with its
# parent commit on this host and fails on an end-to-end regression beyond the
# bound BENCHMARK.json fixes. Nothing is recorded in the repository, so there
# is no baseline to re-record. Allocation counts are not a benchmark: they are
# a tier-1 test (TestAllocCeilings in alloc_test.go).

GO ?= go
# BASE is the commit bench-gate compares this checkout against.
BASE ?= HEAD~1
# Packages holding property tests; only their test binaries register the
# -proptest.* flags, so soak runs must enumerate them instead of using ./...
PROP_PACKAGES = . ./internal/proptest ./internal/proptest/scenario \
	./internal/core ./internal/lts ./internal/risk ./internal/anonymize \
	./internal/pseudorisk ./internal/runtime ./internal/modelstore ./internal/cluster \
	./internal/explore ./internal/report
ROUNDS ?= 64
FUZZTIME ?= 30s
# GOMAXPROCS values test-cpu runs every test at.
CPUS ?= 1,4

.PHONY: build test test-cpu test-router vet fmt-check bench bench-gate bench-gate-selftest test-props fuzz cache-clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# test-cpu runs the whole suite at each GOMAXPROCS value in CPUS, plain and
# then under the race detector. Byte-identity claims (artifacts, digests,
# goldens) must hold on one core and on several; a single `go test` only
# ever sees the host's core count.
test-cpu:
	$(GO) test -cpu $(CPUS) ./...
	$(GO) test -race -cpu $(CPUS) ./...

# test-router soaks the router's state machine and the cluster protocols built
# on it — step tests, retries, a node's ack-after-apply and its fence race,
# membership changes, evictions and the seeded fault harness — under the race detector, ten times at GOMAXPROCS 1 and 4:
# an interleaving bug shows up as a flake, so one run is not evidence. About
# four and a half minutes on two cores.
ROUTER_TESTS = ^(TestStep|TestNode(IngestAppliesEvents|FenceRacingIngest)|TestRouter(BackoffSchedule|StatsPersistent5xx|429TrimAcrossRetries)|TestSendDeadline|TestClusterLiveJoin|TestClusterGracefulLeave|TestAbortedChange|TestEvict|TestFailedEviction|TestFencedNode|TestClusterEvictFailover|TestProberEvicts|TestClusterFaultDeterminismGolden|TestHandoffChunking|TestLeaveChunkBoundaries|TestAbortWaitsForChunkInFlight|TestRegisterChunksAndResets|TestClusterAnalysesEachShapeOnce)
test-router:
	$(GO) test -race -count=10 -cpu 1,4 -run '$(ROUTER_TESTS)' ./internal/cluster/

vet:
	$(GO) vet ./...

# fmt-check fails, listing them, when any file is not gofmt-clean.
fmt-check:
	@out="$$(gofmt -l .)"; [ -z "$$out" ] || { echo "not gofmt-clean:"; echo "$$out"; exit 1; }

# bench is the one command behind every performance number in the docs: an
# untraced pass over the six workloads prints the end-to-end records (one JSON
# object per line: op_p50_ms, work_per_s, peak_rss_mb, setup_s, and the host,
# toolchain and commit they were measured on), then a traced pass prints the
# per-layer records. About two minutes a pass.
bench:
	bash benchmark/run.sh -all
	bash benchmark/run.sh -all -trace 1

# bench-gate is the perf-regression gate. It checks BASE out into a git
# worktree under .bench_gate/, runs three pairs of `benchmark/run.sh -all`
# (pair i on seed i, at the benchmark's own run length, the side that goes
# first alternating) and hands both sets of records to the benchmark's
# comparer, whose exit status is the gate's: non-zero when an end-to-end
# metric's median worsened beyond its bound, when any run was wrong, or when
# the sides ran on different core counts. A change to the benchmark's own
# definition has no comparable baseline and passes. About 13 minutes on two
# cores; the worktree is removed however the run ends.
bench-gate:
	@set -eu; gate="$$PWD/.bench_gate"; \
	git rev-parse --verify --quiet '$(BASE)^{commit}' > /dev/null \
		|| { echo "bench-gate: BASE=$(BASE) is not a commit here (a shallow clone has no parent: fetch with full history)"; exit 1; }; \
	if ! git diff --quiet '$(BASE)' -- benchmark BENCHMARK.json; then \
		echo "bench-gate: benchmark/ or BENCHMARK.json differs from $(BASE): the benchmark's definition changed, nothing is comparable (the baseline is re-measured after such a change)"; \
		exit 0; \
	fi; \
	trap 'git worktree remove --force "$$gate/base" 2> /dev/null || true; git worktree prune' EXIT; \
	trap 'exit 130' INT TERM; \
	rm -rf "$$gate"; git worktree prune; mkdir -p "$$gate"; \
	git worktree add --quiet --detach "$$gate/base" '$(BASE)'; \
	for i in 1 2 3; do \
		sides="base head"; [ $$((i % 2)) -eq 1 ] || sides="head base"; \
		for side in $$sides; do \
			dir="$$PWD"; [ $$side = head ] || dir="$$gate/base"; \
			echo "bench-gate: pair $$i, $$side"; \
			bash "$$dir/benchmark/run.sh" -all -seed $$i >> "$$gate/$$side.jsonl"; \
		done; \
	done; \
	bash benchmark/run.sh -compare "$$gate/base.jsonl" "$$gate/head.jsonl"

# bench-gate-selftest proves the gate fires, on one real record (needs jq): the
# record against itself passes; against a copy whose op_p50_ms is 1.5 times
# slower it fails with a BEYOND row; against a copy that reports a failed
# operation it fails.
bench-gate-selftest:
	@set -eu; t="$$PWD/.bench_gate/selftest"; rm -rf "$$t"; mkdir -p "$$t"; trap 'rm -rf "$$t"' EXIT; \
	bash benchmark/run.sh -workload assess_population -seconds 1 | head -n 1 > "$$t/real.jsonl"; \
	jq -c '.metrics.op_p50_ms.value *= 1.5' "$$t/real.jsonl" > "$$t/slow.jsonl"; \
	jq -c '.failed = 1' "$$t/real.jsonl" > "$$t/failed.jsonl"; \
	bash benchmark/run.sh -compare "$$t/real.jsonl" "$$t/real.jsonl" > /dev/null \
		|| { echo "bench-gate-selftest: a record compared with itself did not pass"; exit 1; }; \
	if bash benchmark/run.sh -compare "$$t/real.jsonl" "$$t/slow.jsonl" > "$$t/slow.out" 2>&1; then \
		echo "bench-gate-selftest: an op_p50_ms 1.5 times slower passed the gate"; exit 1; \
	fi; \
	grep -q BEYOND "$$t/slow.out" || { echo "bench-gate-selftest: the slower record failed without a BEYOND row:"; cat "$$t/slow.out"; exit 1; }; \
	if bash benchmark/run.sh -compare "$$t/real.jsonl" "$$t/failed.jsonl" > /dev/null 2>&1; then \
		echo "bench-gate-selftest: a record with a failed operation passed the gate"; exit 1; \
	fi; \
	echo "bench-gate-selftest: ok"

# test-props soaks the property suites with more rounds per property than the
# bounded default that plain `go test ./...` runs (ROUNDS=64, override at
# will). A failure prints the exact `-proptest.seed=N` one-liner to replay it.
test-props:
	$(GO) test -count=1 $(PROP_PACKAGES) -proptest.rounds=$(ROUNDS)

# fuzz runs every native fuzz target of the module for FUZZTIME each. The
# targets are discovered, not listed: `go test -list` prints each package's
# Fuzz functions before its "ok" line, and go test accepts one -fuzz target
# per invocation, hence the loop. New crashers land in the package's
# testdata/fuzz/<Target>/ corpus; commit them.
fuzz:
	@targets=$$($(GO) test -list='^Fuzz' ./... | awk '/^Fuzz/ { t[n++] = $$1; next } \
		/^ok/ { for (i = 0; i < n; i++) print $$2 " " t[i]; n = 0 } /^FAIL/ { bad = 1 } END { exit bad }') || \
		{ echo "fuzz: listing the fuzz targets failed"; exit 1; }; \
	test -n "$$targets" || { echo "fuzz: no fuzz targets found"; exit 1; }; \
	echo "$$targets" | while read -r pkg target; do \
		echo "fuzz: $$target ($$pkg)"; \
		$(GO) test -run='^$$' -fuzz="^$$target\$$" -fuzztime=$(FUZZTIME) "$$pkg" || exit 1; \
	done

# cache-clean removes local persistent model-cache directories (the -model-cache
# registries the CLIs write next to the repo).
cache-clean:
	rm -rf .model-cache
	find . -name '*.psm' -not -path './.git/*' -delete
