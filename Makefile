GO ?= go

.PHONY: build test race vet lint lint-self fuzz ci bench bench-diff stress chaos scenarios perfbench

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# LINTFLAGS passes flags to rls-lint, e.g. LINTFLAGS=-github for
# GitHub Actions annotations.
lint:
	$(GO) run ./cmd/rls-lint $(LINTFLAGS) ./...

# The analysis suite held to its own standards: the checkers lint the
# checker sources (fixtures under testdata are never loaded).
lint-self:
	$(GO) run ./cmd/rls-lint $(LINTFLAGS) ./internal/analysis ./cmd/rls-lint

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Short deterministic-budget fuzz smoke; CI runs this, longer local runs use
# e.g. `go test -fuzz=FuzzGlobMatch -fuzztime=5m ./internal/glob`.
fuzz:
	$(GO) test -fuzz=FuzzBloomRoundTrip -fuzztime=10s -run '^$$' ./internal/bloom
	$(GO) test -fuzz=FuzzGlobMatch -fuzztime=10s -run '^$$' ./internal/glob
	$(GO) test -fuzz=FuzzDecodeResponse -fuzztime=10s -run '^$$' ./internal/wire

# Repeated race-detector runs over the packages with real lock hierarchies
# (per-table latches, group commit and its Update batches, the catalog
# writes batched through them, connection handling, the client
# demultiplexer, the soft-state sender's circuit breakers) to shake out
# schedule-dependent bugs.
stress:
	$(GO) test -race -count=5 ./internal/storage ./internal/rdb ./internal/server ./internal/client ./internal/lrc ./internal/membership

# Short deterministic chaos profile: the standard workload generators run
# under injected faults (partition, resets, drops) and the run asserts
# quarantine, graceful degradation, and recovery within one soft-state
# period. Seeded fault schedule — two runs inject the same sequence.
chaos:
	$(GO) run ./cmd/rls-bench -trials 1 chaos

# Open-loop scenario smoke: run the scen-* experiments (including the
# sharded scale-out sweep and the replicated-RLI failover chaos scenario)
# at quick parameters, emit the BENCH_*.json perf-trajectory snapshots, and
# check them against the rls-bench/v1 schema. CI uploads the snapshots as
# artifacts.
scenarios:
	$(GO) run ./cmd/rls-bench -quick -bench 9 -json BENCH_9.json \
		scen-steady scen-flash scen-storm scen-churn scen-tenants scen-read-storm \
		scen-shard-scaleout
	$(GO) run ./cmd/rls-bench -validate-json BENCH_9.json
	$(GO) run ./cmd/rls-bench -quick -bench 10 -json BENCH_10.json scen-rli-failover
	$(GO) run ./cmd/rls-bench -validate-json BENCH_10.json

# Perf-trajectory delta: compare the two newest committed BENCH_*.json
# snapshots per scenario phase (achieved rate, p50, p99). Report-only —
# the leading '-' in ci keeps a perf delta from failing the build.
bench-diff:
	$(GO) run ./cmd/rls-bench -diff .

# The benchmark's own unit tests, then a short lrc-churn run as a
# correctness smoke: its oracle checks every answer and reconciles the
# catalog counts, and a wrong answer fails the run.
perfbench:
	cd perfbench && $(GO) test ./...
	python3 perfbench/run.py --workload lrc-churn --seconds 2

ci: build vet lint lint-self race fuzz stress chaos scenarios perfbench bench
	-$(MAKE) bench-diff

# Every benchmark of the paper experiments, the storage engine and the B-tree,
# run once: a smoke that keeps them compiling and running. Measure with a
# real -benchtime, e.g. `go test -bench SnapshotAfterWrite -benchtime 20000x
# ./internal/storage`.
bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' . ./internal/storage ./internal/btree
