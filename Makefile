# Development entry points for the capacity-planning reproduction.

GO ?= go

.PHONY: all build vet test test-short race lint-metrics bench bench-baseline bench-check tables figures examples clean

all: build vet lint-metrics test

# Metric-naming conventions (snake_case, counters _total, duration
# histograms _seconds) enforced at the call site; see cmd/lintmetrics.
lint-metrics:
	$(GO) run ./cmd/lintmetrics

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# Race-detector pass over the concurrent paths (parallel fit workers,
# fleet runner, metric repository, obs registry/spans), plus a dedicated
# full-length pass over the pooled-workspace fit paths that -short trims.
race:
	$(GO) test -race -short ./...
	$(GO) test -race -run 'Pool|Parallel|Concurrent' ./internal/core/ ./internal/arima/

# One benchmark per paper table/figure plus the ablations (reduced sizes).
bench:
	$(GO) test -bench=. -benchmem ./...

# Every benchmark gate runs against the one committed baseline,
# BENCH.json (see cmd/benchcheck): bench-baseline re-measures and
# rewrites it, bench-check compares and fails on large regressions
# (allocs/op strict, ns/op loose). Each group keeps its own run length:
#   - the fit hot path;
#   - sharded-store scaling: concurrent PutBatch+Series throughput at
#     1/4/16 shards (shards-1 is the old single-lock store, kept in the
#     baseline as the reference point);
#   - incremental-refit tiers: cold grid search vs warm-started shrunken
#     grid vs O(1) state advance, same series and candidate pool.
# The -ratio assertions pin the refit speedups — warm <= 0.2x cold,
# advance <= 0.01x cold. Both sides of each ratio come from the same
# run, but a cold refit fits 24 candidates in parallel and a warm one
# only 4, so the ratio would move with the core count: the refit group
# runs at -cpu 1, with three runs of three iterations each, in both the
# baseline and the check.
FIT_BENCH_GATE = ^(BenchmarkFitARIMA|BenchmarkFitSARIMAX|BenchmarkEngineRun)$$
STORE_BENCH_GATE = ^BenchmarkStoreParallel$$
REFIT_BENCH_GATE = ^BenchmarkRefit(Cold|Warm|Advance)$$
REFIT_BENCH_RUN = -cpu 1 -benchtime 3x -count 3
BENCH_RATIOS = -ratio 'BenchmarkRefitWarm/BenchmarkRefitCold<=0.2' \
	-ratio 'BenchmarkRefitAdvance/BenchmarkRefitCold<=0.01'
BENCH_RUN = $(GO) test -run '^$$' -benchmem

bench-baseline:
	$(BENCH_RUN) -bench '$(FIT_BENCH_GATE)' -benchtime 5x -count 3 . > bench_output.txt
	$(BENCH_RUN) -bench '$(STORE_BENCH_GATE)' -benchtime 300x -count 3 ./internal/metricstore/ >> bench_output.txt
	$(BENCH_RUN) -bench '$(REFIT_BENCH_GATE)' $(REFIT_BENCH_RUN) . >> bench_output.txt
	$(GO) run ./cmd/benchcheck -update $(BENCH_RATIOS) bench_output.txt

bench-check:
	$(BENCH_RUN) -bench '$(FIT_BENCH_GATE)' -benchtime 1x -count 1 . > bench_output.txt
	$(BENCH_RUN) -bench '$(STORE_BENCH_GATE)' -benchtime 100x -count 1 ./internal/metricstore/ >> bench_output.txt
	$(BENCH_RUN) -bench '$(REFIT_BENCH_GATE)' $(REFIT_BENCH_RUN) . >> bench_output.txt
	$(GO) run ./cmd/benchcheck $(BENCH_RATIOS) bench_output.txt

# Full-size reproduction of the evaluation tables (42 days, Table 1 splits).
tables:
	$(GO) run ./cmd/benchtables -table 2a
	$(GO) run ./cmd/benchtables -table 2b

figures:
	$(GO) run ./cmd/benchtables -fig 1
	$(GO) run ./cmd/benchtables -fig 2
	$(GO) run ./cmd/benchtables -fig 3
	$(GO) run ./cmd/benchtables -fig 6
	$(GO) run ./cmd/benchtables -fig 7

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/olap
	$(GO) run ./examples/oltp
	$(GO) run ./examples/thresholds
	$(GO) run ./examples/fleet
	$(GO) run ./examples/migration
	$(GO) run ./examples/transactions

clean:
	$(GO) clean ./...
	rm -f test_output.txt bench_output.txt
