# Targets mirror .github/workflows/ci.yml so local runs match the gates.

GO ?= go

.PHONY: all build fmt-check perfbench-test perfbench-check vet lint lint-stats-baseline test race fuzz microbench bench bench-quick bench-compare obs-smoke resume-smoke telemetry-smoke serve-smoke ci

all: ci

build:
	$(GO) build ./...

# Fails listing the files gofmt would rewrite.
fmt-check:
	! gofmt -l . | grep .

vet:
	$(GO) vet ./...

# perfbench is a module of its own, so the root vet and test never
# compile it against internal API changes.
perfbench-test:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# The pinned-statistics gate: one full pass of each simulator workload at
# the default seed (96 and 35 jobs). perfbench exits 1 unless every
# simulated statistic matches the digests in perfbench/pinned.json.
perfbench-check:
	bash perfbench/run.sh --workload mp-lru --seconds 1 --trace 0
	bash perfbench/run.sh --workload mt-hawkeye --seconds 1 --trace 0

# One gate, two ways to fail: any finding, or a //ziv:ignore waiver
# count above the committed budget in zivlint.stats.json (a change that
# adds waivers must regenerate it, so new debt shows up in the diff).
lint:
	$(GO) run ./cmd/zivlint -stats-gate zivlint.stats.json ./...

# Refresh the committed suppression budget (commit the result).
lint-stats-baseline:
	$(GO) run ./cmd/zivlint -stats zivlint.stats.json ./...

test:
	$(GO) test ./...

# halt_on_error=1 makes the first race fatal instead of a report that
# scrolls past; the raised timeout covers the instrumented harness
# sweeps (the plain suite runs in ~2 min, ~10-15x slower under -race).
race:
	GORACE=halt_on_error=1 $(GO) test -race -timeout=45m ./internal/...

# -fuzzminimizetime bounds the shrinking of each new interesting input;
# at the default 60 s one input can take the whole 20 s budget, leaving
# the worker executing nothing new. The second target holds the private
# cache to its reference model.
fuzz:
	$(GO) test -fuzz=FuzzScheme -fuzztime=20s -fuzzminimizetime=2s ./internal/core
	$(GO) test -fuzz='^FuzzCacheMatchesReference$$' -fuzztime=10s -fuzzminimizetime=2s ./internal/cache

# Every micro-benchmark for one iteration, plus the alloc guards
# (CI's bench-smoke job runs this target).
microbench:
	$(GO) test -run 'NoAllocs' -bench . -benchtime 1x ./internal/...

# Full figure benchmark: cold, serial, fixed workload. Writes BENCH_figs.json
# with refs/sec and the speedup over the recorded seed baselines.
bench:
	$(GO) run ./cmd/zivbench -o BENCH_figs.json

# Fast smoke variant for CI: truncated reference counts, no speedup record.
bench-quick:
	$(GO) run ./cmd/zivbench -quick -o BENCH_quick.json

# Diff a fresh full bench against the committed report; exits nonzero on a
# >5% refs/s regression on any figure.
bench-compare:
	$(GO) run ./cmd/zivbench -o BENCH_new.json
	$(GO) run ./cmd/zivbench -compare BENCH_figs.json BENCH_new.json

# The end-to-end legs of OPERATIONS.md's contract are subtests of
# TestEndToEnd (e2e_test.go), which builds the commands and drives them as
# an operator does; `make test` runs every leg, and each target below runs
# one group. obs-smoke then writes, checks and prints the artifacts that
# CI's obs-smoke job uploads: obsout/ and obs-intervals.md.
obs-smoke:
	$(GO) test -v -run '^TestEndToEnd$$/^obs$$' .
	$(GO) run ./cmd/zivsim -fig fig1 -scale 32 -cores 2 -mixes 1 -homo 0 \
		-warmup 1000 -refs 4000 -obs-interval 2000 -obs-out obsout > /dev/null
	$(GO) run ./cmd/zivreport -checktrace obsout
	$(GO) run ./cmd/zivreport -obs obsout/I-Hawkeye-256KB-hetero.00.intervals.csv > obs-intervals.md
	head -20 obs-intervals.md

# Exit codes, drain and resume over a store (also after SIGKILL), and a
# failed job counted once.
resume-smoke:
	$(GO) test -v -run '^TestEndToEnd$$/^resume$$' .

# The telemetry endpoint, ledger and sweep trace of one sweep.
telemetry-smoke:
	$(GO) test -v -run '^TestEndToEnd$$/^telemetry$$' .

# The zivsimd job API round trip and drain.
serve-smoke:
	$(GO) test -v -run '^TestEndToEnd$$/^serve$$' .

ci: build fmt-check vet perfbench-test perfbench-check lint test race microbench fuzz
