# Targets mirror .github/workflows/ci.yml so local runs match the gates.

GO ?= go

.PHONY: all build fmt-check perfbench-test perfbench-check vet lint lint-stats-baseline test race fuzz microbench bench bench-quick bench-compare obs-smoke resume-smoke telemetry-smoke serve-smoke ci

all: ci

build:
	$(GO) build ./...

# Fails listing the files gofmt would rewrite.
fmt-check:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then echo "files need gofmt:"; echo "$$unformatted"; exit 1; fi

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
# the worker executing nothing new.
fuzz:
	$(GO) test -fuzz=FuzzScheme -fuzztime=20s -fuzzminimizetime=2s ./internal/core

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

# Tiny instrumented run, trace validation and the interval report of one
# run (CI's obs-smoke job runs this target and uploads obsout/ and
# obs-intervals.md).
obs-smoke:
	$(GO) run ./cmd/zivsim -fig fig1 -scale 32 -cores 2 -mixes 1 -homo 0 \
		-warmup 1000 -refs 4000 -obs-interval 2000 -obs-out obsout > /dev/null
	$(GO) run ./cmd/zivreport -checktrace obsout
	$(GO) run ./cmd/zivreport -obs "$$(ls obsout/*.intervals.csv | head -1)" > obs-intervals.md
	head -20 obs-intervals.md

# End-to-end interrupt/resume check (OPERATIONS.md): options that cannot
# build a machine (-scale 3) must exit 2 before simulating; a clean tiny sweep
# whose -progress line must end on "K/K runs" (the one run whose sink has
# no other output), the same sweep drained after 3 jobs via fault
# injection (must exit 4),
# then a rerun over the same -store that must produce byte-identical
# output. The multi-threaded fig16 repeats the clean, drained and resumed
# runs on its own store. Then a hard kill: a longer sweep (24 jobs, a few seconds) is
# SIGKILLed once its store holds two results, and the rerun over that
# store must match a clean run byte for byte while its ledger shows at
# least two results adopted from the store and at least one simulated.
# Then a failed job shared by six figures: `-fig all` with one job
# faulted must exit 3 and count that job once — one failed job on
# stderr, "| 1 failed |" on the last progress line and one failed row
# in the ledger report — and a faultspec naming an attempt count
# (`panic:X@1`) must be rejected with exit 2.
# Uses built binaries, not `go run`, because go run collapses exit codes.
RESUME_SMOKE_FLAGS = -fig fig1 -scale 32 -cores 2 -mixes 2 -homo 0 \
	-warmup 1000 -refs 4000 -parallel 1 -csv
RESUME_SMOKE_MT_FLAGS = -fig fig16 -scale 32 -cores 2 -mixes 2 -homo 0 \
	-warmup 1000 -refs 4000 -tpce-cores 4 -parallel 1 -csv
RESUME_SMOKE_ALL_FLAGS = -fig all -scale 32 -cores 2 -mixes 1 -homo 0 \
	-warmup 1000 -refs 4000 -tpce-cores 4 -parallel 2 -csv

resume-smoke:
	rm -rf resume-smoke.tmp && mkdir -p resume-smoke.tmp
	$(GO) build -o resume-smoke.tmp/zivsim ./cmd/zivsim
	$(GO) build -o resume-smoke.tmp/zivreport ./cmd/zivreport
	./resume-smoke.tmp/zivsim -fig fig1 -scale 3 > /dev/null 2>&1; \
		st=$$?; if [ $$st -ne 2 ]; then \
			echo "resume-smoke: -scale 3: want exit 2 (invalid options), got $$st"; exit 1; fi
	./resume-smoke.tmp/zivsim $(RESUME_SMOKE_FLAGS) -progress > resume-smoke.tmp/clean.csv \
		2> resume-smoke.tmp/progress.log
	@last=$$(tr '\r' '\n' < resume-smoke.tmp/progress.log | grep 'runs' | tail -1); \
	echo "$$last" | grep -Eq '^([1-9][0-9]*)/\1 runs' || { \
		echo "resume-smoke: -progress did not end on a K/K runs line: '$$last'"; exit 1; }
	./resume-smoke.tmp/zivsim $(RESUME_SMOKE_FLAGS) -store resume-smoke.tmp/store \
		-faultspec 'drain-after:3' > resume-smoke.tmp/drained.csv; \
		st=$$?; if [ $$st -ne 4 ]; then \
			echo "resume-smoke: drained run: want exit 4 (interrupted), got $$st"; exit 1; fi
	./resume-smoke.tmp/zivsim $(RESUME_SMOKE_FLAGS) -store resume-smoke.tmp/store \
		> resume-smoke.tmp/resumed.csv
	cmp resume-smoke.tmp/clean.csv resume-smoke.tmp/resumed.csv
	@echo "resume-smoke: resumed sweep is byte-identical to the clean run"
	./resume-smoke.tmp/zivsim $(RESUME_SMOKE_MT_FLAGS) > resume-smoke.tmp/mt-clean.csv
	./resume-smoke.tmp/zivsim $(RESUME_SMOKE_MT_FLAGS) -store resume-smoke.tmp/mt-store \
		-faultspec 'drain-after:3' > resume-smoke.tmp/mt-drained.csv; \
		st=$$?; if [ $$st -ne 4 ]; then \
			echo "resume-smoke: drained fig16 run: want exit 4 (interrupted), got $$st"; exit 1; fi
	./resume-smoke.tmp/zivsim $(RESUME_SMOKE_MT_FLAGS) -store resume-smoke.tmp/mt-store \
		> resume-smoke.tmp/mt-resumed.csv
	cmp resume-smoke.tmp/mt-clean.csv resume-smoke.tmp/mt-resumed.csv
	@echo "resume-smoke: resumed fig16 sweep is byte-identical to the clean run"
	./resume-smoke.tmp/zivsim $(RESUME_SMOKE_FLAGS) -refs 100000 > resume-smoke.tmp/clean-long.csv
	./resume-smoke.tmp/zivsim $(RESUME_SMOKE_FLAGS) -refs 100000 -store resume-smoke.tmp/killed \
		> /dev/null 2>&1 & \
	pid=$$!; \
	for i in $$(seq 1 600); do \
		[ "$$(ls resume-smoke.tmp/killed 2>/dev/null | grep -c '\.json$$')" -ge 2 ] && break; \
		sleep 0.05; \
	done; \
	kill -9 $$pid || { echo 'resume-smoke: the sweep ended before the kill'; exit 1; }; \
	wait $$pid; true
	./resume-smoke.tmp/zivsim $(RESUME_SMOKE_FLAGS) -refs 100000 -store resume-smoke.tmp/killed \
		-ledger resume-smoke.tmp/killed.ndjson > resume-smoke.tmp/rerun.csv
	cmp resume-smoke.tmp/clean-long.csv resume-smoke.tmp/rerun.csv
	./resume-smoke.tmp/zivreport -ledger resume-smoke.tmp/killed.ndjson > resume-smoke.tmp/killed.md
	@hits=$$(awk -F'|' '$$2 ~ /^ cache-hit $$/ {print $$3+0}' resume-smoke.tmp/killed.md); \
	done=$$(awk -F'|' '$$2 ~ /^ done $$/ {print $$3+0}' resume-smoke.tmp/killed.md); \
	if [ "$${hits:-0}" -lt 2 ] || [ "$${done:-0}" -lt 1 ]; then \
		echo "resume-smoke: rerun after the kill: $$hits cache-hit, $$done done; want >= 2 and >= 1"; \
		cat resume-smoke.tmp/killed.md; exit 1; fi; \
	echo "resume-smoke: rerun after SIGKILL is byte-identical ($$hits adopted, $$done simulated)"
	./resume-smoke.tmp/zivsim $(RESUME_SMOKE_ALL_FLAGS) -progress -ledger resume-smoke.tmp/faulted.ndjson \
		-faultspec 'panic:NI-LRU-256KB|hetero.00' > resume-smoke.tmp/faulted.csv \
		2> resume-smoke.tmp/faulted.log; \
		st=$$?; if [ $$st -ne 3 ]; then \
			echo "resume-smoke: faulted -fig all: want exit 3 (failed jobs), got $$st"; exit 1; fi
	@grep -q '^zivsim: 1 job(s) failed' resume-smoke.tmp/faulted.log || { \
		echo "resume-smoke: faulted -fig all: want one failed job on stderr"; \
		grep 'job(s) failed' resume-smoke.tmp/faulted.log; exit 1; }
	@last=$$(tr '\r' '\n' < resume-smoke.tmp/faulted.log | grep 'runs' | tail -1); \
	echo "$$last" | grep -q '| 1 failed |' || { \
		echo "resume-smoke: faulted -fig all: last progress line '$$last' does not count one failed job"; exit 1; }
	./resume-smoke.tmp/zivreport -ledger resume-smoke.tmp/faulted.ndjson > resume-smoke.tmp/faulted.md
	@grep -q '^| failed | 1 |$$' resume-smoke.tmp/faulted.md || { \
		echo "resume-smoke: faulted -fig all: the ledger does not count one failed job"; \
		cat resume-smoke.tmp/faulted.md; exit 1; }
	@echo "resume-smoke: a failed job shared by every figure ran and was counted once"
	./resume-smoke.tmp/zivsim -fig fig1 -faultspec 'panic:X@1' > /dev/null 2>&1; \
		st=$$?; if [ $$st -ne 2 ]; then \
			echo "resume-smoke: -faultspec 'panic:X@1': want exit 2 (invalid options), got $$st"; exit 1; fi
	rm -rf resume-smoke.tmp

# End-to-end telemetry check (OPERATIONS.md): run a tiny sweep with the
# full telemetry surface attached — HTTP endpoint on an ephemeral port,
# run ledger, sweep trace, result store — scrape /healthz and /metrics
# while the endpoint lingers, stop the linger with a single SIGINT (must
# still exit 0), then validate every artifact with zivreport: the scraped
# done counter must be nonzero and equal the ledger's done row, since
# both count the same lifecycle records. Uses a built binary, not
# `go run`, because go run collapses exit codes.
TELEMETRY_SMOKE_FLAGS = -fig fig1 -scale 32 -cores 2 -mixes 2 -homo 0 \
	-warmup 1000 -refs 4000 -parallel 1 -csv

telemetry-smoke:
	rm -rf telemetry-smoke.tmp && mkdir -p telemetry-smoke.tmp
	$(GO) build -o telemetry-smoke.tmp/zivsim ./cmd/zivsim
	$(GO) build -o telemetry-smoke.tmp/zivreport ./cmd/zivreport
	./telemetry-smoke.tmp/zivsim $(TELEMETRY_SMOKE_FLAGS) \
		-telemetry-addr 127.0.0.1:0 -telemetry-linger 60s \
		-store telemetry-smoke.tmp/store \
		-ledger telemetry-smoke.tmp/run.ndjson \
		-sweep-trace telemetry-smoke.tmp/sweep.trace.json \
		> telemetry-smoke.tmp/out.csv 2> telemetry-smoke.tmp/stderr.log & \
	pid=$$!; \
	for i in $$(seq 1 300); do \
		grep -q 'telemetry lingering' telemetry-smoke.tmp/stderr.log 2>/dev/null && break; \
		sleep 0.2; \
	done; \
	grep -q 'telemetry lingering' telemetry-smoke.tmp/stderr.log || { \
		echo 'telemetry-smoke: sweep never reached the linger phase'; \
		cat telemetry-smoke.tmp/stderr.log; kill $$pid 2>/dev/null; exit 1; }; \
	addr=$$(sed -n 's|.*telemetry on http://\([^/]*\)/metrics.*|\1|p' telemetry-smoke.tmp/stderr.log); \
	curl -sf "http://$$addr/healthz" | grep -q '"ok"' || { \
		echo 'telemetry-smoke: /healthz did not answer ok'; kill $$pid 2>/dev/null; exit 1; }; \
	curl -sf "http://$$addr/metrics" > telemetry-smoke.tmp/metrics.txt || { \
		echo 'telemetry-smoke: /metrics scrape failed'; kill $$pid 2>/dev/null; exit 1; }; \
	kill -INT $$pid; wait $$pid; st=$$?; \
	if [ $$st -ne 0 ]; then \
		echo "telemetry-smoke: zivsim exited $$st after one interrupt, want 0"; exit 1; fi
	./telemetry-smoke.tmp/zivreport -checkmetrics telemetry-smoke.tmp/metrics.txt
	./telemetry-smoke.tmp/zivreport -checktrace telemetry-smoke.tmp/sweep.trace.json
	./telemetry-smoke.tmp/zivreport -ledger telemetry-smoke.tmp/run.ndjson \
		> telemetry-smoke.tmp/ledger.md
	@n=$$(sed -n 's/^zivsim_sweep_jobs_total{outcome="done"} \([0-9]*\)$$/\1/p' telemetry-smoke.tmp/metrics.txt); \
	led=$$(awk -F'|' '$$2 ~ /^ done $$/ {print $$3+0}' telemetry-smoke.tmp/ledger.md); \
	if [ "$${n:-0}" -lt 1 ] || [ "$$led" != "$$n" ]; then \
		echo "telemetry-smoke: scraped done counter '$$n', ledger done row '$$led'; want equal and > 0"; \
		cat telemetry-smoke.tmp/ledger.md; exit 1; fi
	@echo "telemetry-smoke: metrics, trace and ledger all validate"
	rm -rf telemetry-smoke.tmp

# End-to-end job-API check (OPERATIONS.md, docs/api.md): start zivsimd on
# an ephemeral port, submit a tiny sweep over HTTP, poll it to completion,
# compare the served table against a direct zivsim run of the same
# options, validate a live /metrics scrape with zivreport -checkmetrics,
# then SIGTERM the server and require a clean exit 0. Uses built
# binaries, not `go run`, because go run collapses exit codes.
SERVE_SMOKE_CLI_FLAGS = -fig fig1 -scale 32 -cores 2 -mixes 2 -homo 0 \
	-warmup 1000 -refs 4000 -parallel 1
SERVE_SMOKE_BODY = {"figs":["fig1"],"options":{"scale":32,"cores":2,"hetero_mixes":2,"homo_mixes":0,"warmup":1000,"measure":4000}}

serve-smoke:
	rm -rf serve-smoke.tmp && mkdir -p serve-smoke.tmp
	$(GO) build -o serve-smoke.tmp/zivsim ./cmd/zivsim
	$(GO) build -o serve-smoke.tmp/zivsimd ./cmd/zivsimd
	$(GO) build -o serve-smoke.tmp/zivreport ./cmd/zivreport
	./serve-smoke.tmp/zivsim $(SERVE_SMOKE_CLI_FLAGS) \
		| grep -v '^(fig' > serve-smoke.tmp/direct.txt
	./serve-smoke.tmp/zivsimd -addr 127.0.0.1:0 -state-dir serve-smoke.tmp/state \
		2> serve-smoke.tmp/stderr.log & \
	pid=$$!; \
	for i in $$(seq 1 100); do \
		grep -q 'serving on' serve-smoke.tmp/stderr.log 2>/dev/null && break; \
		sleep 0.1; \
	done; \
	addr=$$(sed -n 's|.*serving on http://\([^ ]*\).*|\1|p' serve-smoke.tmp/stderr.log); \
	[ -n "$$addr" ] || { echo 'serve-smoke: server never announced its address'; \
		cat serve-smoke.tmp/stderr.log; kill $$pid 2>/dev/null; exit 1; }; \
	curl -sf -XPOST "http://$$addr/v1/jobs" -d '$(SERVE_SMOKE_BODY)' \
		> serve-smoke.tmp/submit.json || { \
		echo 'serve-smoke: submit failed'; kill $$pid 2>/dev/null; exit 1; }; \
	id=$$(python3 -c 'import json,sys; print(json.load(sys.stdin)["id"])' \
		< serve-smoke.tmp/submit.json); \
	for i in $$(seq 1 600); do \
		curl -sf "http://$$addr/v1/jobs/$$id" > serve-smoke.tmp/job.json; \
		grep -q '"state":"done"' serve-smoke.tmp/job.json && break; \
		if grep -Eq '"state":"(failed|canceled)"' serve-smoke.tmp/job.json; then \
			echo 'serve-smoke: job did not succeed'; cat serve-smoke.tmp/job.json; \
			kill $$pid 2>/dev/null; exit 1; fi; \
		sleep 0.2; \
	done; \
	grep -q '"state":"done"' serve-smoke.tmp/job.json || { \
		echo 'serve-smoke: job never finished'; kill $$pid 2>/dev/null; exit 1; }; \
	python3 -c 'import json,sys; d=json.load(open(sys.argv[1])); sys.stdout.write(d["figures"][0]["text"])' \
		serve-smoke.tmp/job.json > serve-smoke.tmp/served.txt; \
	python3 -c 'import sys; a=open(sys.argv[1]).read().rstrip("\n"); b=open(sys.argv[2]).read().rstrip("\n"); sys.exit(0 if a==b else 1)' \
		serve-smoke.tmp/direct.txt serve-smoke.tmp/served.txt || { \
		echo 'serve-smoke: served table differs from the direct zivsim run'; \
		diff serve-smoke.tmp/direct.txt serve-smoke.tmp/served.txt; \
		kill $$pid 2>/dev/null; exit 1; }; \
	curl -sf "http://$$addr/metrics" > serve-smoke.tmp/metrics.txt || { \
		echo 'serve-smoke: /metrics scrape failed'; kill $$pid 2>/dev/null; exit 1; }; \
	kill -TERM $$pid; wait $$pid; st=$$?; \
	if [ $$st -ne 0 ]; then \
		echo "serve-smoke: zivsimd exited $$st after SIGTERM, want 0"; exit 1; fi
	./serve-smoke.tmp/zivreport -checkmetrics serve-smoke.tmp/metrics.txt
	grep -q 'zivsimd_jobs_total{state="done"} 1' serve-smoke.tmp/metrics.txt
	@n=$$(sed -n 's/^zivsim_sweep_jobs_total{outcome="done"} \([0-9]*\)$$/\1/p' serve-smoke.tmp/metrics.txt); \
	[ "$${n:-0}" -ge 1 ] || { \
		echo "serve-smoke: zivsim_sweep_jobs_total{outcome=\"done\"} is '$$n', want > 0"; exit 1; }
	grep -q 'drained cleanly' serve-smoke.tmp/stderr.log
	@echo "serve-smoke: job API round-trip, metrics and clean drain all validate"
	rm -rf serve-smoke.tmp

ci: build fmt-check vet perfbench-test perfbench-check lint test race
