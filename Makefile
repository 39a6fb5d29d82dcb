# Convenience targets for the HMC-Sim (Go) repository.

GO ?= go

.PHONY: all build test test-race race bench bench-pair bench-smoke serve serve-pprof metrics-smoke crash-smoke fabric-smoke skip-smoke cache-smoke sse-smoke table1 fig5 faults vet fmt clean

all: vet test build

build:
	$(GO) build ./...

vet:
	@fmt=$$(gofmt -l .); if [ -n "$$fmt" ]; then \
		echo "gofmt needed on:"; echo "$$fmt"; exit 1; fi
	$(GO) vet ./...

fmt:
	gofmt -w .

# test fails a package whose tests run longer than a minute, so tier-1
# cannot quietly grow slow again.
test:
	$(GO) test -timeout 60s ./...

race: test-race

# test-race runs the whole tree under the race detector: a superset of the
# package list of CI's race step.
test-race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# bench-pair is the paired parent-against-change recipe of bench/README.md
# ("Comparing two sets of runs") as one command: it builds ./bench at
# PARENT (any git ref, exported with git archive) and at the working tree
# into .bench_build/, runs seeds 1-10 of every workload on both, the side
# that goes first alternating with the seed, and judges the two result
# files against the bounds in BENCHMARK.json. About 40 minutes; BENCH_FLAGS
# passes flags through to every run (e.g. BENCH_FLAGS='-workload table1').
bench-pair:
	@test -n "$(PARENT)" || { echo "usage: make bench-pair PARENT=<git ref>"; exit 2; }
	rm -rf .bench_build/parent .bench_build/parent.json .bench_build/change.json
	mkdir -p .bench_build/parent
	git archive $(PARENT) | tar -x -C .bench_build/parent
	cd .bench_build/parent && $(GO) build -o ../bench-parent ./bench
	$(GO) build -o .bench_build/bench-change ./bench
	for seed in 1 2 3 4 5 6 7 8 9 10; do \
		if [ $$((seed % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi; \
		for side in $$order; do \
			.bench_build/bench-$$side -seed $$seed -out .bench_build/$$side.json $(BENCH_FLAGS) || exit 1; \
		done; \
	done
	$(GO) run ./bench -compare .bench_build/parent.json .bench_build/change.json

# bench-smoke runs all six benchmark workloads at 1/64 scale for a second
# each, so the benchmark's own in-run checks (digests against an untimed
# reference run, the ledger identities, failed jobs) gate a push. A failed
# check does not change the benchmark's exit status, only its result
# line, so the target looks for that.
bench-smoke:
	mkdir -p .bench_out
	$(GO) run ./bench -scale 64 -seconds 1 > .bench_out/smoke.out || { cat .bench_out/smoke.out; exit 1; }
	@cat .bench_out/smoke.out
	@! grep -q '"correct":false' .bench_out/smoke.out

serve:
	$(GO) run ./cmd/hmcsim-serve

# serve-pprof runs the service with the net/http/pprof endpoints mounted
# under /debug/pprof/ (goroutine stacks, heap and CPU profiles). Opt-in
# because the profiling surface exposes process internals.
serve-pprof:
	$(GO) run ./cmd/hmcsim-serve -pprof

# metrics-smoke validates the /v1/metrics wire shapes end to end: the
# legacy JSON object and the Prometheus text exposition are both scraped
# over real HTTP and parsed line by line.
metrics-smoke:
	$(GO) test -run 'TestMetrics' -v ./internal/server

# crash-smoke is the end-to-end crash-safety check: SIGKILL hmcsim-serve
# mid-job, restart it over the same -data directory, and require the
# recovered job's digests to be bit-identical to an uninterrupted run
# (DESIGN.md §12).
crash-smoke:
	$(GO) test -run 'TestCrashRecovery' -v .
	$(GO) test -run 'TestSuspendResumeDigestIdentical|TestJournalRecovery|TestIdempotentSubmit' -v ./internal/server

# fabric-smoke exercises the multi-cube system-graph layer end to end:
# the fabric conformance suite (pinned result, state, fabric and trace
# digests, with and without fault injection), a 2x2 mesh run through the
# offline CLI, and a topology capture round-tripped through the JSON
# spec loader (DESIGN.md §13).
fabric-smoke:
	$(GO) test -run 'TestFabric' -v ./internal/fabric/... ./internal/server
	$(GO) run ./cmd/hmcsim-fabric -requests 16384
	$(GO) run ./cmd/hmcsim-topo -topo ring -devs 4 -json > $(or $(TMPDIR),/tmp)/hmcsim-ring4.json
	$(GO) run ./cmd/hmcsim-fabric -spec $(or $(TMPDIR),/tmp)/hmcsim-ring4.json -requests 4096

# skip-smoke exercises the event-wheel idle-skip layer end to end: the
# randomized wheel-vs-walk equivalence property (digest + trace stream
# bit-identity, with and without fault injection, across a mid-skip
# suspend/resume and a multi-cube fabric; its walk side keeps the forced
# walk fallback exercised in CI) and the wheel unit tests (DESIGN.md §14).
skip-smoke:
	$(GO) test -run 'TestIdleSkip' -v ./internal/eval
	$(GO) test -run 'TestAdvanceIdle|TestTimedLinkFailure|TestCheckpointCarriesSkipStats' -v ./internal/core

# cache-smoke exercises the content-addressed result cache end to end:
# spec-key canonicalization (field order, defaults, execution hints),
# hit/coalesce provenance and digest identity over real HTTP, verify
# sampling across job-pool sizes, follower cancellation, and the cache
# index rebuild from the journal after a crash (DESIGN.md §15).
cache-smoke:
	$(GO) test -run 'TestJobKey|TestHashJSON' -v ./internal/server/cache ./internal/ckey
	$(GO) test -run 'TestCache|TestCancelFollower|TestLeaderFailure' -v ./internal/server

# sse-smoke exercises the multi-tenant streaming layer end to end: the
# SSE lifecycle over real HTTP (mid-run subscribe, monotone cycles,
# exactly one terminal event, client disconnect, drain cut), bearer
# auth and per-tenant quotas, fair-share dispatch properties, and the
# paging and retry-drain regression tests (DESIGN.md §16).
sse-smoke:
	$(GO) test -run 'TestSSE|TestFairShare|TestFairQueue|TestTenant|TestBearerAuth|TestListPaging|TestShutdownSettlesPendingRetry' -v ./internal/server

table1:
	$(GO) run ./cmd/hmcsim-table1

fig5:
	$(GO) run ./cmd/hmcsim-fig5 -heatmap

faults:
	$(GO) run ./cmd/hmcsim-faults

clean:
	$(GO) clean ./...
