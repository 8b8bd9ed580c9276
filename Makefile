GO ?= go
FUZZTIME ?= 10s

.PHONY: all build vet lint lint-json loc fmt-check test test-real test-netcomm race race-real chaos check serve-smoke bench bench-test bench-kernels bench-speedup bench-sequence fuzz-smoke cover

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Static SPMD-invariant checks (sendalias, collective, procescape,
# bytesarg, determinism, floatfold, hotalloc, errdrop). Add -tests to
# also analyze _test.go files; -enable/-disable select analyzers.
lint: loc fmt-check
	$(GO) run ./cmd/pilutlint ./...

# gofmt -l prints the files it would rewrite; any output fails.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

# The figures every simplicity PR quotes (ROADMAP aim 2): non-test Go
# outside bench/, the share of it in internal/service (ROADMAP item 6d),
# and the //pilutlint:ok hotalloc waivers in any .go file (the analyzer's
# own doc and testdata mention it twice). The waiver count is a ratchet —
# loc, and so lint, fails above HOTALLOC_WAIVERS_MAX; lower that with
# every waiver removed. So are the service's two single seams: one peer
# HTTP request builder (cluster.call) and one partitioner call
# (analysisFor) — a second occurrence of either fails loc.
HOTALLOC_WAIVERS_MAX = 16
SERVICE_SRC = $$(find internal/service -name '*.go' -not -name '*_test.go')

loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' | xargs wc -l | \
		awk 'END { print "non-test Go lines outside bench/: " $$1 }'
	@cat $(SERVICE_SRC) | wc -l | awk '{ print "non-test Go lines in internal/service: " $$1 }'
	@for pat in 'http.NewRequestWithContext' 'partition.KWay('; do \
		n=$$(cat $(SERVICE_SRC) | grep -c -F "$$pat"); \
		if [ $$n -gt 1 ]; then echo "internal/service: $$n occurrences of $$pat, want at most 1"; exit 1; fi; \
	done
	@n=$$(grep -rn --include='*.go' 'pilutlint:ok hotalloc' . | wc -l); \
		echo "hotalloc waivers: $$n (ratchet: at most $(HOTALLOC_WAIVERS_MAX))"; \
		[ $$n -le $(HOTALLOC_WAIVERS_MAX) ]

# CI's lint job: same suite, findings written to lint.json (uploaded as
# an artifact) and echoed on failure. Exit 1 = findings, 2 = broken tree.
lint-json:
	$(GO) run ./cmd/pilutlint -json ./... > lint.json || (cat lint.json; exit 1)

test:
	$(GO) test ./...

# The same suite on the wall-clock shared-memory backend: every test that
# builds its world through pcommtest runs on realcomm instead of the
# modelled machine. Results must be bitwise identical.
test-real:
	PILUT_BACKEND=real $(GO) test ./...

# The multi-process socket backend lane: the wall-clock engine and the
# backend contract suite (which runs a two-node netcomm group) at
# GOMAXPROCS 1, 2 and 8 — on one P a rank that yields while it waits must
# not starve the sender, on eight every rank has a P of its own — the
# netcomm package's own suite (frame codec, sever/redial, watchdog,
# spawn smoke), the backend-equivalence pipeline re-run with each
# world's ranks spread across two OS processes, and the sharded-pilutd
# cluster end-to-end tests (peer fetch, peer death, -spawn-peers). Only
# netcomm-aware tests run under the spawn spec: generic suites collect
# per-rank results into shared slices, which no multi-process world can
# fill.
test-netcomm:
	$(GO) test -cpu 1,2,8 ./internal/pcomm/engine ./internal/pcomm/pcommtest ./internal/pcomm/realcomm -count=1
	$(GO) test ./internal/pcomm/netcomm -count=1
	PILUT_BACKEND=netcomm:spawn=2 $(GO) test . -run 'TestBackendBitwiseEquivalence|TestAnalyzeRefactorEquivalence' -count=1
	$(GO) test ./cmd/pilutd -run TestCluster -count=1

# Race-enabled run with reduced problem sizes; matches the CI race lane.
race:
	PILUT_TEST_FAST=1 $(GO) test -race ./...

# Race lane on the real backend: realcomm's mailboxes, barrier and
# collectives carry genuine cross-goroutine data flow, so this is the run
# that actually exercises their memory ordering.
race-real:
	PILUT_TEST_FAST=1 PILUT_BACKEND=real $(GO) test -race ./...

# Chaos lane: the deterministic fault-injection suites (injected panics,
# dropped messages, pivot breakdown, breaker/shedding) race-enabled on
# both in-memory backends — the fault suite includes the netcomm drop
# test that severs a real socket and the delay-inertness check over the
# wire — then the full tier-1 suite replayed under a delay-only fault
# spec (delays must leave every numerical assertion bitwise intact;
# collectives fold in rank order regardless of arrival time), and
# finally the wall-clock engine with the backend contract suite and the
# socket backend's own sever/panic/watchdog paths under the race
# detector.
chaos:
	PILUT_TEST_FAST=1 $(GO) test -race -count=1 ./internal/fault ./internal/service
	PILUT_TEST_FAST=1 PILUT_BACKEND=real $(GO) test -race -count=1 ./internal/fault ./internal/service
	PILUT_TEST_FAST=1 PILUT_FAULTS='seed=7,delay=0.05@1e-6' $(GO) test -count=1 ./internal/core ./internal/krylov ./internal/dist
	PILUT_TEST_FAST=1 PILUT_FAULTS='seed=7,delay=0.05@1e-6' PILUT_BACKEND=real $(GO) test -count=1 ./internal/core ./internal/krylov ./internal/dist
	PILUT_TEST_FAST=1 $(GO) test -race -count=1 ./internal/pcomm/engine ./internal/pcomm/pcommtest
	PILUT_TEST_FAST=1 $(GO) test -race -count=1 ./internal/pcomm/netcomm -run 'TestGroupDropFaultReconnect|TestGroupPanicPropagation|TestGroupWatchdog'
	$(GO) test ./cmd/pilutd -run TestClusterKillPeerFault -count=1

# End-to-end smoke of the solver daemon: builds pilutd, starts it, submits
# the quickstart matrix over HTTP, solves it twice (asserting the second
# solve hits the factorization cache), and shuts it down gracefully.
serve-smoke:
	$(GO) test ./cmd/pilutd -run TestEndToEnd -count=1 -v

# The scoreboard (BENCHMARK.json, bench/README.md): every workload
# untraced, then traced; results land in bench/out. bench/ is a module of
# its own, outside ./..., so its tests need their own target.
bench:
	$(GO) run -C bench .

bench-test:
	cd bench && $(GO) test ./...

# One iteration of each kernel benchmark a cold build is judged by — the
# factorization in the scoreboard's configuration, the serial baseline,
# one MIS call of a threshold level, the engine's blocking points with
# four ranks on two Ps (the oversubscribed case the scoreboard lives in),
# the MatrixMarket reader, the row kernel over a 262 144-column pivot
# range — so they keep compiling and running. For numbers, raise
# -benchtime and alternate with the parent commit.
bench-kernels:
	$(GO) test . -run '^$$' -bench '^BenchmarkFactorCore$$/^real$$/^torso20$$/^p4$$|^BenchmarkSerialILUT$$|^BenchmarkMISPlan$$' -benchtime 1x
	$(GO) test . -run '^$$' -bench '^BenchmarkEngineWait$$' -cpu 2 -benchtime 1x
	$(GO) test ./internal/sparse -run '^$$' -bench 'BenchmarkReadMatrixMarket' -benchtime 1x
	$(GO) test ./internal/ilu -run '^$$' -bench 'BenchmarkEliminateRowSeq/wide' -benchtime 1x

# Real-backend wall-clock speedup curves (factorization and GMRES solve)
# at p in {1,2,4,8,16}; writes BENCH_speedup.json. On hosts with at least
# 8 CPUs the factor curve must show speedup > 1 at p=8 over p=1; on
# smaller hosts the curve is report-only (goroutines timeslice the same
# cores, so only the overhead is visible).
bench-speedup:
	PILUT_BENCH_SPEEDUP_OUT=$(CURDIR)/BENCH_speedup.json \
		$(GO) test . -run TestEmitSpeedupBench -count=1 -v

# Matrix-sequence amortization: a 16-step fixed-pattern sequence solved
# warm (one server: symbolic reuse + warm-started GMRES) vs 16 cold
# solves (fresh server per step); writes BENCH_sequence.json. The warm
# amortized per-step latency must be at least 2x faster.
bench-sequence:
	PILUT_BENCH_SEQUENCE_OUT=$(CURDIR)/BENCH_sequence.json \
		$(GO) test ./internal/service -run TestEmitSequenceBench -count=1 -v

# Short fuzzing pass over every fuzz target; matches the CI fuzz lane.
# Override FUZZTIME for longer local runs, e.g. `make fuzz-smoke FUZZTIME=5m`.
fuzz-smoke:
	$(GO) test ./internal/sparse -run '^$$' -fuzz '^FuzzReadMatrixMarket$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sparse -run '^$$' -fuzz '^FuzzRowTail$$' -fuzztime $(FUZZTIME)

# Aggregate coverage profile across all packages; view with
# `go tool cover -html=coverage.out`.
cover:
	$(GO) test -coverprofile=coverage.out -covermode=atomic ./...
	$(GO) tool cover -func=coverage.out | tail -n 1

check: build vet lint test
