GO ?= go
FUZZTIME ?= 10s

.PHONY: all build vet lint lint-json loc fmt-check test test-real test-netcomm race race-real chaos check serve-smoke bench bench-test bench-kernels bench-speedup bench-sequence fuzz-smoke cover examples golden

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
# outside bench/ and testdata/ (GO_SRC: the analyzers' golden inputs are
# not program code), the share of it in internal/service (ROADMAP item 6d),
# and the //pilutlint:ok hotalloc waivers in any .go file (the analyzer's
# own doc and testdata mention it twice). The waiver count is a ratchet —
# loc, and so lint, fails above HOTALLOC_WAIVERS_MAX; lower that with
# every waiver removed. So are the service's two single seams: one peer
# HTTP request builder (cluster.call) and one call of the front end
# core.Prepare (analysisFor) — a second occurrence of either fails loc —
# and the one front end itself: partition.KWay( in a non-test Go file
# outside internal/core, cmd/partition and bench/ fails loc. And the one
# comm engine: internal/machine is the cost models, so its non-test files
# importing sync, pcomm or trace (a second engine growing back) fails loc.
# So does a boxed Send or Recv in the numeric packages' non-test files:
# their halo traffic travels as raw slices (pcomm.SendSlice, the Halo
# helpers), never as a gob payload on netcomm.
# And so does an encoding/gob import in any non-test Go file outside
# bench/ and testdata/: factors and matrices cross between daemons as the
# flat body of internal/service/wire.go, and netcomm's frames carry typed
# slices and fixed-width scalars only. It matches import lines, so the
# analyzers' tables of package names do not trip it. So does an
# encoding/binary import outside internal/codec and the two hashers
# (internal/sparse/fingerprint.go, the partition digest in
# internal/service/cluster.go): every byte that crosses a process is
# written and read by the one codec, so no second one can grow.
# And so does a route literal — a string opening with /v1/, /healthz or
# /metrics, bare or after "GET " or "POST " — in a non-test Go file
# outside internal/service: the daemon's one route table, its handlers
# (Server.Routes) and the peer client (cluster.call) live there together,
# so no second copy of the HTTP surface can grow. It matches the opening
# quote, so comments naming a route do not trip it.
# And so does debug.SetMemoryLimit( in a non-test Go file outside
# internal/service/memlimit.go: the tiers' accountant alone sets the
# runtime memory limit, from the bytes every live server holds, so no
# second setter can fight it.
HOTALLOC_WAIVERS_MAX = 16
GO_SRC = $$(find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' -not -path '*/testdata/*')
SERVICE_SRC = $$(find internal/service -name '*.go' -not -name '*_test.go')
MACHINE_SRC = $$(find internal/machine -name '*.go' -not -name '*_test.go')
NUMERIC_SRC = $$(find internal/core internal/mis internal/dist internal/krylov -name '*.go' -not -name '*_test.go')

loc:
	@cat $(GO_SRC) | wc -l | awk '{ print "non-test Go lines outside bench/: " $$1 }'
	@cat $(SERVICE_SRC) | wc -l | awk '{ print "non-test Go lines in internal/service: " $$1 }'
	@for pat in 'http.NewRequestWithContext' 'core.Prepare('; do \
		n=$$(cat $(SERVICE_SRC) | grep -c -F "$$pat"); \
		if [ $$n -gt 1 ]; then echo "internal/service: $$n occurrences of $$pat, want at most 1"; exit 1; fi; \
	done
	@if grep -n -F 'partition.KWay(' $(GO_SRC) | grep -v -E '^\./(internal/core|cmd/partition)/'; then \
		echo "partition.KWay outside internal/core and cmd/partition: lay a matrix out with core.Prepare"; exit 1; fi
	@if grep -n -E '"(sync|repro/internal/pcomm|repro/internal/trace)(/[a-z/]*)?"' $(MACHINE_SRC); then \
		echo "internal/machine imports a comm or trace package: it holds the cost models only"; exit 1; fi
	@if grep -n -E '\.(Send|Recv)\(' $(NUMERIC_SRC); then \
		echo "boxed Send/Recv in a numeric package: send raw slices (pcomm.SendSlice, pcomm.Post)"; exit 1; fi
	@if grep -n -E '^[[:space:]]*(import[[:space:]]+)?([A-Za-z_.]+[[:space:]]+)?"encoding/gob"' $(GO_SRC); then \
		echo "encoding/gob imported outside bench/: use the flat codecs (internal/service/wire.go, netcomm's frames)"; exit 1; fi
	@if grep -n -E '^[[:space:]]*(import[[:space:]]+)?([A-Za-z_.]+[[:space:]]+)?"encoding/binary"' $(GO_SRC) | \
		grep -v -E '^\./(internal/codec/|internal/sparse/fingerprint\.go:|internal/service/cluster\.go:)'; then \
		echo "encoding/binary imported outside internal/codec and the two hashers: write what crosses a process with internal/codec"; exit 1; fi
	@if grep -n -E '"((GET|POST) )?/(v1/|healthz|metrics)' $(GO_SRC) | grep -v '^\./internal/service/'; then \
		echo "route literal outside internal/service: serve it from the route table (Server.Routes), call it through cluster.call"; exit 1; fi
	@if grep -n -F 'debug.SetMemoryLimit(' $(GO_SRC) | grep -v '^\./internal/service/memlimit\.go:'; then \
		echo "debug.SetMemoryLimit outside internal/service/memlimit.go: the tiers' accountant alone sets the memory limit"; exit 1; fi
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
# solve hits the factorization cache), and shuts it down gracefully; then
# posts more than the matrix tier's 32 MiB budget of distinct matrices to
# a fresh daemon and checks /v1/stats holds the tier within it.
serve-smoke:
	$(GO) test ./cmd/pilutd -run 'TestEndToEnd|TestDaemonMatrixTierBound' -count=1 -v

# The scoreboard (BENCHMARK.json, bench/README.md): every workload
# untraced, then traced; results land in bench/out. bench/ is a module of
# its own, outside ./..., so its tests need their own target.
bench:
	$(GO) run -C bench .

bench-test:
	cd bench && $(GO) test ./...

# One iteration of each kernel benchmark a cold build is judged by — the
# factorization in the scoreboard's configuration and on the modelled
# T3D, the serial baseline, one MIS call of a threshold level, the
# engine's blocking points with four ranks on two Ps (the oversubscribed
# case the scoreboard lives in), one world alone and two at once (a
# daemon's two workers, where ranks must not yield), the MatrixMarket
# reader, the row kernel over a 262 144-column pivot range — so they keep
# compiling and running. For numbers, raise -benchtime and alternate with
# the parent commit.
bench-kernels:
	$(GO) test . -run '^$$' -bench '^BenchmarkFactorCore$$/^real$$/^torso20$$/^p4$$|^BenchmarkFactorCore$$/^modelled$$/^torso16$$/^p8$$|^BenchmarkSerialILUT$$|^BenchmarkMISPlan$$' -benchtime 1x
	$(GO) test . -run '^$$' -bench '^BenchmarkEngineWait$$' -cpu 2 -benchtime 1x
	$(GO) test ./internal/sparse -run '^$$' -bench 'BenchmarkReadMatrixMarket' -benchtime 1x
	$(GO) test ./internal/ilu -run '^$$' -bench 'BenchmarkEliminateRowSeq/wide' -benchtime 1x

# The paper's tables, the commands of EXPERIMENTS.md's reproduction
# index: rewrite the golden file of the reduced run that the
# experiments package's tests hold the tree to
# (internal/experiments/testdata/golden.txt), then regenerate the three
# full-size outputs (about 25 minutes on a 2-vCPU host). Only stdout
# reaches the files — each experiment's wall time goes to stderr — so a
# second run leaves no diff.
golden:
	$(GO) test ./internal/experiments -run '^TestGolden$$' -count=1 -update
	$(GO) run ./cmd/experiments -exp all -tol 1e-6 -maxmv 6000 > experiments_output.txt
	$(GO) run ./cmd/experiments -exp table3 -procs 16 -tol 1e-6 -maxmv 6000 > experiments_table3_p16.txt
	{ $(GO) run ./cmd/experiments -exp ilu0 && $(GO) run ./cmd/experiments -exp breakdown; } > experiments_extra.txt

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
# The peer-body targets run in a large instrumented binary, where an
# unbounded minimization of a new input can take the whole pass: it is
# capped at 1000 executions. The solve-body target runs a daemon in
# every fuzz worker process, so it runs one worker.
# Override FUZZTIME for longer local runs, e.g. `make fuzz-smoke FUZZTIME=5m`.
fuzz-smoke:
	$(GO) test ./internal/sparse -run '^$$' -fuzz '^FuzzReadMatrixMarket$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sparse -run '^$$' -fuzz '^FuzzRowTail$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/service -run '^$$' -fuzz '^FuzzDecodeFactor$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1000x -parallel 1
	$(GO) test ./internal/service -run '^$$' -fuzz '^FuzzDecodeMatrix$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1000x -parallel 1
	$(GO) test ./internal/pcomm/netcomm -run '^$$' -fuzz '^FuzzNetcommFrameBodies$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/pcomm/netcomm -run '^$$' -fuzz '^FuzzDataFrameDeliver$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/service -run '^$$' -fuzz '^FuzzSolveBodies$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1000x -parallel 1
	$(GO) test ./internal/service -run '^$$' -fuzz '^FuzzViewBody$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1000x -parallel 1

# Every example program, built and run once (a few seconds each); any
# nonzero exit fails the target.
examples:
	@for d in examples/*/; do \
		echo "== $$d"; \
		$(GO) run ./$$d || exit 1; \
	done

# Aggregate coverage profile across all packages; view with
# `go tool cover -html=coverage.out`.
cover:
	$(GO) test -coverprofile=coverage.out -covermode=atomic ./...
	$(GO) tool cover -func=coverage.out | tail -n 1

check: build vet lint test
