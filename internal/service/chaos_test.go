// Chaos tests: the service must survive every injected fault class —
// numerical breakdown, a panicking processor, a lost message — answering
// the affected request with a structured error or a Degraded success,
// and then serving the follow-up clean request normally. The suite runs
// on the backend selected by $PILUT_BACKEND so CI sweeps both.
package service

import (
	"context"
	"errors"
	"math"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/krylov"
	"repro/internal/matgen"
	"repro/internal/pcomm"
	"repro/internal/pcomm/netcomm"
)

func chaosConfig(t *testing.T, spec string) Config {
	t.Helper()
	cfg := testConfig()
	cfg.Backend = os.Getenv("PILUT_BACKEND")
	if netcomm.IsSpec(cfg.Backend) {
		// A server's request streams live in one process, so the
		// multi-process backend cannot host its runs; the netcomm CI
		// lane still sweeps this suite, on the closest wall-clock
		// backend.
		cfg.Backend = "real"
	}
	if spec != "" {
		s, err := fault.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Faults = s
	}
	return cfg
}

// TestPivotFaultDegradesToBlockJacobi: a denormal pivot perturbation
// makes every distributed rung break down; the ladder must land on
// block-Jacobi and answer Degraded successes, including cache hits.
func TestPivotFaultDegradesToBlockJacobi(t *testing.T) {
	cfg := chaosConfig(t, "seed=3,pivot=1e-320")
	s := New(cfg)
	defer s.Shutdown(context.Background())
	a := matgen.Grid2D(16, 16)
	key, _, _ := s.Submit(a)
	b := rhs(a.N, 1)

	res, err := s.Solve(context.Background(), key, b, SolveOptions{Tol: 1e-8})
	if err != nil {
		t.Fatalf("solve under pivot fault: %v", err)
	}
	if !res.Degraded || res.LadderStep != "blockjacobi" {
		t.Fatalf("res = degraded=%v step=%q, want the blockjacobi containment floor", res.Degraded, res.LadderStep)
	}
	if !res.Converged {
		t.Fatalf("degraded solve did not converge")
	}
	if rr := relResidual(a, res.X, b); rr > 1e-6 {
		t.Fatalf("degraded solution residual %g too large", rr)
	}

	// The follow-up hits the cached (degraded) entry and still carries
	// the flag; the daemon never died.
	res2, err := s.Solve(context.Background(), key, rhs(a.N, 2), SolveOptions{Tol: 1e-8})
	if err != nil {
		t.Fatalf("follow-up solve: %v", err)
	}
	if !res2.CacheHit || !res2.Degraded {
		t.Fatalf("follow-up = hit=%v degraded=%v, want a degraded cache hit", res2.CacheHit, res2.Degraded)
	}

	st := s.StatsSnapshot()
	if st.Solves.LadderRetries == 0 || st.Solves.Degraded != 2 {
		t.Fatalf("stats = retries=%d degraded=%d, want retries>0 and degraded=2",
			st.Solves.LadderRetries, st.Solves.Degraded)
	}
	if h := s.Health(); h.Status != "ok" || h.DegradedSolves != 2 {
		t.Fatalf("health = %+v, want ok with 2 degraded solves", h)
	}
}

// TestPanicFaultIsContained: one processor panics mid-factorization. The
// request gets a structured error naming the rank; the one-shot fault
// then leaves the daemon serving the next request cleanly.
func TestPanicFaultIsContained(t *testing.T) {
	cfg := chaosConfig(t, "seed=1,panic=1@5")
	s := New(cfg)
	defer s.Shutdown(context.Background())
	a := matgen.Grid2D(16, 16)
	key, _, _ := s.Submit(a)

	_, err := s.Solve(context.Background(), key, rhs(a.N, 1), SolveOptions{})
	if err == nil {
		t.Fatal("solve under panic fault reported success")
	}
	var re *pcomm.RunError
	if !errors.As(err, &re) || re.Rank != 1 {
		t.Fatalf("err = %v, want a *pcomm.RunError for rank 1", err)
	}
	var ip *fault.InjectedPanic
	if !errors.As(err, &ip) {
		t.Fatalf("err = %v does not wrap the *fault.InjectedPanic", err)
	}

	// One-shot: the same daemon, same key, now factors and solves fine.
	res, err := s.Solve(context.Background(), key, rhs(a.N, 2), SolveOptions{Tol: 1e-8})
	if err != nil || !res.Converged {
		t.Fatalf("follow-up solve after contained panic: res=%+v err=%v", res, err)
	}
}

// TestDropFaultTripsWatchdogAndRecovers: a swallowed message deadlocks
// the factorization; the per-run watchdog must fail that request with a
// structured deadlock error and leave the daemon healthy.
func TestDropFaultTripsWatchdogAndRecovers(t *testing.T) {
	s := New(chaosConfig(t, "seed=1,drop=0@2"))
	s.watchdog = 1500 * time.Millisecond
	defer s.Shutdown(context.Background())
	a := matgen.Grid2D(16, 16)
	key, _, _ := s.Submit(a)

	_, err := s.Solve(context.Background(), key, rhs(a.N, 1), SolveOptions{})
	if err == nil {
		t.Fatal("solve under drop fault reported success")
	}
	var re *pcomm.RunError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want a *pcomm.RunError from the watchdog", err)
	}
	if re.Dump == "" {
		t.Fatal("watchdog RunError carries no blocked-state dump")
	}

	res, err := s.Solve(context.Background(), key, rhs(a.N, 2), SolveOptions{Tol: 1e-8})
	if err != nil || !res.Converged {
		t.Fatalf("follow-up solve after watchdog trip: res=%+v err=%v", res, err)
	}
}

// TestBreakerOpensAndProbes: a matrix that always fails to factor opens
// its circuit breaker after the configured failures; further requests
// bounce immediately with a retry hint, and after the cooldown exactly
// one probe is admitted.
func TestBreakerOpensAndProbes(t *testing.T) {
	cfg := chaosConfig(t, "")
	cfg.Workers = 1
	s := New(cfg)
	defer s.Shutdown(context.Background())
	const cooldown = 200 * time.Millisecond
	s.mu.Lock()
	s.breaker.threshold, s.breaker.cooldown = 2, cooldown
	s.mu.Unlock()

	g := matgen.Grid2D(8, 8)
	bad := g.Clone()
	bad.Cols[len(bad.Cols)/2] = bad.N + 17 // malformed: factorization always panics
	key, _, err := s.Submit(bad)
	if err != nil {
		t.Fatal(err)
	}
	b := rhs(bad.N, 1)

	for i := 0; i < 2; i++ {
		if _, err := s.Solve(context.Background(), key, b, SolveOptions{}); err == nil {
			t.Fatalf("solve %d of the malformed matrix succeeded", i)
		} else if errors.Is(err, ErrBreakerOpen) {
			t.Fatalf("solve %d bounced off the breaker before the threshold", i)
		}
	}

	// Third request: the circuit is open — rejected without running.
	start := time.Now()
	_, err = s.Solve(context.Background(), key, b, SolveOptions{})
	var bo *BreakerOpenError
	if !errors.As(err, &bo) || bo.RetryAfter <= 0 {
		t.Fatalf("err = %v, want *BreakerOpenError with a retry hint", err)
	}
	if time.Since(start) > 100*time.Millisecond {
		t.Fatalf("breaker rejection took %v, want immediate", time.Since(start))
	}

	// After the cooldown one probe is admitted (and fails again).
	time.Sleep(cooldown + 50*time.Millisecond)
	if _, err := s.Solve(context.Background(), key, b, SolveOptions{}); errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("post-cooldown probe was rejected: %v", err)
	}
	if _, err := s.Solve(context.Background(), key, b, SolveOptions{}); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("failed probe did not re-open the breaker: %v", err)
	}

	// A different (healthy) matrix is unaffected by the open circuit.
	good := matgen.Grid2D(8, 8)
	gkey, _, _ := s.Submit(good)
	if res, err := s.Solve(context.Background(), gkey, rhs(good.N, 2), SolveOptions{}); err != nil || !res.Converged {
		t.Fatalf("healthy matrix blocked by another key's breaker: res=%+v err=%v", res, err)
	}

	st := s.StatsSnapshot()
	if st.Solves.BreakerRejected == 0 {
		t.Fatal("breaker rejections not counted in stats")
	}
	if h := s.Health(); len(h.BreakerOpenKeys) != 1 || h.BreakerOpenKeys[0] != key {
		t.Fatalf("health breaker keys = %v, want [%s]", h.BreakerOpenKeys, key)
	}
}

// TestCanceledProbeHandsTheProbeBack: a half-open probe whose request was
// canceled while it queued says nothing about the matrix. The worker must
// hand the probe back, so the next request probes and a healthy key's
// circuit closes, instead of bouncing every later request until restart.
func TestCanceledProbeHandsTheProbeBack(t *testing.T) {
	s := New(Config{Procs: 2, Workers: 1})
	defer s.Shutdown(context.Background())
	a := matgen.Grid2D(8, 8)
	key, _, err := s.Submit(a)
	if err != nil {
		t.Fatal(err)
	}
	later := time.Now().Add(2 * time.Hour)
	s.mu.Lock()
	s.breaker.threshold, s.breaker.cooldown = 2, time.Hour
	s.breaker.failure(key)
	s.breaker.failure(key)
	s.breaker.now = func() time.Time { return later }
	s.mu.Unlock()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Solve(ctx, key, rhs(a.N, 1), SolveOptions{}); !errors.Is(err, krylov.ErrCanceled) {
		t.Fatalf("canceled probe: err %v, want krylov.ErrCanceled", err)
	}
	waitFor(t, "the worker to answer the canceled probe", func() bool {
		st := s.StatsSnapshot()
		return st.Solves.Canceled == 1 && st.Running == 0
	})
	res, err := s.Solve(context.Background(), key, rhs(a.N, 2), SolveOptions{Tol: 1e-8})
	if err != nil || !res.Converged {
		t.Fatalf("solve after the canceled probe: converged=%v err=%v", res.Converged, err)
	}
	if h := s.Health(); len(h.BreakerOpenKeys) != 0 {
		t.Errorf("breaker still open for %v after a successful probe", h.BreakerOpenKeys)
	}
}

// TestQueueShedsUnderOverload: with the single worker pinned and the
// bounded queue full, the next request is shed immediately with a 429
// retry hint instead of queueing without bound.
func TestQueueShedsUnderOverload(t *testing.T) {
	cfg := chaosConfig(t, "")
	cfg.Workers = 1
	cfg.MaxBatch = 1
	cfg.MaxQueue = 2
	s := New(cfg)
	defer s.Shutdown(context.Background())
	a := matgen.Grid2D(24, 24)
	key, _, _ := s.Submit(a)
	if _, err := s.Solve(context.Background(), key, rhs(a.N, 1), SolveOptions{}); err != nil {
		t.Fatal(err) // warm cache
	}

	release := pinWorker(t, s, key, rhs(a.N, 2))

	// Fill the queue to MaxQueue, then one more must shed.
	qctx, stopQueued := context.WithCancel(context.Background())
	defer stopQueued()
	for i := 0; i < cfg.MaxQueue; i++ {
		endlessSolve(qctx, s, key, rhs(a.N, int64(3+i)), SolveOptions{})
	}
	waitFor(t, "queue to fill", func() bool {
		return s.StatsSnapshot().QueueDepth >= cfg.MaxQueue
	})

	_, err := s.Solve(context.Background(), key, rhs(a.N, 9), SolveOptions{})
	var ov *OverloadedError
	if !errors.As(err, &ov) || ov.RetryAfter <= 0 {
		t.Fatalf("err = %v, want *OverloadedError with a retry hint", err)
	}
	if st := s.StatsSnapshot(); st.Solves.Shed == 0 {
		t.Fatal("shed requests not counted in stats")
	}

	stopQueued()
	release()
	waitFor(t, "workers to drain", func() bool {
		st := s.StatsSnapshot()
		return st.Running == 0 && st.QueueDepth == 0
	})
}

// TestRealBackendCancelMidSolveReleasesProcs is the satellite for the
// wall-clock backend: a context expiring mid-solve must release every
// processor goroutine collectively, leak nothing, and leave the cache
// serving hits.
func TestRealBackendCancelMidSolveReleasesProcs(t *testing.T) {
	cfg := testConfig()
	cfg.Backend = "real"
	cfg.Workers = 1
	s := New(cfg)
	defer s.Shutdown(context.Background())
	a := matgen.Grid2D(24, 24)
	key, _, _ := s.Submit(a)
	if _, err := s.Solve(context.Background(), key, rhs(a.N, 1), SolveOptions{}); err != nil {
		t.Fatal(err) // warm cache
	}
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err := s.Solve(ctx, key, rhs(a.N, 2), SolveOptions{Tol: 1e-300, MaxMatVec: 500000})
	if !errors.Is(err, krylov.ErrCanceled) {
		t.Fatalf("mid-solve expiry on real backend: err = %v, want krylov.ErrCanceled", err)
	}
	waitFor(t, "run to release all processors", func() bool {
		return s.StatsSnapshot().Running == 0
	})
	waitFor(t, "processor goroutines to exit", func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= before+2
	})

	// Cache is consistent: the follow-up is a hit and converges.
	res, err := s.Solve(context.Background(), key, rhs(a.N, 3), SolveOptions{Tol: 1e-8})
	if err != nil || !res.Converged || !res.CacheHit {
		t.Fatalf("follow-up after canceled run: res=%+v err=%v", res, err)
	}
}

// TestFaultsOffIsBitwiseClean: a Config with no Faults produces the same
// solution bits as one with a nil-spec explicitly, guarding against the
// injection layer leaking into the clean path.
func TestFaultsOffIsBitwiseClean(t *testing.T) {
	a := matgen.Grid2D(16, 16)
	b := rhs(a.N, 4)
	solve := func(spec *fault.Spec) SolveResult {
		cfg := chaosConfig(t, "")
		cfg.Faults = spec
		s := New(cfg)
		defer s.Shutdown(context.Background())
		key, _, _ := s.Submit(a)
		res, err := s.Solve(context.Background(), key, b, SolveOptions{Tol: 1e-8})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	clean := solve(nil)
	disabled := solve(&fault.Spec{Seed: 5}) // present but injects nothing
	if clean.Degraded || disabled.Degraded {
		t.Fatal("clean solves flagged degraded")
	}
	for i := range clean.X {
		if math.Float64bits(clean.X[i]) != math.Float64bits(disabled.X[i]) {
			t.Fatalf("X[%d] differs between nil and disabled fault specs", i)
		}
	}
}
