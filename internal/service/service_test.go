package service

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/krylov"
	"repro/internal/matgen"
	"repro/internal/sparse"
)

func testConfig() Config {
	return Config{Procs: 4, Workers: 2, MaxBatch: 8}
}

// endlessSolve starts a solve that only ctx can end — its tolerance is
// unreachable and its matvec budget outlasts any test — and returns the
// channel its error arrives on. A solve whose length is a budget ends
// on its own, on a fast host before a poll has seen what queued behind
// it.
func endlessSolve(ctx context.Context, s *Server, key string, b []float64, opt SolveOptions) <-chan error {
	opt.Tol, opt.MaxMatVec = 1e-300, 500000
	done := make(chan error, 1)
	go func() {
		_, err := s.Solve(ctx, key, b, opt)
		done <- err
	}()
	return done
}

// pinWorker holds a one-worker server's worker with an endless solve and
// returns once the worker has taken it. Running == 1 alone does not say
// so: a worker answers a request before it decrements the count, so
// right after a warm-up solve returns the count can still be that
// solve's — the pinning request must also have been counted and have
// left the queue. release cancels the solve and reports how it ended:
// krylov.ErrCanceled, unless something other than the test stopped it.
func pinWorker(t *testing.T, s *Server, key string, b []float64) (release func() error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	accepted := s.StatsSnapshot().Solves.Requests
	done := endlessSolve(ctx, s, key, b, SolveOptions{})
	waitFor(t, "worker to take the pinning solve", func() bool {
		st := s.StatsSnapshot()
		return st.Solves.Requests == accepted+1 && st.QueueDepth == 0 && st.Running == 1
	})
	return func() error {
		cancel()
		return <-done
	}
}

func rhs(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	return b
}

// relResidual computes ‖b − A·x‖/‖b‖ with the true (unpreconditioned)
// operator, independently of anything the service reports.
func relResidual(a *sparse.CSR, x, b []float64) float64 {
	y := make([]float64, a.N)
	a.MulVec(y, x)
	var rr, bb float64
	for i := range b {
		d := b[i] - y[i]
		rr += d * d
		bb += b[i] * b[i]
	}
	return math.Sqrt(rr) / math.Sqrt(bb)
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestFactorOnceSolveMany(t *testing.T) {
	s := New(testConfig())
	defer s.Shutdown(context.Background())

	a := matgen.Grid2D(16, 16)
	key, known, err := s.Submit(a)
	if err != nil || known {
		t.Fatalf("Submit: key=%q known=%v err=%v", key, known, err)
	}
	if key2, known2, _ := s.Submit(a.Clone()); key2 != key || !known2 {
		t.Fatalf("resubmit of identical matrix: key=%q known=%v, want %q true", key2, known2, key)
	}

	const solves = 3
	for i := 0; i < solves; i++ {
		res, err := s.Solve(context.Background(), key, rhs(a.N, int64(100+i)), SolveOptions{Tol: 1e-8})
		if err != nil {
			t.Fatalf("solve %d: %v", i, err)
		}
		if !res.Converged {
			t.Fatalf("solve %d did not converge: %+v", i, res)
		}
		if rr := relResidual(a, res.X, rhs(a.N, int64(100+i))); rr > 1e-6 {
			t.Fatalf("solve %d: true relative residual %g too large", i, rr)
		}
		if wantHit := i > 0; res.CacheHit != wantHit {
			t.Fatalf("solve %d: CacheHit=%v, want %v", i, res.CacheHit, wantHit)
		}
	}

	st := s.StatsSnapshot()
	if st.Cache.Factorizations != 1 {
		t.Fatalf("factorizations = %d, want 1 (factor once, solve many)", st.Cache.Factorizations)
	}
	if st.Cache.Misses != 1 || st.Cache.Hits != solves-1 {
		t.Fatalf("cache hits/misses = %d/%d, want %d/1", st.Cache.Hits, st.Cache.Misses, solves-1)
	}
	if st.Solves.Completed != solves {
		t.Fatalf("completed = %d, want %d", st.Solves.Completed, solves)
	}
	if st.Matrices != 1 {
		t.Fatalf("matrices = %d, want 1", st.Matrices)
	}
	if st.Solves.LatencyMs.Count != solves || st.Solves.Iterations.Count != solves {
		t.Fatalf("histograms recorded %d/%d observations, want %d",
			st.Solves.LatencyMs.Count, st.Solves.Iterations.Count, solves)
	}
}

func TestLRUEvictionUnderByteBudget(t *testing.T) {
	// A 1-byte budget makes every entry oversized: the cache holds
	// exactly the most recent factorization, and each insert evicts the
	// previous one. Solving A, then B, then A again must therefore
	// refactor A — and still produce a correct answer.
	cfg := testConfig()
	cfg.CacheBytes = 1
	s := New(cfg)
	defer s.Shutdown(context.Background())

	mA := matgen.Grid2D(12, 12)
	mB := matgen.Grid2D(13, 13)
	keyA, _, _ := s.Submit(mA)
	keyB, _, _ := s.Submit(mB)
	if keyA == keyB {
		t.Fatal("distinct matrices share a fingerprint")
	}

	for i, step := range []struct {
		key string
		a   *sparse.CSR
	}{{keyA, mA}, {keyB, mB}, {keyA, mA}} {
		res, err := s.Solve(context.Background(), step.key, rhs(step.a.N, int64(i)), SolveOptions{})
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if res.CacheHit {
			t.Fatalf("step %d: unexpected cache hit — eviction did not happen", i)
		}
		if rr := relResidual(step.a, res.X, rhs(step.a.N, int64(i))); rr > 1e-6 {
			t.Fatalf("step %d: residual %g after refactorization", i, rr)
		}
	}

	st := s.StatsSnapshot()
	if st.Cache.Factorizations != 3 {
		t.Fatalf("factorizations = %d, want 3 (A evicted by B, refactored)", st.Cache.Factorizations)
	}
	if st.Cache.Evictions != 2 {
		t.Fatalf("evictions = %d, want 2", st.Cache.Evictions)
	}
	if st.Cache.Entries != 1 {
		t.Fatalf("entries = %d, want 1 under a 1-byte budget", st.Cache.Entries)
	}
}

func TestNoEvictionUnderGenerousBudget(t *testing.T) {
	s := New(testConfig()) // default 256 MiB budget
	defer s.Shutdown(context.Background())
	for _, nx := range []int{10, 11, 12} {
		a := matgen.Grid2D(nx, nx)
		key, _, _ := s.Submit(a)
		if _, err := s.Solve(context.Background(), key, rhs(a.N, int64(nx)), SolveOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	st := s.StatsSnapshot()
	if st.Cache.Evictions != 0 || st.Cache.Entries != 3 {
		t.Fatalf("evictions=%d entries=%d, want 0/3 under a generous budget", st.Cache.Evictions, st.Cache.Entries)
	}
	if st.Cache.Bytes <= 0 {
		t.Fatalf("cache bytes = %d, want > 0", st.Cache.Bytes)
	}
}

func TestZeroDeadlineReturnsCanceledWithoutLeaks(t *testing.T) {
	s := New(testConfig())
	a := matgen.Grid2D(16, 16)
	key, _, _ := s.Submit(a)
	// Warm the cache so the canceled request exercises the solve path,
	// not the factorization path.
	if _, err := s.Solve(context.Background(), key, rhs(a.N, 1), SolveOptions{}); err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()

	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Hour))
	defer cancel()
	_, err := s.Solve(ctx, key, rhs(a.N, 2), SolveOptions{})
	if !errors.Is(err, krylov.ErrCanceled) {
		t.Fatalf("expired deadline: err = %v, want krylov.ErrCanceled", err)
	}
	waitFor(t, "canceled request to be accounted", func() bool {
		return s.StatsSnapshot().Solves.Canceled >= 1
	})

	// A later solve still works: the canceled request left no state behind.
	if res, err := s.Solve(context.Background(), key, rhs(a.N, 3), SolveOptions{}); err != nil || !res.Converged {
		t.Fatalf("solve after cancellation: res=%+v err=%v", res, err)
	}

	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	waitFor(t, "goroutines to settle after shutdown", func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= base
	})
}

func TestDeadlineMidSolveCancelsRun(t *testing.T) {
	cfg := testConfig()
	cfg.Workers = 1
	s := New(cfg)
	defer s.Shutdown(context.Background())
	a := matgen.Grid2D(24, 24)
	key, _, _ := s.Submit(a)
	if _, err := s.Solve(context.Background(), key, rhs(a.N, 1), SolveOptions{}); err != nil {
		t.Fatal(err) // warm cache
	}

	// An unreachable tolerance keeps the run iterating until the budget;
	// the 30 ms deadline must abort it long before that, collectively.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := s.Solve(ctx, key, rhs(a.N, 2), SolveOptions{Tol: 1e-300, MaxMatVec: 50000})
	if !errors.Is(err, krylov.ErrCanceled) {
		t.Fatalf("mid-solve deadline: err = %v, want krylov.ErrCanceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v — the run was not aborted", elapsed)
	}
	waitFor(t, "worker to finish the canceled batch", func() bool {
		return s.StatsSnapshot().Running == 0
	})
}

func TestBatchCoalescing(t *testing.T) {
	cfg := testConfig()
	cfg.Workers = 1 // one executor: requests arriving during a run pile up
	s := New(cfg)
	defer s.Shutdown(context.Background())
	a := matgen.Grid2D(24, 24)
	key, _, _ := s.Submit(a)
	if _, err := s.Solve(context.Background(), key, rhs(a.N, 1), SolveOptions{}); err != nil {
		t.Fatal(err) // warm cache
	}

	release := pinWorker(t, s, key, rhs(a.N, 2))

	// Four concurrent requests with identical options queue up behind it
	// and must be solved as one multi-RHS batch.
	const n = 4
	results := make([]SolveResult, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = s.Solve(context.Background(), key, rhs(a.N, int64(10+i)), SolveOptions{Tol: 1e-8})
		}(i)
	}
	waitFor(t, "requests to queue behind the blocker", func() bool {
		return s.StatsSnapshot().QueueDepth >= n
	})
	if err := release(); !errors.Is(err, krylov.ErrCanceled) {
		t.Fatalf("blocker: err = %v, want krylov.ErrCanceled", err)
	}
	wg.Wait()

	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if !results[i].Converged {
			t.Fatalf("request %d did not converge", i)
		}
		if results[i].BatchSize != n {
			t.Fatalf("request %d solved in a batch of %d, want %d (coalescing failed)", i, results[i].BatchSize, n)
		}
		if rr := relResidual(a, results[i].X, rhs(a.N, int64(10+i))); rr > 1e-6 {
			t.Fatalf("request %d: residual %g", i, rr)
		}
	}
	st := s.StatsSnapshot()
	if st.Solves.MaxBatch < n {
		t.Fatalf("max batch = %d, want ≥ %d", st.Solves.MaxBatch, n)
	}
}

func TestGracefulShutdownDrainsInFlight(t *testing.T) {
	cfg := testConfig()
	cfg.Workers = 1
	s := New(cfg)
	a := matgen.Grid2D(20, 20)
	key, _, _ := s.Submit(a)
	if _, err := s.Solve(context.Background(), key, rhs(a.N, 1), SolveOptions{}); err != nil {
		t.Fatal(err) // warm cache
	}

	finishInFlight := pinWorker(t, s, key, rhs(a.N, 2))

	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- s.Shutdown(context.Background()) }()
	waitFor(t, "server to start draining", func() bool {
		_, _, err := s.Submit(matgen.Grid2D(5, 5))
		return errors.Is(err, ErrClosed)
	})

	// New requests are rejected while the in-flight one keeps running:
	// the drain leaves it alone until the test itself ends it.
	if _, err := s.Solve(context.Background(), key, rhs(a.N, 3), SolveOptions{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("solve during drain: err = %v, want ErrClosed", err)
	}
	if st := s.StatsSnapshot(); st.Running != 1 {
		t.Fatalf("in-flight solve is not running during the drain: %+v", st)
	}
	if err := finishInFlight(); !errors.Is(err, krylov.ErrCanceled) {
		t.Fatalf("in-flight solve was not drained cleanly: err = %v, want its own krylov.ErrCanceled", err)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("graceful shutdown returned %v", err)
	}
}

func TestShutdownDeadlineFailsQueuedRequests(t *testing.T) {
	cfg := testConfig()
	cfg.Workers = 1
	s := New(cfg)
	a := matgen.Grid2D(20, 20)
	key, _, _ := s.Submit(a)
	if _, err := s.Solve(context.Background(), key, rhs(a.N, 1), SolveOptions{}); err != nil {
		t.Fatal(err)
	}

	// One running solve plus one queued behind it (different options, so
	// it cannot join the batch).
	finishRunning := pinWorker(t, s, key, rhs(a.N, 2))
	queued := endlessSolve(context.Background(), s, key, rhs(a.N, 3), SolveOptions{Restart: 7})
	waitFor(t, "second solve to queue", func() bool { return s.StatsSnapshot().QueueDepth == 1 })

	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- s.Shutdown(ctx) }()
	// Past its deadline Shutdown stops waiting politely: what is queued
	// will be failed instead of solved, what is running runs on — here
	// until the test ends it — and Shutdown returns after it.
	waitFor(t, "shutdown deadline to pass", func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.aborting
	})
	if err := finishRunning(); !errors.Is(err, krylov.ErrCanceled) {
		t.Fatalf("already-running solve must run on past the deadline: err = %v, want its own krylov.ErrCanceled", err)
	}
	if err := <-queued; !errors.Is(err, ErrClosed) {
		t.Fatalf("queued solve err = %v, want ErrClosed after shutdown deadline", err)
	}
	if err := <-shutdownDone; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("shutdown err = %v, want DeadlineExceeded", err)
	}
}

func TestRequestValidation(t *testing.T) {
	s := New(testConfig())
	defer s.Shutdown(context.Background())

	rect := &sparse.CSR{N: 2, M: 3, RowPtr: []int{0, 0, 0}}
	if _, _, err := s.Submit(rect); err == nil {
		t.Fatal("rectangular matrix accepted")
	}
	tiny := matgen.Grid2D(1, 2) // 2 rows < 4 procs
	if _, _, err := s.Submit(tiny); err == nil {
		t.Fatal("matrix smaller than the processor count accepted")
	}
	if _, err := s.Solve(context.Background(), "deadbeef", []float64{1}, SolveOptions{}); !errors.Is(err, ErrUnknownMatrix) {
		t.Fatalf("unknown key: err = %v, want ErrUnknownMatrix", err)
	}
	a := matgen.Grid2D(8, 8)
	key, _, _ := s.Submit(a)
	if _, err := s.Solve(context.Background(), key, make([]float64, 7), SolveOptions{}); err == nil {
		t.Fatal("wrong right-hand-side length accepted")
	}
}

func TestFactorizationFailureIsAnError(t *testing.T) {
	// A malformed matrix (column index out of range) makes the
	// factorization pipeline panic; the service must answer with an
	// error, not crash the worker.
	s := New(Config{Procs: 2, Workers: 1})
	defer s.Shutdown(context.Background())

	g := matgen.Grid2D(8, 8)
	bad := g.Clone()
	bad.Cols[len(bad.Cols)/2] = bad.N + 17

	key, _, err := s.Submit(bad)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if _, err := s.Solve(context.Background(), key, make([]float64, bad.N), SolveOptions{}); err == nil {
		t.Fatal("factorization of a malformed matrix reported success")
	} else if errors.Is(err, krylov.ErrCanceled) {
		t.Fatalf("unexpected cancellation error: %v", err)
	}
	if st := s.StatsSnapshot(); st.Solves.Errors != 1 {
		t.Fatalf("errors = %d, want 1", st.Solves.Errors)
	}

	// The worker survives: a good matrix still solves.
	good := matgen.Grid2D(8, 8)
	gkey, _, _ := s.Submit(good)
	if res, err := s.Solve(context.Background(), gkey, rhs(good.N, 9), SolveOptions{}); err != nil || !res.Converged {
		t.Fatalf("solve after factorization failure: res=%+v err=%v", res, err)
	}
}
