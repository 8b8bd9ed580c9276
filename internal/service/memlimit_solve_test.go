//go:build !race

package service

import (
	"context"
	"math"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"repro/internal/matgen"
)

// TestSolveBeyondAllowanceBitIdentical: a solve whose Krylov basis alone
// is larger than the allowance runs under a limit it cannot keep. It must
// give the unlimited run's bits, and the collector, held to its CPU cap
// while the heap sits above the limit, must not stall it: it finishes
// within 3× the unlimited run's time plus 2 s. The race detector slows
// the solve tenfold and makes that bound meaningless, so the file is left
// out of race builds.
func TestSolveBeyondAllowanceBitIdentical(t *testing.T) {
	ctx := context.Background()
	prev := startingLimit(t)
	defer debug.SetMemoryLimit(prev)
	s := New(Config{Procs: 4, Workers: 1})
	defer s.Shutdown(ctx)

	a := matgen.Grid2D(256, 256)
	// GMRES(100) runs one whole cycle: 101 basis vectors of n float64s.
	opt := SolveOptions{Restart: 100, Tol: 1e-300, MaxMatVec: 100}
	if basis := int64(opt.Restart+1) * int64(a.N) * 8; basis <= heapAllowance {
		t.Fatalf("a %d-byte basis does not exceed the %d-byte allowance", basis, heapAllowance)
	}
	key, _, err := s.Submit(a)
	if err != nil {
		t.Fatal(err)
	}
	// The build fills the tiers; the solves below only look them up, so
	// the accountant sets nothing while they run.
	if _, err := s.Solve(ctx, key, rhs(a.N, 1), SolveOptions{}); err != nil {
		t.Fatal(err)
	}
	_, limit := tiers.snapshot()

	b := rhs(a.N, 2)
	run := func(limit int64) (SolveResult, time.Duration, uint32) {
		debug.SetMemoryLimit(limit)
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		gcs := ms.NumGC
		t0 := time.Now()
		res, err := s.Solve(ctx, key, b, opt)
		if err != nil {
			t.Fatal(err)
		}
		took := time.Since(t0)
		runtime.ReadMemStats(&ms)
		return res, took, ms.NumGC - gcs
	}
	free, freeTook, freeGCs := run(math.MaxInt64)
	held, heldTook, heldGCs := run(limit)
	t.Logf("unlimited: %v, %d GCs; limit %.1f MiB: %v, %d GCs",
		freeTook, freeGCs, float64(limit)/(1<<20), heldTook, heldGCs)
	if heldGCs <= freeGCs {
		t.Fatalf("the limit did not bind: %d collections under it, %d without", heldGCs, freeGCs)
	}
	if held.Iterations != free.Iterations || held.Residual != free.Residual {
		t.Fatalf("limited run: %d matvecs, residual %v; unlimited: %d, %v",
			held.Iterations, held.Residual, free.Iterations, free.Residual)
	}
	for i := range free.X {
		if math.Float64bits(held.X[i]) != math.Float64bits(free.X[i]) {
			t.Fatalf("x[%d] = %v under the limit, %v without", i, held.X[i], free.X[i])
		}
	}
	if bound := 3*freeTook + 2*time.Second; heldTook > bound {
		t.Fatalf("limited solve took %v, beyond 3× the unlimited %v plus 2 s", heldTook, freeTook)
	}
}
