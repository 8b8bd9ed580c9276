//go:build !race

package service

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/matgen"
	"repro/internal/sparse"
)

// liveHeap is the heap still reachable after a full collection. Two
// cycles also empty the pools' victim caches, so pooled scratch does not
// read as cached state.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestTierBytesTrackLiveHeap holds the byte budgets to what a daemon
// really keeps. Without eviction, the factor and symbolic tiers' counts
// must match the live-heap growth of the builds that filled them (each
// factor entry counts its matrix, which the matrix tier holds too); under
// churn, the live heap must stay under the three budgets however many
// distinct matrices go through. The race detector's shadow memory would
// swamp both readings, so the file is left out of race builds.
func TestTierBytesTrackLiveHeap(t *testing.T) {
	ctx := context.Background()

	t.Run("no eviction", func(t *testing.T) {
		s := New(Config{Procs: 4, Workers: 1})
		defer s.Shutdown(ctx)
		// A solve of the first pattern warms the server's pools before
		// the baseline is read.
		if err := submitAndSolve(ctx, s, matgen.Grid2D(59, 64), 0); err != nil {
			t.Fatal(err)
		}
		st0 := s.StatsSnapshot().Cache
		heap0 := liveHeap()
		// 12 builds: 4 patterns × 3 value sets, the later ones refactors.
		for v := int64(1); v <= 3; v++ {
			for nx := 60; nx <= 63; nx++ {
				if err := submitAndSolve(ctx, s, matgen.Evolve(matgen.Grid2D(nx, 64), 1, 1e-3, v)[0], v); err != nil {
					t.Fatal(err)
				}
			}
		}
		heap := liveHeap() - heap0
		st := s.StatsSnapshot().Cache
		if st.Evictions != 0 || st.Entries != 13 {
			t.Fatalf("%d factor entries, %d evicted; want 13 and none", st.Entries, st.Evictions)
		}
		counted := (st.Bytes - st0.Bytes) + (st.SymbolicBytes - st0.SymbolicBytes)
		rel := float64(counted-heap) / float64(heap)
		t.Logf("live heap grew %.2f MiB; factor + symbolic tiers count %.2f MiB (%+.1f %%)",
			float64(heap)/(1<<20), float64(counted)/(1<<20), 100*rel)
		// The tiers may overcount a little (a halo shared between an
		// entry and its pattern's templates counts in both) but must not
		// miss what they keep alive.
		if rel < -0.05 || rel > 0.10 {
			t.Fatalf("tier bytes %d against a live-heap delta of %d: %+.1f %%, want within −5 %% … +10 %%", counted, heap, 100*rel)
		}
	})

	t.Run("churn", func(t *testing.T) {
		const cacheBytes = 4 << 20
		s := New(Config{Procs: 4, Workers: 1, CacheBytes: cacheBytes})
		defer s.Shutdown(ctx)
		heap0 := liveHeap()
		const budget = cacheBytes + symbolicBudget + matrixBudget
		// Distinct matrices totalling 1.25× the three budgets: every
		// eighth is solved (factor and symbolic tiers churn too), the
		// rest only submitted.
		base := matgen.Grid2D(128, 128)
		n := int(5 * budget / 4 / base.SizeBytes())
		var peak int64
		for i := 0; i < n; i++ {
			var err error
			if i%8 == 0 {
				// A new pattern each time, so the symbolic tier grows too.
				err = submitAndSolve(ctx, s, matgen.Evolve(matgen.Grid2D(64+i/8, 64), 1, 1e-3, int64(i))[0], int64(i))
			} else {
				_, _, err = s.Submit(matgen.Evolve(base, 1, 1e-3, int64(i))[0])
			}
			if err != nil {
				t.Fatal(err)
			}
			if i%16 == 15 {
				peak = max(peak, liveHeap()-heap0)
			}
		}
		peak = max(peak, liveHeap()-heap0)
		st := s.StatsSnapshot().Cache
		t.Logf("%d matrices (%.1f MiB) submitted: live heap peaked %.1f MiB over the start, budgets sum to %.1f MiB; tiers hold %.1f + %.1f + %.1f MiB",
			n, float64(int64(n)*base.SizeBytes())/(1<<20), float64(peak)/(1<<20), float64(budget)/(1<<20),
			float64(st.MatrixBytes)/(1<<20), float64(st.Bytes)/(1<<20), float64(st.SymbolicBytes)/(1<<20))
		if peak > budget {
			t.Fatalf("live heap grew %d bytes, above the %d bytes of the three budgets", peak, budget)
		}
	})
}

// submitAndSolve submits a and solves it once with the right-hand side
// of seed.
func submitAndSolve(ctx context.Context, s *Server, a *sparse.CSR, seed int64) error {
	key, _, err := s.Submit(a)
	if err != nil {
		return err
	}
	_, err = s.Solve(ctx, key, rhs(a.N, seed), SolveOptions{})
	return err
}
