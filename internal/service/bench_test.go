package service

import (
	"context"
	"testing"

	"repro/internal/ilu"
	"repro/internal/machine"
	"repro/internal/matgen"
)

func benchConfig() Config {
	return Config{Procs: 8, Workers: 1, Params: ilu.Params{M: 10, Tau: 1e-4, K: 2}, Cost: machine.T3D()}
}

// BenchmarkColdFactorSolve measures a solve that must factor first: the
// cached entry is dropped between iterations, so each one pays
// factorization + solve.
func BenchmarkColdFactorSolve(b *testing.B) {
	s := New(benchConfig())
	defer s.Shutdown(context.Background())
	a := matgen.Grid2D(48, 48)
	key, _, err := s.Submit(a)
	if err != nil {
		b.Fatal(err)
	}
	rhsVec := rhs(a.N, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res, err := s.Solve(context.Background(), key, rhsVec, SolveOptions{}); err != nil || res.CacheHit {
			b.Fatalf("res=%+v err=%v (want a cold solve)", res, err)
		}
		b.StopTimer()
		s.mu.Lock()
		s.cache.remove(key)
		s.mu.Unlock()
		b.StartTimer()
	}
}

// BenchmarkCacheHitSolve measures the steady state: the factorization is
// cached and each solve only runs the preconditioned Krylov iteration.
func BenchmarkCacheHitSolve(b *testing.B) {
	s := New(benchConfig())
	defer s.Shutdown(context.Background())
	a := matgen.Grid2D(48, 48)
	key, _, err := s.Submit(a)
	if err != nil {
		b.Fatal(err)
	}
	rhsVec := rhs(a.N, 1)
	if _, err := s.Solve(context.Background(), key, rhsVec, SolveOptions{}); err != nil {
		b.Fatal(err) // warm
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res, err := s.Solve(context.Background(), key, rhsVec, SolveOptions{}); err != nil || !res.CacheHit {
			b.Fatalf("res=%+v err=%v (want a cache hit)", res, err)
		}
	}
}
