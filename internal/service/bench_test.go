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

// peerBenchProcs is the processor count of the peer_fetch scoreboard
// workload, and Grid2D(63, 65) the size of its patterns.
const peerBenchProcs = 4

func peerBenchExport(b *testing.B) (string, []byte, *Server) {
	a := matgen.Grid2D(63, 65)
	s := New(Config{Procs: peerBenchProcs, Workers: 1, Backend: "real"})
	b.Cleanup(func() { s.Shutdown(context.Background()) })
	key, _, err := s.Submit(a)
	if err != nil {
		b.Fatal(err)
	}
	data, err := s.ExportFactor(key)
	if err != nil {
		b.Fatal(err)
	}
	return key, data, s
}

// BenchmarkExportFactor measures the owner's half of a peer transfer:
// a cached entry encoded as a factor body.
func BenchmarkExportFactor(b *testing.B) {
	key, data, s := peerBenchExport(b)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.ExportFactor(key); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkImportFactor measures the fetcher's half: decode, checks and
// rehydration of the pieces, on a warm symbolic tier.
func BenchmarkImportFactor(b *testing.B) {
	key, data, _ := peerBenchExport(b)
	imp := New(Config{Procs: peerBenchProcs, Workers: 1, Backend: "real"})
	defer imp.Shutdown(context.Background())
	if _, err := imp.importFactor(key, data); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := imp.importFactor(key, data); err != nil {
			b.Fatal(err)
		}
	}
}
