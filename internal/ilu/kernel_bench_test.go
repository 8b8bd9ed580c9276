package ilu

import (
	"math/rand"
	"testing"

	"repro/internal/matgen"
)

// BenchmarkEliminateRowSeq times the sequential row kernel as one
// processor's phase 1 runs it, per row. wide is the guard on the pivot
// queue's reach: Grid2D(512, 512) factored as a single interior block, so
// the pivot range grows to 262 144 columns (4 096 queue words) while a
// row's own pivots stay within one grid line of its diagonal. spread is
// the case a flat bitmap could lose: rows of five entries anywhere in that
// range, eliminated against the whole block as phase 1b does, so the
// cursor crosses most of the queue for a handful of pivots.
func BenchmarkEliminateRowSeq(b *testing.B) {
	a := matgen.Grid2D(512, 512)
	n := a.N
	par := Params{M: 10, Tau: 1e-4, K: 2}
	block := make([]URow, n)
	pivot := func(k int) *URow { return &block[k] }
	factorBlock := func(s *Scratch, st *Stats) {
		for i := 0; i < n; i++ {
			cols, vals := a.Row(i)
			tau := par.Tau * a.RowNorm2(i)
			_, _, rc, rv := s.EliminateRowSeq(i, cols, vals, pivot, 0, i, tau, par.M, 0, st)
			u, err := s.FactorPivotRow(i, rc, rv, tau, par.M, 0, st)
			if err != nil {
				b.Fatal(err)
			}
			block[i] = u
		}
	}
	b.Run("wide", func(b *testing.B) {
		var st Stats
		for it := 0; it < b.N; it++ {
			factorBlock(NewScratch(2*n), &st)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/row")
	})
	b.Run("spread", func(b *testing.B) {
		var st Stats
		s := NewScratch(2 * n)
		factorBlock(s, &st)
		const rows = 4096
		rng := rand.New(rand.NewSource(5))
		cols := make([][]int, rows)
		vals := make([][]float64, rows)
		for r := range cols {
			seen := map[int]bool{}
			for len(seen) < 5 {
				seen[rng.Intn(n)] = true
			}
			for j := range seen {
				cols[r] = append(cols[r], j)
			}
			sortInts(cols[r])
			cols[r] = append(cols[r], n+r)
			vals[r] = []float64{-1, -1, -1, -1, -1, 4}
		}
		b.ResetTimer()
		for it := 0; it < b.N; it++ {
			s = NewScratch(2 * n)
			for r := range cols {
				s.EliminateRowSeq(n+r, cols[r], vals[r], pivot, 0, n, par.Tau*4.5, par.M, par.K, &st)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
	})
}
