//go:build !race

package service

import (
	"testing"

	"repro/internal/matgen"
)

// TestDecodeFactorAllocs guards the decoder's allocation count on a p = 4
// body. Every field of a piece is one flat allocation (plus one row
// header for a list of rows), so the count scales with P and not with the
// rows: the budget is the measured 67 mallocs + 10 %, and a body of four
// times the rows must cost exactly as many. Excluded under the race
// detector, whose instrumentation allocates.
func TestDecodeFactorAllocs(t *testing.T) {
	const budget = 74
	var counts []float64
	for _, side := range []int{20, 40} {
		_, _, data := exportOf(t, matgen.Grid2D(side, side), 4)
		n := testing.AllocsPerRun(20, func() {
			if _, err := decodeFactor(data); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%d×%d grid, %d bytes: %.0f mallocs per decode", side, side, len(data), n)
		if n > budget {
			t.Errorf("%d×%d grid: %.0f mallocs per decode, budget %d", side, side, n, budget)
		}
		counts = append(counts, n)
	}
	if counts[0] != counts[1] {
		t.Errorf("decode mallocs grow with the rows: %v", counts)
	}
}
