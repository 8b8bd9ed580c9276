//go:build !race

// The test here factors about 32 MiB of matrices, which takes a minute
// under the race detector, and nothing in it runs concurrently.

package service

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/matgen"
)

// TestSequenceAboveMatrixTier: a sequence needs all of its matrices held
// when it is accepted. A family larger than matrixBudget, submitted
// whole, fails before any step runs with ErrUnknownMatrix naming its
// evicted keys, and resubmitting the whole family fails the same way.
// Split into calls whose matrices fit, each after submitting its own
// keys and seeded with the last x of the call before, it is served.
func TestSequenceAboveMatrixTier(t *testing.T) {
	ctx := context.Background()
	s := New(Config{Procs: 4, Workers: 1})
	defer s.Shutdown(ctx)
	base := matgen.Grid2D(128, 128)
	fam := matgen.Evolve(base, int(matrixBudget/base.SizeBytes())+1, 1e-3, 7)
	keys := make([]string, len(fam))
	submit := func(lo, hi int) {
		t.Helper()
		for i := lo; i < hi; i++ {
			key, _, err := s.Submit(fam[i])
			if err != nil {
				t.Fatal(err)
			}
			keys[i] = key
		}
	}
	b := rhs(base.N, 1)

	for attempt := 0; attempt < 2; attempt++ {
		submit(0, len(fam))
		res, err := s.SolveSequence(ctx, keys, b, SolveOptions{}, true)
		if !errors.Is(err, ErrUnknownMatrix) || !strings.Contains(err.Error(), keys[0]) || len(res) != 0 {
			t.Fatalf("submission %d of the whole family: %d steps, err = %v; want ErrUnknownMatrix naming %s", attempt, len(res), err, keys[0])
		}
	}
	if st := s.StatsSnapshot(); st.Solves.Requests != 0 || st.Cache.Factorizations != 0 {
		t.Fatalf("a refused sequence ran %d solves and %d factorizations", st.Solves.Requests, st.Cache.Factorizations)
	}

	var x0 []float64
	half := len(fam) / 2
	for _, span := range [][2]int{{0, half}, {half, len(fam)}} {
		submit(span[0], span[1])
		res, err := s.SolveSequence(ctx, keys[span[0]:span[1]], b, SolveOptions{X0: x0}, true)
		if err != nil {
			t.Fatalf("steps %d..%d: %v", span[0], span[1]-1, err)
		}
		for i, r := range res {
			if !r.Converged {
				t.Fatalf("step %d did not converge", span[0]+i)
			}
		}
		x0 = res[len(res)-1].X
	}
}
