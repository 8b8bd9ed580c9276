package core

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/ilu"
	"repro/internal/machine"
	"repro/internal/matgen"
	"repro/internal/partition"
	"repro/internal/pcomm"
	"repro/internal/pcomm/backend"
	"repro/internal/pcomm/pcommtest"
)

// buildBatchFixture factors a small grid problem on P simulated
// processors and returns the plan plus per-processor pieces.
func buildBatchFixture(t *testing.T, p int) (*dist.Layout, []*ProcPrecond) {
	t.Helper()
	a := matgen.Grid2D(20, 20)
	g := graph.FromMatrix(a)
	part := partition.KWay(g, p, partition.Options{Seed: 3})
	lay, err := dist.NewLayout(a.N, p, part)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := NewPlan(a, lay)
	if err != nil {
		t.Fatal(err)
	}
	pcs := make([]*ProcPrecond, p)
	m := pcommtest.New(t, p, machine.Zero())
	m.SetWatchdog(30 * time.Second)
	m.Run(func(proc pcomm.Comm) {
		pcs[proc.ID()] = Factor(proc, plan, Options{Params: ilu.Params{M: 8, Tau: 1e-4, K: 2}, Seed: 3})
	})
	return lay, pcs
}

// TestSolveBatchMatchesRepeatedSolve applies sequences of batches through
// one set of factors and demands that the last batch of each sequence
// equals repeated single Solves bit for bit, at the cost of the exchange
// plan's messages and no collective whatever B is. The sequences cover
// B = 1 (the width Solve itself runs at) and narrower batches of different
// content after a wider one, when the retained lanes hold another
// application's values.
func TestSolveBatchMatchesRepeatedSolve(t *testing.T) {
	const P = 4
	lay, pcs := buildBatchFixture(t, P)
	rng := rand.New(rand.NewSource(7))
	const nRHS = 6
	parts := make([][][]float64, nRHS) // parts[r][proc]
	for r := range parts {
		b := make([]float64, lay.N)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		parts[r] = lay.Scatter(b)
	}

	// Reference: one single application per right-hand side.
	single := make([][][]float64, nRHS)
	for r := range single {
		ys := make([][]float64, P)
		m := pcommtest.New(t, P, machine.Zero())
		m.SetWatchdog(30 * time.Second)
		m.Run(func(proc pcomm.Comm) {
			y := make([]float64, lay.NLocal(proc.ID()))
			pcs[proc.ID()].Solve(proc, y, parts[r][proc.ID()])
			ys[proc.ID()] = y
		})
		single[r] = ys
	}

	// Each batch lists the right-hand sides it solves, in lane order.
	cases := []struct {
		name    string
		batches [][]int
	}{
		{"B=3", [][]int{{0, 1, 2}}},
		{"B=1", [][]int{{3}}},
		{"B=1 after B=3", [][]int{{0, 1, 2}, {4}}},
		{"B=2 after B=3, other content", [][]int{{0, 1, 2}, {5, 3}}},
	}
	for _, kind := range []string{backend.Modelled, backend.Real} {
		for _, tc := range cases {
			t.Run(kind+"/"+tc.name, func(t *testing.T) {
				last := tc.batches[len(tc.batches)-1]
				got := make([][][]float64, len(last)) // got[lane][proc]
				for bi := range got {
					got[bi] = make([][]float64, P)
				}
				m, err := backend.New(kind, P, machine.Zero())
				if err != nil {
					t.Fatal(err)
				}
				m.SetWatchdog(30 * time.Second)
				res := m.Run(func(proc pcomm.Comm) {
					me := proc.ID()
					for k, batch := range tc.batches {
						bs := make([][]float64, len(batch))
						ys := make([][]float64, len(batch))
						for bi, r := range batch {
							bs[bi] = parts[r][me]
							ys[bi] = make([]float64, lay.NLocal(me))
						}
						pcs[me].SolveBatch(proc, ys, bs)
						if k == len(tc.batches)-1 {
							for bi := range ys {
								got[bi][me] = ys[bi]
							}
						}
					}
				})
				for bi, r := range last {
					want := lay.Gather(single[r])
					have := lay.Gather(got[bi])
					for i := range want {
						if want[i] != have[i] {
							t.Fatalf("lane %d (rhs %d): batch solve differs at %d: %v vs %v", bi, r, i, have[i], want[i])
						}
					}
				}
				// Each batch sends the plan's messages once, independent of
				// B, and synchronizes with nobody it does not read from.
				for q, pc := range pcs {
					wantMsgs := int64((len(pc.fwd.send) + len(pc.bwd.send)) * len(tc.batches))
					if st := res.PerProc[q]; st.MsgsSent != wantMsgs || st.Collectives != 0 {
						t.Fatalf("proc %d: batch solves used %d messages and %d collectives, want %d and 0",
							q, st.MsgsSent, st.Collectives, wantMsgs)
					}
				}
			})
		}
	}
}

func TestSolveBatchSizeMismatchPanics(t *testing.T) {
	_, pcs := buildBatchFixture(t, 2)
	defer func() {
		if recover() == nil {
			t.Fatalf("mismatched batch sizes did not panic")
		}
	}()
	m := pcommtest.New(t, 1, machine.Zero())
	m.Run(func(proc pcomm.Comm) {
		pcs[0].SolveBatch(proc, make([][]float64, 2), make([][]float64, 3))
	})
}

func TestProcPrecondSizeBytes(t *testing.T) {
	_, pcs := buildBatchFixture(t, 4)
	var total int64
	for _, pc := range pcs {
		s := pc.SizeBytes()
		if s <= 0 {
			t.Fatalf("SizeBytes = %d, want > 0", s)
		}
		total += s
	}
	// The factors hold 12 bytes per stored entry.
	var nnz int
	for _, pc := range pcs {
		nnz += pc.NNZ()
	}
	if total < int64(12*nnz)/2 {
		t.Fatalf("SizeBytes total %d implausibly small for %d stored entries", total, nnz)
	}
}
