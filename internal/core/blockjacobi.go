package core

import "repro/internal/sparse"

// BlockJacobi returns the plan of the classic zero-communication parallel
// preconditioner the interface phase of PILUT exists to beat: plan.A with
// every coupling between rows of different processors dropped, under
// plan's layout. Every row of it is interior, so Factor (or Refactor) on
// it is phase 1 alone — each processor ILUT-factors its diagonal block —
// and the triangular sweeps of the result exchange nothing. The
// preconditioner ignores exactly the interface couplings, so its
// iteration counts degrade as the processor count (and with it the
// discarded coupling mass) grows. A row whose diagonal the pattern lacks
// gets an explicit zero there, which ILUT's pivot floor repairs.
func BlockJacobi(plan *Plan) (*Plan, error) {
	a, part := plan.A, plan.Lay.PartOf
	b := sparse.NewBuilder(a.N, a.M)
	for i := 0; i < a.N; i++ {
		cols, vals := a.Row(i)
		diagSeen := false
		for k, j := range cols {
			if part[j] != part[i] {
				continue // off-block coupling discarded
			}
			diagSeen = diagSeen || j == i
			b.Add(i, j, vals[k])
		}
		if !diagSeen {
			b.Add(i, i, 0)
		}
	}
	return NewPlan(b.Build(), plan.Lay)
}
