package core

import (
	"fmt"
	"math"

	"repro/internal/pcomm"
)

// BreakdownError is the collective verdict that a factorization is
// numerically useless: too many pivots needed floor repairs, or a
// non-finite value reached the factors. Every processor panics with the
// same value (the inputs to the decision are AllGathered, so the verdict
// is identical on all ranks), Run wraps it in a *pcomm.RunError, and the
// service's recovery ladder matches it with errors.As to decide whether
// to retry with a diagonal shift, relaxed parameters, or the
// block-Jacobi fallback.
type BreakdownError struct {
	// FixedPivots and Rows are global counts; Rate is their ratio.
	FixedPivots int
	Rows        int
	Rate        float64
	// NonFinite counts NaN/Inf entries found in the factors (global).
	NonFinite int
}

func (e *BreakdownError) Error() string {
	if e.NonFinite > 0 {
		return fmt.Sprintf("core: numerical breakdown: %d non-finite entries in the factors (%d/%d pivots repaired)",
			e.NonFinite, e.FixedPivots, e.Rows)
	}
	return fmt.Sprintf("core: numerical breakdown: %d of %d pivots (%.0f%%) needed floor repairs",
		e.FixedPivots, e.Rows, 100*e.Rate)
}

// checkBreakdown is the collective breakdown test run at the end of
// Factor when Options.MaxRepairRate > 0. It gathers (repaired pivots,
// rows, non-finite entries) from every processor — integer data, so the
// factors themselves stay bitwise untouched — and panics with a
// *BreakdownError on every rank when the global repair rate exceeds
// maxRate or any non-finite value is present.
func (pc *ProcPrecond) checkBreakdown(p pcomm.Comm, maxRate float64) {
	nonFinite := 0
	for _, vals := range [3][]float64{pc.fwd.val, pc.bwd.val, pc.bwd.diag} {
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				nonFinite++
			}
		}
	}
	local := []int{pc.Stats.ILU.FixedPivot, len(pc.owned), nonFinite}
	var fixed, rows, bad int
	for _, part := range pcomm.AllGatherSlice(p, local) {
		fixed += part[0]
		rows += part[1]
		bad += part[2]
	}
	if rows == 0 {
		return
	}
	rate := float64(fixed) / float64(rows)
	if bad > 0 || rate > maxRate {
		panic(&BreakdownError{FixedPivots: fixed, Rows: rows, Rate: rate, NonFinite: bad})
	}
}
