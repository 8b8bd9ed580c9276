package service

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/pcomm"
	"repro/internal/sparse"
)

// The recovery ladder, climbed one rung per *core.BreakdownError. The
// empty rung is the configured factorization; each later rung trades
// preconditioner quality for robustness, ending at block-Jacobi — a
// zero-communication factorization of diagonally shifted local blocks
// whose pivot floor cannot cascade, the containment floor that always
// produces *some* usable preconditioner. Any failure that is not a
// breakdown (a panicked processor, a watchdog deadlock) aborts the climb
// immediately: retrying cannot help and the caller needs the real error.
var ladderRungs = []string{"", "shift", "relaxed", "blockjacobi"}

// analysis is what the symbolic front end hands every route to a cache
// entry: the elimination plan bound to one value set, and where its
// pattern-only half came from.
type analysis struct {
	plan *core.Plan
	// mats are the cached ghost-exchange templates of a symbolic hit; nil
	// marks a miss, when the operators must be set up in a run.
	mats []*dist.Matrix
}

// analysisFor is the symbolic front end: PILUT's steps 1–2 (partition,
// layout, interior/interface classification, interior numbering) for a,
// which are a pure function of the sparsity pattern and (Procs, Seed).
// They are looked up in the pattern-keyed symbolic tier first: a hit
// only binds a's values; a miss analyzes from scratch. Local builds and
// imports of a peer's factorization both start here, so both fill and
// both profit from the same tier. The server lock is taken only around
// the lookup.
func (s *Server) analysisFor(key string, a *sparse.CSR) (*analysis, error) {
	patternKey := sparse.PatternFingerprint(a)
	s.mu.Lock()
	se, ok := s.symbolic.lookup(patternKey)
	s.mu.Unlock()
	if ok {
		// Bind re-checks the exact pattern; a failure (can only be a
		// fingerprint collision) falls back to a fresh analysis rather
		// than failing the caller.
		if plan, err := se.sym.Bind(a); err == nil {
			return &analysis{plan: plan, mats: se.mats}, nil
		}
	}
	g := graph.FromMatrix(a)
	part := partition.KWay(g, s.cfg.Procs, partition.Options{Seed: s.cfg.Seed})
	lay, err := dist.NewLayout(a.N, s.cfg.Procs, part)
	if err != nil {
		return nil, fmt.Errorf("service: layout for %s: %w", key, err)
	}
	sym, err := core.Analyze(a, lay)
	if err != nil {
		return nil, fmt.Errorf("service: symbolic analysis for %s: %w", key, err)
	}
	plan, err := sym.Bind(a)
	if err != nil {
		return nil, fmt.Errorf("service: elimination plan for %s: %w", key, err)
	}
	return &analysis{plan: plan}, nil
}

// publish records the analysis an entry was just finished under: a miss
// enters the symbolic tier with the entry's operators as its templates,
// a hit is already there. built marks a local numeric build, the only
// kind RefactorBuilds counts — an import factors nothing.
func (s *Server) publish(an *analysis, mats []*dist.Matrix, built bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case an.mats == nil:
		sym := an.plan.Symbolic
		s.symbolic.insert(sym.PatternKey, &symEntry{sym: sym, mats: mats}, sym.SizeBytes())
	case built:
		s.refactors++
	}
}

// rungPlan returns the plan a ladder rung's pieces are laid out under.
// Only "shift" differs from the analysis: the shift may create diagonal
// entries the pattern lacks, so that rung plans the shifted matrix from
// scratch (same layout) and cannot reuse the symbolic analysis.
func rungPlan(key string, an *analysis, step string) (*core.Plan, error) {
	if step != "shift" {
		return an.plan, nil
	}
	a := an.plan.A
	plan, err := core.NewPlan(shiftDiagonal(a, shiftAlpha(a)), an.plan.Lay)
	if err != nil {
		return nil, fmt.Errorf("service: shifted elimination plan for %s: %w", key, err)
	}
	return plan, nil
}

// newEntry starts the cache entry for a under an: everything but the
// preconditioner pieces. The distributed operator the solves apply is
// always the original a — a degraded preconditioner must never change
// which system is being solved. On a symbolic hit the operators are
// cloned serially from the cached templates (CloneFor communicates
// nothing) and setup is nil; on a miss setup is the ghost-plan exchange
// each processor of the caller's run must execute.
func newEntry(key string, an *analysis) (ent *entry, setup func(pcomm.Comm), err error) {
	a, lay := an.plan.A, an.plan.Lay
	ent = &entry{
		key:         key,
		a:           a,
		lay:         lay,
		pcs:         make([]precPiece, lay.P),
		mats:        make([]*dist.Matrix, lay.P),
		symbolicHit: an.mats != nil,
	}
	if an.mats == nil {
		return ent, func(proc pcomm.Comm) { ent.mats[proc.ID()] = dist.NewMatrix(proc, lay, a) }, nil
	}
	for q := range ent.mats {
		if ent.mats[q], err = an.mats[q].CloneFor(a); err != nil {
			return nil, nil, fmt.Errorf("service: operator clone for %s: %w", key, err)
		}
	}
	return ent, nil, nil
}

// buildEntry plans and factors a on cfg.Procs virtual processors,
// climbing the recovery ladder on numerical breakdown. It runs on a
// worker goroutine. Any failed factorization surfaces as an error, never
// a panic or a process death.
func (s *Server) buildEntry(key string, a *sparse.CSR) (ent *entry, err error) {
	// The serial phases (graph, partition, analysis, diagonal shift) can
	// panic on a malformed matrix; pcomm.Guard only covers the machine
	// run, so catch those here and surface an error.
	defer func() {
		if r := recover(); r != nil {
			ent = nil
			err = fmt.Errorf("service: factorization of %s failed: %v", key, r)
		}
	}()
	an, err := s.analysisFor(key, a)
	if err != nil {
		return nil, err
	}
	var lastErr error
	for i, step := range ladderRungs {
		ent, err := s.buildRung(key, an, step)
		if err == nil {
			s.publish(an, ent.mats, true)
			return ent, nil
		}
		lastErr = err
		var bd *core.BreakdownError
		if !errors.As(err, &bd) {
			return nil, err
		}
		if i < len(ladderRungs)-1 {
			s.stats.count(&s.stats.v.LadderRetries)
		}
	}
	return nil, fmt.Errorf("service: recovery ladder exhausted for %s: %w", key, lastErr)
}

// buildRung runs one ladder rung: the preconditioner is factored from
// the rung's (possibly shifted) plan in the same run that sets up the
// operators.
func (s *Server) buildRung(key string, an *analysis, step string) (*entry, error) {
	cfg := s.cfg
	params := cfg.Params
	if cfg.Faults != nil {
		params.PivotPerturb = cfg.Faults.PivotScale
	}
	maxRepair := cfg.MaxRepairRate
	switch step {
	case "relaxed":
		params.Tau /= 10
		if params.M > 0 {
			params.M *= 2
		}
	case "blockjacobi":
		// The containment floor must terminate even under a persistent
		// injected pivot fault: the fault targets the distributed
		// pivot-row pipeline, so the local-block fallback runs
		// unperturbed and without the breakdown check (its pivot floor
		// repairs locally and cannot cascade across processors).
		params.PivotPerturb = 0
		maxRepair = 0
	}
	plan, err := rungPlan(key, an, step)
	if err != nil {
		return nil, err
	}
	ent, setup, err := newEntry(key, an)
	if err != nil {
		return nil, err
	}
	ent.degraded, ent.ladderStep = step != "", step

	bjErrs := make([]error, cfg.Procs)
	res, runErr := s.run("factor", key, func(proc pcomm.Comm) {
		if step == "blockjacobi" {
			bj, err := core.FactorBlockJacobi(proc, plan, params)
			if err != nil {
				bjErrs[proc.ID()] = err
				return
			}
			ent.pcs[proc.ID()] = bj
		} else {
			ent.pcs[proc.ID()] = core.Refactor(proc, plan, core.Options{
				Params:        params,
				MISRounds:     cfg.MISRounds,
				Seed:          cfg.Seed,
				MaxRepairRate: maxRepair,
			})
		}
		if setup != nil {
			setup(proc)
		}
	})
	if runErr != nil {
		return nil, fmt.Errorf("service: factorization of %s failed: %w", key, runErr)
	}
	for _, err := range bjErrs {
		if err != nil {
			return nil, fmt.Errorf("service: factorization of %s failed: %w", key, err)
		}
	}
	ent.factorSeconds = res.Elapsed
	if pp, ok := ent.pcs[0].(*core.ProcPrecond); ok {
		ent.levels = pp.NumLevels()
	}
	return ent, nil
}

// shiftAlpha picks the diagonal shift: one percent of the largest
// diagonal magnitude, falling back to the largest entry magnitude and
// finally to 1 for a pathologically zero matrix.
func shiftAlpha(a *sparse.CSR) float64 {
	var maxDiag, maxAll float64
	for i := 0; i < a.N; i++ {
		cols, vals := a.Row(i)
		for k, j := range cols {
			v := math.Abs(vals[k])
			if v > maxAll {
				maxAll = v
			}
			if j == i && v > maxDiag {
				maxDiag = v
			}
		}
	}
	switch {
	case maxDiag > 0:
		return 1e-2 * maxDiag
	case maxAll > 0:
		return 1e-2 * maxAll
	default:
		return 1
	}
}

// shiftDiagonal returns a + alpha·I, creating diagonal entries where the
// pattern lacks them. Only the ladder's preconditioner sees the shifted
// matrix; the solve operator stays the original a.
func shiftDiagonal(a *sparse.CSR, alpha float64) *sparse.CSR {
	b := sparse.NewBuilder(a.N, a.M)
	for i := 0; i < a.N; i++ {
		cols, vals := a.Row(i)
		diagSeen := false
		for k, j := range cols {
			v := vals[k]
			if j == i {
				v += alpha
				diagSeen = true
			}
			b.Add(i, j, v)
		}
		if !diagSeen {
			b.Add(i, i, alpha)
		}
	}
	return b.Build()
}
