// Package experiments reproduces the paper's evaluation: Table 1
// (factorization time), Table 2 (triangular-solve and matrix–vector time),
// Table 3 (GMRES preconditioning quality), and Figures 4–6 (relative
// speedups), plus the ablations DESIGN.md commits to. Run is the one
// entry to its drivers: cmd/experiments calls it at full size, and the
// golden test (testdata/golden.txt) at a reduced one.
package experiments

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/ilu"
	"repro/internal/krylov"
	"repro/internal/machine"
	"repro/internal/matgen"
	"repro/internal/partition"
	"repro/internal/pcomm"
	"repro/internal/pcomm/backend"
	"repro/internal/sparse"
)

// Config scales and parameterizes a full evaluation run. The paper's sweep
// is m ∈ {5,10,20}, t ∈ {1e-2,1e-4,1e-6}, k = 2, p ∈ {16,32,64,128}.
type Config struct {
	Procs []int
	Ms    []int
	Taus  []float64
	K     int
	// G0Side is the square-grid side for the G0 problem (the paper's G0
	// has ≈52k unknowns ⇒ side ≈ 228). Default is a reduced scale; pass
	// -scale paper to cmd/experiments for paper size.
	G0Side int
	// TorsoSide is the cube side for the synthetic TORSO stand-in (the
	// paper's TORSO has ≈201k unknowns ⇒ side ≈ 59).
	TorsoSide int
	Seed      int64
	Cost      machine.CostModel
	// Backend picks the communication backend every experiment machine
	// runs on: "" or "modelled" for the simulated machine (Cost applies),
	// "real" for wall-clock shared memory (Cost ignored, Seconds become
	// wall time).
	Backend string
}

// mustWorld builds the configured backend's world with p processors.
// Experiment entry points validate Backend up front, so an unknown kind
// here is a programming error and panics.
func (c Config) mustWorld(p int) pcomm.World {
	w, err := backend.New(c.Backend, p, c.Cost)
	if err != nil {
		panic(err)
	}
	return w
}

// Default returns the reduced-scale configuration cmd/experiments runs
// by default: same sweep as the paper, smaller matrices.
func Default() Config {
	return Config{
		Procs:     []int{16, 32, 64, 128},
		Ms:        []int{5, 10, 20},
		Taus:      []float64{1e-2, 1e-4, 1e-6},
		K:         2,
		G0Side:    128,
		TorsoSide: 28,
		Seed:      1,
		Cost:      machine.T3D(),
	}
}

// PaperScale returns the full-size configuration matching the paper's
// problem sizes.
func PaperScale() Config {
	c := Default()
	c.G0Side = 228
	c.TorsoSide = 59
	return c
}

// Problem bundles a named matrix with cached plans per processor count,
// so every experiment on the same (matrix, p) pair sees the identical
// distribution.
type Problem struct {
	Name string
	A    *sparse.CSR
	seed int64

	plans map[int]*core.Plan
}

// G0 builds the 2-D grid problem.
func (c Config) G0() *Problem {
	return &Problem{Name: "G0", A: matgen.Grid2D(c.G0Side, c.G0Side), seed: c.Seed, plans: map[int]*core.Plan{}}
}

// Torso builds the synthetic TORSO problem.
func (c Config) Torso() *Problem {
	return &Problem{Name: "TORSO", A: matgen.Torso(c.TorsoSide, c.TorsoSide, c.TorsoSide, c.Seed), seed: c.Seed,
		plans: map[int]*core.Plan{}}
}

// PlanFor returns (building and caching on first use) the plan for p
// processors.
func (pr *Problem) PlanFor(p int) (*core.Plan, error) {
	if plan, ok := pr.plans[p]; ok {
		return plan, nil
	}
	plan, err := core.Prepare(pr.A, p, pr.seed)
	if err != nil {
		return nil, err
	}
	pr.plans[p] = plan
	return plan, nil
}

// RandomPlanFor is PlanFor with a random partition (partition ablation).
func (pr *Problem) RandomPlanFor(p int) (*core.Plan, error) {
	lay, err := dist.NewLayout(pr.A.N, p, partition.RandomKWay(graph.FromMatrix(pr.A), p, pr.seed))
	if err != nil {
		return nil, err
	}
	return core.NewPlan(pr.A, lay)
}

// FactorOutcome is one cell of Table 1 plus the structure data the text
// quotes (number of independent sets, fill).
type FactorOutcome struct {
	Seconds   float64 // modelled time on the virtual machine
	Levels    int     // q
	NNZ       int     // stored factor entries
	Interface int     // global interface unknowns
}

// Factorization runs the parallel ILUT/ILUT* factorization and reports
// the modelled time; it also returns the per-processor pieces so callers
// can keep using the preconditioner.
func (c Config) Factorization(pr *Problem, p int, params ilu.Params) (FactorOutcome, []*core.ProcPrecond, error) {
	plan, err := pr.PlanFor(p)
	if err != nil {
		return FactorOutcome{}, nil, err
	}
	pcs := make([]*core.ProcPrecond, p)
	m := c.mustWorld(p)
	res := m.Run(func(proc pcomm.Comm) {
		pcs[proc.ID()] = core.Factor(proc, plan, core.Options{Params: params, Seed: c.Seed})
	})
	nnz := 0
	for _, pc := range pcs {
		nnz += pc.NNZ()
	}
	return FactorOutcome{
		Seconds:   res.Elapsed,
		Levels:    pcs[0].NumLevels(),
		NNZ:       nnz,
		Interface: plan.NInterface,
	}, pcs, nil
}

// TriangularSolveRate reports the modelled time of one forward+backward
// substitution with an already-built preconditioner (averaged over
// nApply) and the per-processor MFlop rate — the paper's §6 comparison
// metric for the substitutions.
func (c Config) TriangularSolveRate(pr *Problem, p int, pcs []*core.ProcPrecond, nApply int) (float64, float64, error) {
	plan, err := pr.PlanFor(p)
	if err != nil {
		return 0, 0, err
	}
	lay := plan.Lay
	b := sparse.Ones(pr.A.N)
	bParts := lay.Scatter(b)
	m := c.mustWorld(p)
	res := m.Run(func(proc pcomm.Comm) {
		x := make([]float64, lay.NLocal(proc.ID()))
		for it := 0; it < nApply; it++ {
			pcs[proc.ID()].Solve(proc, x, bParts[proc.ID()])
		}
	})
	mflops := res.TotalFlops() / (res.Elapsed * float64(p)) / 1e6
	return res.Elapsed / float64(nApply), mflops, nil
}

// MatVecRate reports the modelled time of one distributed matrix–vector
// product (averaged over nApply), the last row of Table 2, and the
// per-processor MFlop rate.
func (c Config) MatVecRate(pr *Problem, p int, nApply int) (float64, float64, error) {
	plan, err := pr.PlanFor(p)
	if err != nil {
		return 0, 0, err
	}
	lay := plan.Lay
	x := sparse.Ones(pr.A.N)
	xParts := lay.Scatter(x)
	m := c.mustWorld(p)
	res := m.Run(func(proc pcomm.Comm) {
		dm := dist.NewMatrix(proc, lay, pr.A)
		y := make([]float64, lay.NLocal(proc.ID()))
		for it := 0; it < nApply; it++ {
			dm.MulVec(proc, y, xParts[proc.ID()])
		}
	})
	mflops := res.TotalFlops() / (res.Elapsed * float64(p)) / 1e6
	return res.Elapsed / float64(nApply), mflops, nil
}

// GMRESOutcome is one cell of Table 3.
type GMRESOutcome struct {
	Seconds   float64 // modelled GMRES time (excluding factorization)
	NMV       int
	Converged bool
}

// GMRES runs the distributed solver with b = A·e and a zero initial
// guess, the paper's setup, and reports time and matrix–vector products.
// The preconditioner is the parallel factorization with params (ILUT or,
// when params.K > 0, ILUT*), or the diagonal baseline when params is nil.
func (c Config) GMRES(pr *Problem, p int, params *ilu.Params, restart, maxMV int, tol float64) (GMRESOutcome, error) {
	plan, err := pr.PlanFor(p)
	if err != nil {
		return GMRESOutcome{}, err
	}
	// Build the preconditioner first (its cost is reported separately in
	// the paper).
	var pcs []*core.ProcPrecond
	if params != nil {
		pcs = make([]*core.ProcPrecond, p)
		mf := c.mustWorld(p)
		mf.Run(func(proc pcomm.Comm) {
			pcs[proc.ID()] = core.Factor(proc, plan, core.Options{Params: *params, Seed: c.Seed})
		})
	}

	res, out := c.runGMRES(pr, p, plan.Lay, func(proc pcomm.Comm) krylov.DistPreconditioner {
		if pcs != nil {
			return pcs[proc.ID()]
		}
		j, err := krylov.NewDistJacobi(plan.Lay, pr.A, proc.ID())
		if err != nil {
			panic(err)
		}
		return j
	}, krylov.Options{Restart: restart, Tol: tol, MaxMatVec: maxMV})
	return GMRESOutcome{
		Seconds:   res.Elapsed,
		NMV:       out.NMatVec,
		Converged: out.Converged,
	}, nil
}

// runGMRES is the one distributed solve of the Table 3 drivers: b = A·e
// scattered over lay, a zero initial guess and prec's preconditioner on
// a fresh world. It reports the run and rank 0's result.
func (c Config) runGMRES(pr *Problem, p int, lay *dist.Layout, prec func(pcomm.Comm) krylov.DistPreconditioner, opt krylov.Options) (pcomm.Result, krylov.Result) {
	b := make([]float64, pr.A.N)
	pr.A.MulVec(b, sparse.Ones(pr.A.N))
	bParts := lay.Scatter(b)
	outs := make([]krylov.Result, p)
	res := c.mustWorld(p).Run(func(proc pcomm.Comm) {
		dm := dist.NewMatrix(proc, lay, pr.A)
		x := make([]float64, lay.NLocal(proc.ID()))
		r, err := krylov.DistGMRES(proc, dm, prec(proc), x, bParts[proc.ID()], opt)
		if err != nil {
			panic(err)
		}
		outs[proc.ID()] = r
	})
	return res, outs[0]
}

// ConfigName formats a factorization configuration the way the paper
// labels its rows.
func ConfigName(star bool, m int, tau float64, k int) string {
	if star {
		return fmt.Sprintf("ILUT*(%d,%.0e,%d)", m, tau, k)
	}
	return fmt.Sprintf("ILUT(%d,%.0e)", m, tau)
}

// Table is a simple fixed-width table writer shared by the experiment
// drivers.
type Table struct {
	Header []string
	Rows   [][]string
}

// Add appends a row.
func (t *Table) Add(cells ...string) { t.Rows = append(t.Rows, cells) }

// Write renders the table with aligned columns.
func (t *Table) Write(w io.Writer) {
	width := make([]int, len(t.Header))
	for i, h := range t.Header {
		width[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				fmt.Fprint(w, "  ")
			}
			fmt.Fprintf(w, "%-*s", width[i], c)
		}
		fmt.Fprintln(w)
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		for j := 0; j < width[i]; j++ {
			sep[i] += "-"
		}
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
}
