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
	"strings"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/ilu"
	"repro/internal/krylov"
	"repro/internal/machine"
	"repro/internal/matgen"
	"repro/internal/mis"
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
// distribution, and with the cells computed on it so far.
type Problem struct {
	Name string
	A    *sparse.CSR
	seed int64

	plans map[int]*core.Plan
	cells map[cellKey]Cell
}

func newProblem(name string, a *sparse.CSR, seed int64) *Problem {
	return &Problem{Name: name, A: a, seed: seed, plans: map[int]*core.Plan{}, cells: map[cellKey]Cell{}}
}

// G0 builds the 2-D grid problem.
func (c Config) G0() *Problem { return newProblem("G0", matgen.Grid2D(c.G0Side, c.G0Side), c.Seed) }

// Torso builds the synthetic TORSO problem.
func (c Config) Torso() *Problem {
	return newProblem("TORSO", matgen.Torso(c.TorsoSide, c.TorsoSide, c.TorsoSide, c.Seed), c.Seed)
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

// Cell is one factorization of a problem as the drivers print it. The
// paper's tables, figures, breakdown and ablations are views over cells,
// and a Problem keeps each cell it has computed, so a run factors every
// (p, options) pair once however many drivers print it.
type Cell struct {
	Seconds   float64 // modelled factorization time on the virtual machine
	Levels    int     // q
	Sizes     []int   // the q interface levels' sizes, in order
	NNZ       int     // stored factor entries
	Interface int     // global interface unknowns
	Overhead  float64 // overhead share of processor-time while factoring
	// SolveSeconds is one forward+backward substitution with the factors,
	// averaged over nApply, and SolveMFlops its per-processor rate — the
	// paper's §6 comparison metric for the substitutions.
	SolveSeconds, SolveMFlops float64
}

// cellKey is what a cell is a function of, besides its problem.
type cellKey struct {
	p      int
	params ilu.Params
	rounds int  // MIS augmentation bound
	random bool // random partition instead of multilevel k-way
	ilu0   bool // static-pattern ILU(0); params unused
	cost   machine.CostModel
}

// at is the key of the factorization with params on p processors under
// c's cost model, with the default MIS rounds and partition.
func (c Config) at(p int, params ilu.Params) cellKey {
	return cellKey{p: p, params: params, rounds: mis.DefaultRounds, cost: c.Cost}
}

// Factorization returns the cell of pr factored with params (ILUT or,
// when params.K > 0, ILUT*) on p processors, computing it on first use.
func (c Config) Factorization(pr *Problem, p int, params ilu.Params) (Cell, error) {
	return c.cell(pr, c.at(p, params))
}

// cell returns pr's cell at k, computing it on first use.
func (c Config) cell(pr *Problem, k cellKey) (Cell, error) {
	if cell, ok := pr.cells[k]; ok {
		return cell, nil
	}
	return c.factor(pr, k, nil)
}

// factor is the package's one factorization: it factors pr at k on a
// fresh world, takes the cell's numbers if pr has none at k yet, and hands
// the pieces to use, when non-nil, while they live. The pieces are dropped
// on return (every cell's would not fit at -scale paper), so a driver
// that solves with them — Table 3, the k ablation, ILU(0) — factors again
// a cell an earlier driver took, and runs all its solves on that one
// factorization.
func (c Config) factor(pr *Problem, k cellKey, use func(pcs []*core.ProcPrecond) error) (Cell, error) {
	planFor := pr.PlanFor
	if k.random {
		planFor = pr.RandomPlanFor
	}
	plan, err := planFor(k.p)
	if err != nil {
		return Cell{}, err
	}
	pcs := make([]*core.ProcPrecond, k.p)
	res := c.mustWorld(k.p).Run(func(proc pcomm.Comm) {
		if k.ilu0 {
			pcs[proc.ID()] = core.FactorILU0(proc, plan, k.rounds, c.Seed)
		} else {
			pcs[proc.ID()] = core.Factor(proc, plan, core.Options{Params: k.params, MISRounds: k.rounds, Seed: c.Seed})
		}
	})
	cell, ok := pr.cells[k]
	if !ok {
		cell = Cell{Seconds: res.Elapsed, Levels: pcs[0].NumLevels(), Interface: plan.NInterface,
			Overhead: res.OverheadFraction()}
		for _, l := range pcs[0].Levels() {
			cell.Sizes = append(cell.Sizes, l.Size)
		}
		for _, pc := range pcs {
			cell.NNZ += pc.NNZ()
		}
		cell.SolveSeconds, cell.SolveMFlops = c.solveRate(plan.Lay, pcs)
		pr.cells[k] = cell
	}
	if use != nil {
		err = use(pcs)
	}
	return cell, err
}

// solveRate reports the modelled time of one forward+backward
// substitution with pcs, laid out by lay (averaged over nApply), and the
// per-processor MFlop rate.
func (c Config) solveRate(lay *dist.Layout, pcs []*core.ProcPrecond) (float64, float64) {
	p := len(pcs)
	bParts := lay.Scatter(sparse.Ones(lay.N))
	res := c.mustWorld(p).Run(func(proc pcomm.Comm) {
		x := make([]float64, lay.NLocal(proc.ID()))
		for it := 0; it < nApply; it++ {
			pcs[proc.ID()].Solve(proc, x, bParts[proc.ID()])
		}
	})
	mflops := res.TotalFlops() / (res.Elapsed * float64(p)) / 1e6
	return res.Elapsed / nApply, mflops
}

// MatVecRate reports the modelled time of one distributed matrix–vector
// product (averaged over nApply), the last row of Table 2, and the
// per-processor MFlop rate. The distributed matrix, whose ghost plan is a
// collective of its own, is built in a run before the timed one, as the
// factors are for the substitution rows.
func (c Config) MatVecRate(pr *Problem, p int) (float64, float64, error) {
	plan, err := pr.PlanFor(p)
	if err != nil {
		return 0, 0, err
	}
	lay := plan.Lay
	mats := make([]*dist.Matrix, p)
	c.mustWorld(p).Run(func(proc pcomm.Comm) { mats[proc.ID()] = dist.NewMatrix(proc, lay, pr.A) })
	xParts := lay.Scatter(sparse.Ones(pr.A.N))
	res := c.mustWorld(p).Run(func(proc pcomm.Comm) {
		y := make([]float64, lay.NLocal(proc.ID()))
		for it := 0; it < nApply; it++ {
			mats[proc.ID()].MulVec(proc, y, xParts[proc.ID()])
		}
	})
	mflops := res.TotalFlops() / (res.Elapsed * float64(p)) / 1e6
	return res.Elapsed / nApply, mflops, nil
}

// GMRESOutcome is one cell of Table 3.
type GMRESOutcome struct {
	Seconds   float64 // modelled GMRES time (excluding factorization)
	NMV       int
	Converged bool
}

// nmv is the matvec count as the paper prints it: starred when the budget
// ran out first.
func (o GMRESOutcome) nmv() string {
	if !o.Converged {
		return fmt.Sprintf("%d*", o.NMV)
	}
	return fmt.Sprintf("%d", o.NMV)
}

// GMRES runs the distributed solver with b = A·e and a zero initial
// guess, the paper's setup, and reports time and matrix–vector products.
// The preconditioner is pcs, the pieces of a factorization of pr on p
// processors (see factor), or the diagonal baseline when pcs is nil.
func (c Config) GMRES(pr *Problem, p int, pcs []*core.ProcPrecond, restart, maxMV int, tol float64) (GMRESOutcome, error) {
	plan, err := pr.PlanFor(p)
	if err != nil {
		return GMRESOutcome{}, err
	}
	lay := plan.Lay
	b := make([]float64, pr.A.N)
	pr.A.MulVec(b, sparse.Ones(pr.A.N))
	bParts := lay.Scatter(b)
	outs := make([]krylov.Result, p)
	res := c.mustWorld(p).Run(func(proc pcomm.Comm) {
		dm := dist.NewMatrix(proc, lay, pr.A)
		x := make([]float64, lay.NLocal(proc.ID()))
		var prec krylov.DistPreconditioner
		if pcs != nil {
			prec = pcs[proc.ID()]
		} else {
			j, err := krylov.NewDistJacobi(lay, pr.A, proc.ID())
			if err != nil {
				panic(err)
			}
			prec = j
		}
		r, err := krylov.DistGMRES(proc, dm, prec, x, bParts[proc.ID()], krylov.Options{Restart: restart, Tol: tol, MaxMatVec: maxMV})
		if err != nil {
			panic(err)
		}
		outs[proc.ID()] = r
	})
	return GMRESOutcome{Seconds: res.Elapsed, NMV: outs[0].NMatVec, Converged: outs[0].Converged}, nil
}

// ConfigName formats a factorization configuration the way the paper
// labels its rows: ILUT(m,τ), or ILUT*(m,τ,k) when params.K > 0.
func ConfigName(params ilu.Params) string {
	if params.K > 0 {
		return fmt.Sprintf("ILUT*(%d,%.0e,%d)", params.M, params.Tau, params.K)
	}
	return fmt.Sprintf("ILUT(%d,%.0e)", params.M, params.Tau)
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
		sep[i] = strings.Repeat("-", width[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
}
