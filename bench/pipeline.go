package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime/metrics"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/ilu"
	"repro/internal/krylov"
	"repro/internal/machine"
	"repro/internal/partition"
	"repro/internal/pcomm"
	"repro/internal/pcomm/backend"
	"repro/internal/sparse"
)

// The one solver configuration every workload runs: p = 4 ranks,
// ILUT*(10, 1e-4, 2), GMRES(50) to 1e-8, right-hand side b = A·1,
// partition and MIS seed 1. pilutd's defaults are the same parameters.
const (
	procs        = 4
	gmresRestart = 50
	gmresTol     = 1e-8
	algSeed      = 1
	residualGate = 1e-6 // every answer: ‖b − A·x‖/‖b‖ recomputed serially
)

var iluParams = ilu.Params{M: 10, Tau: 1e-4, K: 2}

// runOn runs f on a fresh p-rank world of the given backend (free
// communication on the modelled one, as pilutd's default), turning a
// failed run into an error.
func runOn(kind string, p int, f func(pcomm.Comm)) (pcomm.Result, error) {
	w, err := backend.New(kind, p, machine.Zero())
	if err != nil {
		return pcomm.Result{}, err
	}
	return pcomm.Guard(w, f)
}

// rhsOnes returns b = A·1, the paper's right-hand side.
func rhsOnes(a *sparse.CSR) []float64 {
	b := make([]float64, a.N)
	a.MulVec(b, sparse.Ones(a.N))
	return b
}

// relResidual recomputes ‖b − A·x‖/‖b‖ with the serial kernel: the
// harness never trusts a residual the solver reported about itself.
func relResidual(a *sparse.CSR, x, b []float64) float64 {
	if len(x) != a.N {
		return math.Inf(1)
	}
	r := make([]float64, a.N)
	a.MulVec(r, x)
	for i := range r {
		r[i] = b[i] - r[i]
	}
	return sparse.Norm2(r) / sparse.Norm2(b)
}

func sameBits(x, y []float64) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
			return false
		}
	}
	return true
}

// allocDelta is heap allocation between two points, process-wide.
type allocDelta struct {
	bytes, objects float64
}

func (d allocDelta) mb() float64 { return d.bytes / (1 << 20) }

var allocSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
}

// measureAlloc runs f and, when on, reports what it allocated (reading
// the runtime's cumulative counters, which needs no stop-the-world).
func measureAlloc(on bool, f func()) allocDelta {
	if !on {
		f()
		return allocDelta{}
	}
	metrics.Read(allocSamples)
	b0, o0 := allocSamples[0].Value.Uint64(), allocSamples[1].Value.Uint64()
	f()
	metrics.Read(allocSamples)
	return allocDelta{
		bytes:   float64(allocSamples[0].Value.Uint64() - b0),
		objects: float64(allocSamples[1].Value.Uint64() - o0),
	}
}

// built is everything one cold build-and-solve leaves behind: the
// artifacts the later stages (and the traced pass's micro-loops) need,
// the answer, and the counters the layers returned on the way.
type built struct {
	a    *sparse.CSR
	key  string
	g    *graph.Graph
	part []int
	lay  *dist.Layout
	sym  *core.Symbolic
	plan *core.Plan
	pcs  []*core.ProcPrecond
	dms  []*dist.Matrix
	b    []float64
	x    []float64
	res  krylov.Result

	gmres               time.Duration // wall time of the solve run
	factorRun, solveRun pcomm.Result

	// Heap allocation of single stages and of the whole op; measured in
	// the traced pass only.
	graphAlloc, kwayAlloc, factorAlloc, opAlloc allocDelta
}

func (bl *built) relResidual() float64 { return relResidual(bl.a, bl.x, bl.b) }

// coldBuildSolve is the cold_* op and the staged decomposition of what a
// daemon does on a cache miss: MatrixMarket bytes → parse → fingerprint
// → graph → KWay → layout → Analyze → Bind → Factor → dist.NewMatrix →
// DistGMRES → gather. Every layer call is one stage of t, so the traced
// and the untraced pass run the same code; factorization, operator build
// and solve each get their own world so that their wall time can be read
// outside the Run closure.
func coldBuildSolve(t opTrace, kind string, mm []byte) (*built, error) {
	traced := t.rec != nil
	bl := &built{}
	var err error
	bl.opAlloc = measureAlloc(traced, func() { err = bl.run(t, kind, mm, traced) })
	t.end()
	if err != nil {
		return nil, err
	}
	return bl, nil
}

func (bl *built) run(t opTrace, kind string, mm []byte, traced bool) error {
	var err error
	t.stage("sparse.parse", func() { bl.a, err = sparse.ReadMatrixMarket(bytes.NewReader(mm)) })
	if err != nil {
		return fmt.Errorf("parsing matrix: %w", err)
	}
	a := bl.a
	t.stage("sparse.fingerprint", func() { bl.key = sparse.Fingerprint(a) })
	bl.graphAlloc = measureAlloc(traced, func() {
		t.stage("graph.build", func() { bl.g = graph.FromMatrix(a) })
	})
	bl.kwayAlloc = measureAlloc(traced, func() {
		t.stage("partition.kway", func() {
			bl.part = partition.KWay(bl.g, procs, partition.Options{Seed: algSeed})
		})
	})
	t.stage("dist.layout", func() { bl.lay, err = dist.NewLayout(a.N, procs, bl.part) })
	if err != nil {
		return fmt.Errorf("layout: %w", err)
	}
	t.stage("core.analyze", func() { bl.sym, err = core.Analyze(a, bl.lay) })
	if err != nil {
		return fmt.Errorf("symbolic analysis: %w", err)
	}
	t.stage("core.bind", func() { bl.plan, err = bl.sym.Bind(a) })
	if err != nil {
		return fmt.Errorf("bind: %w", err)
	}
	bl.factorAlloc = measureAlloc(traced, func() {
		bl.pcs, bl.factorRun, err = factorPlan(t, "core.factor", kind, core.Factor, bl.plan)
	})
	if err != nil {
		return err
	}
	bl.dms = make([]*dist.Matrix, procs)
	t.stage("dist.opbuild", func() {
		_, err = runOn(kind, procs, func(c pcomm.Comm) {
			bl.dms[c.ID()] = dist.NewMatrix(c, bl.lay, a)
		})
	})
	if err != nil {
		return fmt.Errorf("operator build: %w", err)
	}
	var bParts [][]float64
	t.stage("sparse.rhs", func() { bl.b = rhsOnes(a) })
	t.stage("dist.scatter", func() { bParts = bl.lay.Scatter(bl.b) })
	xParts := make([][]float64, procs)
	results := make([]krylov.Result, procs)
	solveErrs := make([]error, procs)
	bl.gmres = t.stage("krylov.gmres", func() {
		bl.solveRun, err = runOn(kind, procs, func(c pcomm.Comm) {
			me := c.ID()
			x := make([]float64, bl.lay.NLocal(me))
			results[me], solveErrs[me] = krylov.DistGMRES(c, bl.dms[me], bl.pcs[me], x, bParts[me],
				krylov.Options{Restart: gmresRestart, Tol: gmresTol})
			xParts[me] = x
		})
	})
	if err != nil {
		return fmt.Errorf("solve: %w", err)
	}
	for _, e := range solveErrs {
		if e != nil {
			return fmt.Errorf("solve: %w", e)
		}
	}
	bl.res = results[0]
	t.stage("dist.gather", func() { bl.x = bl.lay.Gather(xParts) })
	return nil
}

// factorPlan runs factor (core.Factor or core.Refactor) on plan as stage
// name.
func factorPlan(t opTrace, name, kind string,
	factor func(pcomm.Comm, *core.Plan, core.Options) *core.ProcPrecond,
	plan *core.Plan) ([]*core.ProcPrecond, pcomm.Result, error) {
	pcs := make([]*core.ProcPrecond, procs)
	var run pcomm.Result
	var err error
	t.stage(name, func() {
		run, err = runOn(kind, procs, func(c pcomm.Comm) {
			pcs[c.ID()] = factor(c, plan, core.Options{Params: iluParams, Seed: algSeed})
		})
	})
	if err != nil {
		return nil, run, fmt.Errorf("%s: %w", name, err)
	}
	return pcs, run, nil
}
