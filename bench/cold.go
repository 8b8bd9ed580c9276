package main

import (
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/krylov"
	"repro/internal/machine"
	"repro/internal/partition"
	"repro/internal/pcomm"
	"repro/internal/pcomm/modelled"
	"repro/internal/sparse"
)

// coldWorkload runs the whole pipeline in this process on the wall-clock
// shared-memory backend, from MatrixMarket bytes to a checked answer,
// once per op, on one matrix.
type coldWorkload struct {
	base      func() *sparse.CSR
	modelledP int // ranks of the paper-machine reference run

	mm   []byte
	ref  []float64 // solution of the set-up op: every later op must match it bit for bit
	last *built

	// The paper's own numbers for this matrix: modelled T3D makespans.
	modelledFactorS, modelledSolveS, overheadFrac float64
}

func (w *coldWorkload) primaryKind() string { return "op" }

func (w *coldWorkload) prepare() error { return nil }

func (w *coldWorkload) setup(seed int64) error {
	a := perturbed(w.base(), seed)
	mm, err := matrixMarket(a)
	if err != nil {
		return err
	}
	w.mm = mm
	if err := w.modelledReference(a); err != nil {
		return fmt.Errorf("modelled reference run: %w", err)
	}
	// The reference op also fills the process's scratch and message pools,
	// so the timed phase measures the steady state.
	bl, err := coldBuildSolve(opTrace{}, "real", w.mm)
	if err != nil {
		return err
	}
	w.ref, w.last = bl.x, bl
	return nil
}

// modelledReference factors and solves the matrix once on the simulated
// Cray T3D: virtual time, exact, the paper's Table 1 and Table 3 numbers.
func (w *coldWorkload) modelledReference(a *sparse.CSR) error {
	p := w.modelledP
	g := graph.FromMatrix(a)
	part := partition.KWay(g, p, partition.Options{Seed: algSeed})
	lay, err := dist.NewLayout(a.N, p, part)
	if err != nil {
		return err
	}
	plan, err := core.NewPlan(a, lay)
	if err != nil {
		return err
	}
	pcs := make([]*core.ProcPrecond, p)
	fr, err := pcomm.Guard(modelled.New(p, machine.T3D()), func(c pcomm.Comm) {
		pcs[c.ID()] = core.Factor(c, plan, core.Options{Params: iluParams, Seed: algSeed})
	})
	if err != nil {
		return err
	}
	bParts := lay.Scatter(rhsOnes(a))
	solveErrs := make([]error, p)
	sr, err := pcomm.Guard(modelled.New(p, machine.T3D()), func(c pcomm.Comm) {
		me := c.ID()
		dm := dist.NewMatrix(c, lay, a)
		x := make([]float64, lay.NLocal(me))
		_, solveErrs[me] = krylov.DistGMRES(c, dm, pcs[me], x, bParts[me],
			krylov.Options{Restart: gmresRestart, Tol: gmresTol})
	})
	if err != nil {
		return err
	}
	for _, e := range solveErrs {
		if e != nil {
			return e
		}
	}
	w.modelledFactorS, w.modelledSolveS, w.overheadFrac = fr.Elapsed, sr.Elapsed, fr.OverheadFraction()
	return nil
}

func (w *coldWorkload) teardown() {}

func (w *coldWorkload) run(rec *recorder, stop func() bool) *phase {
	ph := &phase{}
	for i := 0; !stop(); i++ {
		t0 := time.Now()
		bl, err := coldBuildSolve(rec.beginOp("harness.op", 0, i), "real", w.mm)
		dt := time.Since(t0)
		ph.busy += dt
		s := sample{kind: "op", ms: float64(dt) / float64(time.Millisecond), solves: 1}
		switch {
		case err != nil:
			ph.fail("op %d: %v", i, err)
		case !bl.res.Converged:
			ph.fail("op %d: GMRES did not converge in %d matvecs", i, bl.res.NMatVec)
		case !sameBits(bl.x, w.ref):
			ph.fail("op %d: solution differs from the reference op in at least one bit", i)
		default:
			res := bl.relResidual()
			if res > ph.maxRes {
				ph.maxRes = res
			}
			if s.ok = res <= residualGate; !s.ok {
				ph.fail("op %d: true relative residual %.3g above %.0e", i, res, residualGate)
			}
		}
		if bl != nil {
			s.iters = bl.res.NMatVec
			w.last = bl
		}
		ph.add(s)
	}
	return ph
}

func (w *coldWorkload) peakRSSMB() float64 { return rssPeakMB(os.Getpid()) }

func (w *coldWorkload) layers(m *metricSet, rec *recorder, untraced, traced *phase, _ time.Duration) error {
	m.set("machine.modelled_factor_s", w.modelledFactorS)
	m.set("machine.modelled_solve_s", w.modelledSolveS)
	m.set("machine.overhead_frac", w.overheadFrac)
	m.set("harness.alloc_mb_per_op", w.last.opAlloc.mb())
	sums := rec.layerSelfMsPerOp("harness.op", "sparse", "graph", "partition", "dist", "core", "krylov")
	m.set("harness.stage_sum_pct", 100*median(sums)/median(untraced.latencies("op")))
	return inProcessLayers(m, rec, "real", []*built{w.last}, 1)
}

// rssPeakMB reads VmHWM, the peak resident set of a live process, in MiB
// (NaN, which no metric accepts, where /proc does not say).
func rssPeakMB(pid int) float64 {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				break
			}
			return kb / 1024
		}
	}
	return math.NaN()
}
