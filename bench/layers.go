package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/ilu"
	"repro/internal/krylov"
	"repro/internal/pcomm"
	"repro/internal/pcomm/backend"
	"repro/internal/sparse"
)

const (
	kernelCalls = 200  // matvec / dot / trisolve calls per micro-loop
	commCalls   = 1000 // pingpong / allreduce / barrier calls per micro-loop
)

// microLoop times calls invocations of one collective kernel inside a
// single World.Run and returns µs per call: the wall clock is read
// outside the Run, so the figure is makespan ÷ calls.
func microLoop(t opTrace, name, kind string, p, calls int, f func(c pcomm.Comm, calls int)) (float64, error) {
	var err error
	dt := t.stage(name, func() {
		_, err = runOn(kind, p, func(c pcomm.Comm) { f(c, calls) })
	})
	if err != nil {
		return 0, fmt.Errorf("%s: %w", name, err)
	}
	return float64(dt) / float64(time.Microsecond) / float64(calls), nil
}

// kernelTimes are the per-call costs of the three kernels a GMRES
// iteration is made of, on one built matrix.
type kernelTimes struct {
	matvecUs, dotUs, trisolveUs float64
}

func kernelLoops(t opTrace, kind string, bl *built) (kernelTimes, error) {
	var k kernelTimes
	var err error
	local := func(c pcomm.Comm) (x, y []float64) {
		n := bl.lay.NLocal(c.ID())
		return sparse.Ones(n), make([]float64, n)
	}
	k.matvecUs, err = microLoop(t, "dist.matvec_loop", kind, procs, kernelCalls, func(c pcomm.Comm, calls int) {
		x, y := local(c)
		for i := 0; i < calls; i++ {
			bl.dms[c.ID()].MulVec(c, y, x)
		}
	})
	if err != nil {
		return k, err
	}
	k.dotUs, err = microLoop(t, "dist.dot_loop", kind, procs, kernelCalls, func(c pcomm.Comm, calls int) {
		x, _ := local(c)
		for i := 0; i < calls; i++ {
			dist.Dot(c, x, x)
		}
	})
	if err != nil {
		return k, err
	}
	k.trisolveUs, err = microLoop(t, "core.trisolve_loop", kind, procs, kernelCalls, func(c pcomm.Comm, calls int) {
		x, y := local(c)
		for i := 0; i < calls; i++ {
			bl.pcs[c.ID()].Solve(c, y, x)
		}
	})
	return k, err
}

// commLoops times the three communication primitives every layer above
// is built from, on one backend: a 2-rank round trip, and a 4-rank
// all-reduce and barrier.
func commLoops(t opTrace, m *metricSet, kind string) error {
	const tag = 7
	pingpong, err := microLoop(t, "pcomm."+kind+".pingpong_loop", kind, 2, commCalls, func(c pcomm.Comm, calls int) {
		for i := 0; i < calls; i++ {
			if c.ID() == 0 {
				c.Send(1, tag, i, pcomm.BytesOfInts(1))
				c.Recv(1, tag)
			} else {
				c.Recv(0, tag)
				c.Send(0, tag, i, pcomm.BytesOfInts(1))
			}
		}
	})
	if err != nil {
		return err
	}
	allreduce, err := microLoop(t, "pcomm."+kind+".allreduce_loop", kind, procs, commCalls, func(c pcomm.Comm, calls int) {
		for i := 0; i < calls; i++ {
			c.AllReduceFloat64(float64(c.ID()), pcomm.OpSum)
		}
	})
	if err != nil {
		return err
	}
	barrier, err := microLoop(t, "pcomm."+kind+".barrier_loop", kind, procs, commCalls, func(c pcomm.Comm, calls int) {
		for i := 0; i < calls; i++ {
			c.Barrier()
		}
	})
	if err != nil {
		return err
	}
	m.set("pcomm."+kind+".pingpong_us", pingpong)
	m.set("pcomm."+kind+".allreduce_us", allreduce)
	m.set("pcomm."+kind+".barrier_us", barrier)
	return nil
}

// sideStages runs, once on one built matrix, the layer calls a cold op
// does not make but other paths do: the value-only rebuild a sequence
// step pays (Bind + Refactor + CloneFor on new values), the factor wire
// form a peer transfer pays, and the plain serial ILUT + GMRES baseline.
func sideStages(t opTrace, kind string, bl *built, seed int64) (serialFill float64, err error) {
	a := bl.a
	t.stage("sparse.pattern_fingerprint", func() { sparse.PatternFingerprint(a) })

	next := perturbed(a, seed)
	var plan2 *core.Plan
	t.stage("core.bind", func() { plan2, err = bl.sym.Bind(next) })
	if err != nil {
		return 0, fmt.Errorf("rebind: %w", err)
	}
	if _, _, err = factorPlan(t, "core.refactor", kind, core.Refactor, plan2); err != nil {
		return 0, err
	}
	t.stage("dist.clone", func() {
		for _, dm := range bl.dms {
			if _, cerr := dm.CloneFor(next); cerr != nil && err == nil {
				err = cerr
			}
		}
	})
	if err != nil {
		return 0, fmt.Errorf("operator clone: %w", err)
	}
	t.stage("core.wire_roundtrip", func() {
		for _, pc := range bl.pcs {
			if _, werr := core.FromWire(bl.plan, pc.Wire()); werr != nil && err == nil {
				err = werr
			}
		}
	})
	if err != nil {
		return 0, fmt.Errorf("wire round trip: %w", err)
	}

	var serial *ilu.Factors
	t.stage("ilu.serial_factor", func() { serial, _, err = ilu.ILUT(a, iluParams) })
	if err != nil {
		return 0, fmt.Errorf("serial ILUT: %w", err)
	}
	var res krylov.Result
	x := make([]float64, a.N)
	t.stage("krylov.serial_gmres", func() {
		res, err = krylov.GMRES(a, serial, x, bl.b, krylov.Options{Restart: gmresRestart, Tol: gmresTol})
	})
	if err != nil {
		return 0, fmt.Errorf("serial GMRES: %w", err)
	}
	if rr := relResidual(a, x, bl.b); !res.Converged || rr > residualGate {
		return 0, fmt.Errorf("serial baseline failed its own check: converged=%v residual=%.3g", res.Converged, rr)
	}
	return serial.FillFactor(a), nil
}

// inProcessLayers emits the per-layer metrics of the layers the harness
// can call directly — sparse, graph, partition, dist, core, ilu, krylov,
// pcomm — for the matrices in bls (one built per distinct matrix of the
// workload; the staged build-and-solve spans are already in rec). Stage
// timings are medians over all spans of that name; counts and kernel
// times are means over bls.
func inProcessLayers(m *metricSet, rec *recorder, kind string, bls []*built, seed int64) error {
	n := float64(len(bls))
	var k kernelTimes
	var serialFill, orthoShare float64
	for i, bl := range bls {
		t := rec.beginOp("harness.side_stages", 0, i)
		fill, err := sideStages(t, kind, bl, seed+int64(i))
		if err != nil {
			return err
		}
		kt, err := kernelLoops(t, kind, bl)
		t.end()
		if err != nil {
			return err
		}
		serialFill += fill / n
		k.matvecUs += kt.matvecUs / n
		k.dotUs += kt.dotUs / n
		k.trisolveUs += kt.trisolveUs / n
		gmresUs := float64(bl.gmres) / float64(time.Microsecond)
		orthoShare += (1 - float64(bl.res.NMatVec)*(kt.matvecUs+kt.trisolveUs)/gmresUs) / n
	}
	t := rec.beginOp("harness.comm_loops", 0, 0)
	for _, backendKind := range []string{backend.Real, backend.Modelled} {
		if err := commLoops(t, m, backendKind); err != nil {
			return err
		}
	}
	t.end()

	med := func(span string) float64 { return median(rec.durationsMs(span)) }
	avg := func(f func(bl *built) float64) float64 {
		sum := 0.0
		for _, bl := range bls {
			sum += f(bl)
		}
		return sum / n
	}
	overRanks := func(bl *built, f func(pc *core.ProcPrecond) float64) (sum, max float64) {
		for _, pc := range bl.pcs {
			v := f(pc)
			sum += v
			if v > max {
				max = v
			}
		}
		return sum, max
	}

	m.set("sparse.parse_ms", med("sparse.parse"))
	m.set("sparse.fingerprint_ms", med("sparse.fingerprint"))
	m.set("sparse.pattern_fingerprint_ms", med("sparse.pattern_fingerprint"))

	m.set("graph.build_ms", med("graph.build"))
	m.set("graph.alloc_mb", avg(func(bl *built) float64 { return bl.graphAlloc.mb() }))

	m.set("partition.kway_ms", med("partition.kway"))
	m.set("partition.alloc_mb", avg(func(bl *built) float64 { return bl.kwayAlloc.mb() }))
	m.set("partition.edge_cut", avg(func(bl *built) float64 { return float64(bl.g.EdgeCut(bl.part)) }))
	m.set("partition.imbalance", avg(func(bl *built) float64 {
		heaviest := 0
		for _, w := range bl.g.PartWeights(bl.part, procs) {
			if w > heaviest {
				heaviest = w
			}
		}
		return float64(heaviest*procs) / float64(bl.g.TotalVWgt())
	}))

	m.set("dist.layout_ms", med("dist.layout"))
	m.set("dist.opbuild_ms", med("dist.opbuild"))
	m.set("dist.clone_ms", med("dist.clone"))
	m.set("dist.matvec_us", k.matvecUs)
	m.set("dist.dot_us", k.dotUs)
	m.set("dist.ghost_frac", avg(func(bl *built) float64 {
		ghosts := 0
		for _, dm := range bl.dms {
			ghosts += dm.NGhost()
		}
		return float64(ghosts) / float64(bl.a.N)
	}))

	factorMs := med("core.factor")
	serialMs := med("ilu.serial_factor")
	m.set("core.analyze_ms", med("core.analyze"))
	m.set("core.bind_ms", med("core.bind"))
	m.set("core.factor_ms", factorMs)
	m.set("core.phase1_ms", avg(func(bl *built) float64 {
		_, max := overRanks(bl, func(pc *core.ProcPrecond) float64 {
			return pc.Stats.Phase1InteriorSeconds + pc.Stats.Phase1InterfaceSeconds
		})
		return 1e3 * max
	}))
	m.set("core.phase2_ms", avg(func(bl *built) float64 {
		_, max := overRanks(bl, func(pc *core.ProcPrecond) float64 { return pc.Stats.Phase2Seconds })
		return 1e3 * max
	}))
	m.set("core.refactor_ms", med("core.refactor"))
	m.set("core.trisolve_us", k.trisolveUs)
	m.set("core.factor_allocs", avg(func(bl *built) float64 { return bl.factorAlloc.objects }))
	m.set("core.factor_alloc_mb", avg(func(bl *built) float64 { return bl.factorAlloc.mb() }))
	m.set("core.wire_roundtrip_ms", med("core.wire_roundtrip"))
	m.set("core.factor_vs_serial", factorMs/serialMs)
	m.set("core.levels", avg(func(bl *built) float64 { return float64(bl.pcs[0].NumLevels()) }))
	m.set("core.interface_frac", avg(func(bl *built) float64 { return 1 - bl.sym.InteriorFraction() }))
	m.set("core.fill_ratio", avg(func(bl *built) float64 {
		nnz, _ := overRanks(bl, func(pc *core.ProcPrecond) float64 { return float64(pc.NNZ()) })
		return nnz / float64(bl.a.NNZ())
	}))
	m.set("core.pivot_repairs", avg(func(bl *built) float64 {
		fixed, _ := overRanks(bl, func(pc *core.ProcPrecond) float64 { return float64(pc.Stats.ILU.FixedPivot) })
		return fixed
	}))

	m.set("ilu.serial_factor_ms", serialMs)
	m.set("ilu.serial_fill_ratio", serialFill)

	gmresMs := med("krylov.gmres")
	m.set("krylov.gmres_ms", gmresMs)
	m.set("krylov.ms_per_iter", gmresMs/avg(func(bl *built) float64 { return float64(bl.res.NMatVec) }))
	m.set("krylov.ortho_share", orthoShare)
	m.set("krylov.serial_gmres_ms", med("krylov.serial_gmres"))

	// Message, byte and flop counts are summed over ranks; a collective is
	// one event however many ranks take part, so rank 0's count stands.
	traffic := func(prefix string, run func(bl *built) pcomm.Result, per func(bl *built) float64, suffix string) {
		m.set(prefix+"msgs"+suffix, avg(func(bl *built) float64 {
			msgs := int64(0)
			for _, st := range run(bl).PerProc {
				msgs += st.MsgsSent
			}
			return float64(msgs) / per(bl)
		}))
		m.set(prefix+"bytes"+suffix, avg(func(bl *built) float64 { return float64(run(bl).TotalBytes()) / per(bl) }))
		m.set(prefix+"collectives"+suffix, avg(func(bl *built) float64 {
			return float64(run(bl).PerProc[0].Collectives) / per(bl)
		}))
		m.set(prefix+"flops"+suffix, avg(func(bl *built) float64 { return run(bl).TotalFlops() / per(bl) }))
	}
	traffic("pcomm.factor_", func(bl *built) pcomm.Result { return bl.factorRun },
		func(*built) float64 { return 1 }, "")
	traffic("pcomm.solve_", func(bl *built) pcomm.Result { return bl.solveRun },
		func(bl *built) float64 { return float64(bl.res.NMatVec) }, "_per_iter")
	return nil
}
