package krylov

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/ilu"
	"repro/internal/machine"
	"repro/internal/partition"
	"repro/internal/pcomm"
	"repro/internal/pcomm/modelled"
	"repro/internal/sparse"
	"repro/internal/trace"
)

// str folds a length-prefixed string in.
func (d digest) str(s string) {
	d.int(len(s))
	d.h.Write([]byte(s))
}

// trace folds a traced run in: every merged event — kind, category, name,
// rank, per-rank sequence number, virtual timestamp, duration and every
// argument — then the run's elapsed time and per-rank flops, clock and
// busy time (the overhead fraction's inputs).
func (d digest) trace(rec *trace.Recorder, res pcomm.Result) {
	evs := rec.Events()
	d.int(len(evs))
	for _, e := range evs {
		d.int(int(e.Kind))
		d.str(e.Cat)
		d.str(e.Name)
		d.int(e.Proc)
		d.int(int(e.Seq))
		d.float(e.Ts)
		d.float(e.Dur)
		d.int(len(e.Args))
		for _, a := range e.Args {
			d.str(a.Key)
			d.float(a.Num)
			d.str(a.Str)
		}
	}
	d.float(res.Elapsed)
	for _, st := range res.PerProc {
		d.float(st.Flops)
		d.float(st.Time)
		d.float(st.Busy)
	}
}

// tracedDigests factors a with ILUT* (the GMRES oracle's parameters) on
// a traced modelled T3D, then runs one traced cold DistGMRES on it, and
// digests each run's trace.
func tracedDigests(t *testing.T, a *sparse.CSR, P int) [2]string {
	t.Helper()
	lay, err := dist.NewLayout(a.N, P, partition.KWay(graph.FromMatrix(a), P, partition.Options{Seed: 17}))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := core.NewPlan(a, lay)
	if err != nil {
		t.Fatal(err)
	}
	dms := make([]*dist.Matrix, P)
	pcs := make([]*core.ProcPrecond, P)
	traced := func(f func(pcomm.Comm)) string {
		w := modelled.New(P, machine.T3D())
		rec := trace.NewRecorder(P)
		w.SetRecorder(rec)
		d := newDigest()
		d.trace(rec, w.Run(f))
		return d.sum()
	}
	factor := traced(func(p pcomm.Comm) {
		me := p.ID()
		dms[me] = dist.NewMatrix(p, lay, a)
		pcs[me] = core.Factor(p, plan, core.Options{Params: ilu.Params{M: 4, Tau: 1e-2, K: 2}, Seed: 5})
	})
	b := lay.Scatter(oracleRHS(a.N, 0))
	solve := traced(func(p pcomm.Comm) {
		me := p.ID()
		x := make([]float64, lay.NLocal(me))
		if _, err := DistGMRES(p, dms[me], pcs[me], x, b[me], oracleOptions); err != nil {
			panic(err)
		}
	})
	return [2]string{factor, solve}
}

// TestTraceDigestOracle pins what a traced modelled run records, event
// for event: the zoo at p ∈ {2, 4, 8}, one ILUT* factorization and one
// cold DistGMRES each, every event's name, category, virtual timestamp,
// duration and arguments (the communicator's own "machine" spans among
// them), plus per-rank clocks and busy time. The constants were computed
// on the simulated machine before it became a clock on the wall-clock
// engine: a backend may change how ranks meet, never what the modelled
// trace reads.
func TestTraceDigestOracle(t *testing.T) {
	for _, mat := range oracleZoo() {
		for _, P := range []int{2, 4, 8} {
			key := fmt.Sprintf("%s/p%d", mat.name, P)
			got := tracedDigests(t, mat.a, P)
			if want := traceDigests[key]; got != want {
				t.Errorf("%s: {factor, solve} trace digests differ:\n\t%q: {%q, %q},\nwant\t%q", key, key, got[0], got[1], want)
			}
		}
	}
}

// traceDigests holds TestTraceDigestOracle's {factor, solve} digests.
var traceDigests = map[string][2]string{
	"grid2d/p2":   {"244925412b73979b", "536ee59cee352ef7"},
	"grid2d/p4":   {"ae1b714ecc5a4513", "9ebfb0eaeda303e6"},
	"grid2d/p8":   {"7b388f565da09e68", "aa7a4faec8f4f4b6"},
	"grid3d/p2":   {"87af3814c3b8c2c2", "8cef1b2583d94e36"},
	"grid3d/p4":   {"2264774853fc82ef", "bcc04e65ba763664"},
	"grid3d/p8":   {"881e70443b67a1bf", "2b4b9b3a4446ffb7"},
	"torso/p2":    {"4748a299a6858f18", "0ce19a0b97b784e1"},
	"torso/p4":    {"168d7bc3a0123a03", "8b9cc0ff97328e65"},
	"torso/p8":    {"5f27280f88062ff0", "b2ed9d386226e147"},
	"convdiff/p2": {"c47a5dff16b017e9", "3d638918523eed54"},
	"convdiff/p4": {"1d99eae387dddedb", "4c7c84a94315d785"},
	"convdiff/p8": {"8cc372c8df40d6bb", "c6bb59eb1cd7d5da"},
	"aniso/p2":    {"165097a0968b9026", "2b17437fcf8bbadd"},
	"aniso/p4":    {"4b04881e3d4de04d", "913dcab3e3ac91a0"},
	"aniso/p8":    {"bbafeeaa78972874", "80e6c2be20f65609"},
	"randspd/p2":  {"2cb30486fca8199a", "9a6076630fc196f9"},
	"randspd/p4":  {"b18cba1bdcb2dde2", "bb08d9d8ec0bd959"},
	"randspd/p8":  {"9d39377e8ba63ace", "a23797cad7a5b770"},
}
