package krylov

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/ilu"
	"repro/internal/machine"
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
	plan, err := core.Prepare(a, P, 17)
	if err != nil {
		t.Fatal(err)
	}
	lay := plan.Lay
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
// trace reads. The factor column was regenerated, alone, when every halo
// exchange moved onto one plan (pcomm.Halo), which changed the factor
// run's messages; the solve column did not move.
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
	"grid2d/p2":   {"a4987d384d44fc4f", "536ee59cee352ef7"},
	"grid2d/p4":   {"27bac5e9dfb2862d", "9ebfb0eaeda303e6"},
	"grid2d/p8":   {"66ad70d456d8d86e", "aa7a4faec8f4f4b6"},
	"grid3d/p2":   {"5566f230739951c6", "8cef1b2583d94e36"},
	"grid3d/p4":   {"6bcb2433836d3407", "bcc04e65ba763664"},
	"grid3d/p8":   {"25baa680f1836323", "2b4b9b3a4446ffb7"},
	"torso/p2":    {"32a385a2bc59007d", "0ce19a0b97b784e1"},
	"torso/p4":    {"dd55310ff5e0268f", "8b9cc0ff97328e65"},
	"torso/p8":    {"72cb2d9dbf4aa564", "b2ed9d386226e147"},
	"convdiff/p2": {"d5c2bbaf53c3437b", "3d638918523eed54"},
	"convdiff/p4": {"c774112c43d76b02", "4c7c84a94315d785"},
	"convdiff/p8": {"0d4d3030583a7adb", "c6bb59eb1cd7d5da"},
	"aniso/p2":    {"5984e9afe3ac6736", "2b17437fcf8bbadd"},
	"aniso/p4":    {"9dac398ce55d6b81", "913dcab3e3ac91a0"},
	"aniso/p8":    {"5e1ea10c65bfc062", "80e6c2be20f65609"},
	"randspd/p2":  {"2709ec3a82a1bf98", "9a6076630fc196f9"},
	"randspd/p4":  {"d89bfb253c7d5e23", "bb08d9d8ec0bd959"},
	"randspd/p8":  {"a7183ee23562b0d5", "a23797cad7a5b770"},
}
