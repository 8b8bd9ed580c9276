package core

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/ilu"
	"repro/internal/machine"
	"repro/internal/matgen"
	"repro/internal/partition"
	"repro/internal/pcomm"
	"repro/internal/pcomm/modelled"
	"repro/internal/sparse"
)

// digest is a sha-256 over a canonical little-endian rendering of ints
// and float64 bit patterns, reported as its first 16 hex digits.
type digest struct{ h hash.Hash }

func newDigest() digest { return digest{sha256.New()} }

func (d digest) int(v int) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(int64(v)))
	d.h.Write(b[:])
}

func (d digest) float(v float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	d.h.Write(b[:])
}

func (d digest) ints(v []int) {
	d.int(len(v))
	for _, x := range v {
		d.int(x)
	}
}

func (d digest) floats(v []float64) {
	d.int(len(v))
	for _, x := range v {
		d.float(x)
	}
}

func (d digest) intRows(v [][]int) {
	d.int(len(v))
	for _, r := range v {
		d.ints(r)
	}
}

func (d digest) floatRows(v [][]float64) {
	d.int(len(v))
	for _, r := range v {
		d.floats(r)
	}
}

// clock folds one modelled run's elapsed time and per-rank clocks and
// flop charges in.
func (d digest) clock(res pcomm.Result) {
	d.float(res.Elapsed)
	for _, st := range res.PerProc {
		d.float(st.Flops)
		d.float(st.Time)
	}
}

// comm folds one run's per-rank message, byte and collective counts in.
func (d digest) comm(res pcomm.Result) {
	for _, st := range res.PerProc {
		d.int(int(st.MsgsSent))
		d.int(int(st.BytesSent))
		d.int(int(st.Collectives))
	}
}

func (d digest) sum() string { return fmt.Sprintf("%x", d.h.Sum(nil)[:8]) }

// oracleRHS is right-hand side k of the oracle: a fixed, rank-free
// function of the global row index.
func oracleRHS(n, k int) []float64 {
	b := make([]float64, n)
	for i := range b {
		b[i] = float64((7*i+3*k)%11) - 5 + 0.25*float64(k)
	}
	return b
}

// oracleZoo is the matrices the oracle and the exchange-plan tests run
// over: one small instance of every matgen generator.
type zooMatrix struct {
	name string
	a    *sparse.CSR
}

func oracleZoo() []zooMatrix {
	return []zooMatrix{
		{"grid2d", matgen.Grid2D(12, 12)},
		{"grid3d", matgen.Grid3D(5, 5, 5)},
		{"torso", matgen.Torso(6, 6, 6, 1)},
		{"convdiff", matgen.ConvDiff2D(12, 12, 20, 5)},
		{"aniso", matgen.Anisotropic2D(12, 12, 0.01)},
		{"randspd", matgen.RandomSPDPattern(150, 5, 3)},
	}
}

var (
	oracleProcs   = []int{1, 2, 4, 8}
	oracleMethods = []string{"ilut", "ilutstar", "schur", "ilu0"}
)

// oracleFactor factors a on P modelled processors with the named method.
func oracleFactor(t *testing.T, a *sparse.CSR, P int, method string) (*Plan, []*ProcPrecond, pcomm.Result) {
	t.Helper()
	g := graph.FromMatrix(a)
	part := partition.KWay(g, P, partition.Options{Seed: 17})
	lay, err := dist.NewLayout(a.N, P, part)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := NewPlan(a, lay)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Params: ilu.Params{M: 4, Tau: 1e-2}, Seed: 5}
	switch method {
	case "ilutstar":
		opt.Params.K = 1
	case "schur":
		opt.Params.K = 1
		opt.Schur = true
	}
	pcs := make([]*ProcPrecond, P)
	res := modelled.New(P, machine.T3D()).Run(func(p pcomm.Comm) {
		if method == "ilu0" {
			pcs[p.ID()] = FactorILU0(p, plan, 0, opt.Seed)
		} else {
			pcs[p.ID()] = Factor(p, plan, opt)
		}
	})
	return plan, pcs, res
}

// oracleDigests factors a on P modelled processors with the named
// method, applies Solve to one right-hand side and a B = 3 SolveBatch
// to three, and digests what each step produced: the Wire() factors and
// kernel counters, the solution bits, the modelled clocks (Elapsed,
// per-rank time and flops) and the per-rank message/byte/collective
// counts of the three runs.
func oracleDigests(t *testing.T, a *sparse.CSR, P int, method string) [4]string {
	t.Helper()
	plan, pcs, resFactor := oracleFactor(t, a, P, method)
	lay := plan.Lay

	const B = 3
	rhs := make([][][]float64, B)
	for k := range rhs {
		rhs[k] = lay.Scatter(oracleRHS(a.N, k))
	}
	single := make([][]float64, P)
	resSolve := modelled.New(P, machine.T3D()).Run(func(p pcomm.Comm) {
		me := p.ID()
		single[me] = make([]float64, lay.NLocal(me))
		pcs[me].Solve(p, single[me], rhs[0][me])
	})
	batch := make([][][]float64, P)
	resBatch := modelled.New(P, machine.T3D()).Run(func(p pcomm.Comm) {
		me := p.ID()
		bs := make([][]float64, B)
		ys := make([][]float64, B)
		for k := range bs {
			bs[k] = rhs[k][me]
			ys[k] = make([]float64, lay.NLocal(me))
		}
		pcs[me].SolveBatch(p, ys, bs)
		batch[me] = ys
	})

	df, ds, dt, dc := newDigest(), newDigest(), newDigest(), newDigest()
	for me, pc := range pcs {
		w := pc.Wire()
		df.int(w.Me)
		df.ints(w.NewOf)
		df.intRows(w.LCols)
		df.floatRows(w.LVals)
		df.intRows(w.UCols)
		df.floatRows(w.UVals)
		df.floats(w.UDiag)
		df.ints(w.InteriorLocal)
		for _, l := range w.Levels {
			df.int(l.Start)
			df.int(l.Size)
		}
		df.intRows(w.LevelMembers)
		df.float(w.Stats.ILU.Flops)
		df.int(w.Stats.ILU.Dropped)
		df.int(w.Stats.ILU.FixedPivot)
		df.int(w.Stats.ReducedNNZ0)
		df.int(w.Stats.CopiedEntries)

		ds.floats(single[me])
		ds.floatRows(batch[me])
	}
	for _, res := range []pcomm.Result{resFactor, resSolve, resBatch} {
		dt.clock(res)
		dc.comm(res)
	}
	return [4]string{df.sum(), ds.sum(), dt.sum(), dc.sum()}
}

// TestParentDigestOracle pins the numeric core bit for bit: every matgen
// generator at p ∈ {1, 2, 4, 8} through Factor (ILUT, ILUT* and the
// Schur variant) and FactorILU0, then Solve and SolveBatch, compared
// with digests computed at the commit before the driver, sweep and
// kernel API were each folded into one definition. A refactor of
// internal/core or internal/ilu that moves a factor entry, a solution
// bit, a modelled second or a message count fails here, naming which; a deliberate
// change to the algorithm regenerates the rows (the failure message
// prints them) and says so in CHANGES.md.
func TestParentDigestOracle(t *testing.T) {
	for _, mat := range oracleZoo() {
		for _, P := range oracleProcs {
			for _, method := range oracleMethods {
				key := fmt.Sprintf("%s/p%d/%s", mat.name, P, method)
				got := oracleDigests(t, mat.a, P, method)
				if want := parentDigests[key]; got != want {
					t.Errorf("%s: {factors, solutions, clock, comm} differ from the parent commit:\n\t%q: {%q, %q, %q, %q},\nwant\t%q",
						key, key, got[0], got[1], got[2], got[3], want)
				}
			}
		}
	}
}
