package krylov

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/ilu"
	"repro/internal/machine"
	"repro/internal/matgen"
	"repro/internal/pcomm"
	"repro/internal/pcomm/modelled"
	"repro/internal/sparse"
)

// digest is a sha-256 over a canonical little-endian rendering of ints
// and float64 bit patterns, reported as its first 16 hex digits (the
// rendering of core's oracle_test.go).
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

func (d digest) floats(v []float64) {
	d.int(len(v))
	for _, x := range v {
		d.float(x)
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

type zooMatrix struct {
	name string
	a    *sparse.CSR
}

// oracleZoo is the zoo of core's oracle: one small instance of every
// matgen generator.
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
	oracleProcs    = []int{1, 2, 4, 8}
	oraclePreconds = []string{"ilutstar", "jacobi"}
	oracleVariants = []string{"cold", "x0", "batch"}
)

// oracleOptions are every case's solver options: a restart short enough
// that the zoo's small systems restart (Jacobi up to eight times).
var oracleOptions = Options{Restart: 8, Tol: 1e-6, MaxMatVec: 400}

// oracleSystem is one matrix distributed over P modelled processors
// with one preconditioner per rank; the set-up runs are not digested.
type oracleSystem struct {
	lay   *dist.Layout
	dms   []*dist.Matrix
	precs []DistPreconditioner
}

func oracleBuild(t *testing.T, a *sparse.CSR, P int, precond string) oracleSystem {
	t.Helper()
	plan, err := core.Prepare(a, P, 17)
	if err != nil {
		t.Fatal(err)
	}
	lay := plan.Lay
	sys := oracleSystem{lay: lay, dms: make([]*dist.Matrix, P), precs: make([]DistPreconditioner, P)}
	modelled.New(P, machine.T3D()).Run(func(p pcomm.Comm) {
		me := p.ID()
		sys.dms[me] = dist.NewMatrix(p, lay, a)
		if precond == "jacobi" {
			// DistJacobi has no SolveBatch: the per-vector fallback.
			jac, err := NewDistJacobi(lay, a, me)
			if err != nil {
				panic(err)
			}
			sys.precs[me] = jac
			return
		}
		sys.precs[me] = core.Factor(p, plan, core.Options{Params: ilu.Params{M: 4, Tau: 1e-2, K: 2}, Seed: 5})
	})
	return sys
}

// oracleRun is what one digested run produced: per rank, the local
// solution pieces and Results of every system of the run.
type oracleRun struct {
	xs   [][][]float64 // [rank][system]
	rs   [][]Result    // [rank][system]
	comm pcomm.Result
}

// digests renders a run as {solutions, History and counts, clock, comm}.
func (r oracleRun) digests() [4]string {
	dx, dh, dt, dc := newDigest(), newDigest(), newDigest(), newDigest()
	for me := range r.xs {
		for _, x := range r.xs[me] {
			dx.floats(x)
		}
		for _, res := range r.rs[me] {
			dh.floats(res.History)
			dh.float(res.Residual)
			dh.int(res.NMatVec)
			dh.int(res.Restarts)
			if res.Converged {
				dh.int(1)
			} else {
				dh.int(0)
			}
		}
	}
	dt.float(r.comm.Elapsed)
	for _, st := range r.comm.PerProc {
		dt.float(st.Flops)
		dt.float(st.Time)
		dc.int(int(st.MsgsSent))
		dc.int(int(st.BytesSent))
		dc.int(int(st.Collectives))
	}
	return [4]string{dx.sum(), dh.sum(), dt.sum(), dc.sum()}
}

// single runs one DistGMRES on a fresh modelled T3D. x starts as ones
// when x0 is given, so the digest also pins that X0 replaces the
// iterate.
func (sys oracleSystem) single(t *testing.T, b []float64, x0 []float64) oracleRun {
	t.Helper()
	P := sys.lay.P
	bParts := sys.lay.Scatter(b)
	var x0Parts [][]float64
	if x0 != nil {
		x0Parts = sys.lay.Scatter(x0)
	}
	run := oracleRun{xs: make([][][]float64, P), rs: make([][]Result, P)}
	run.comm = modelled.New(P, machine.T3D()).Run(func(p pcomm.Comm) {
		me := p.ID()
		x := make([]float64, sys.lay.NLocal(me))
		opt := oracleOptions
		if x0Parts != nil {
			for i := range x {
				x[i] = 1
			}
			opt.X0 = x0Parts[me]
		}
		r, err := DistGMRES(p, sys.dms[me], sys.precs[me], x, bParts[me], opt)
		if err != nil {
			panic(err)
		}
		run.xs[me] = [][]float64{x}
		run.rs[me] = []Result{r}
	})
	return run
}

// batch runs one B = 3 DistGMRESBatch: system 0 is the cold case's,
// system 1 has a zero right-hand side and a non-zero iterate to clear,
// system 2 starts fourteen digits away so it is still iterating when
// the budget — three products past system 0's count — ends it.
func (sys oracleSystem) batch(t *testing.T, n, budget int) oracleRun {
	t.Helper()
	P := sys.lay.P
	far := make([]float64, n)
	for i := range far {
		far[i] = 1e6 * float64(1+i%7)
	}
	bParts := [][][]float64{sys.lay.Scatter(oracleRHS(n, 0)), sys.lay.Scatter(make([]float64, n)), sys.lay.Scatter(oracleRHS(n, 2))}
	xParts := [][][]float64{sys.lay.Scatter(make([]float64, n)), sys.lay.Scatter(sparse.Ones(n)), sys.lay.Scatter(far)}
	opt := oracleOptions
	opt.MaxMatVec = budget
	run := oracleRun{xs: make([][][]float64, P), rs: make([][]Result, P)}
	run.comm = modelled.New(P, machine.T3D()).Run(func(p pcomm.Comm) {
		me := p.ID()
		xs := [][]float64{xParts[0][me], xParts[1][me], xParts[2][me]}
		bs := [][]float64{bParts[0][me], bParts[1][me], bParts[2][me]}
		rs, err := DistGMRESBatch(p, sys.dms[me], sys.precs[me], xs, bs, opt)
		if err != nil {
			panic(err)
		}
		run.xs[me] = xs
		run.rs[me] = rs
	})
	if r := run.rs[0][1]; !r.Converged || r.NMatVec != 0 {
		t.Fatalf("zero right-hand side: %+v, want converged with no product", r)
	}
	if r := run.rs[0][2]; r.Converged || r.NMatVec != budget {
		t.Fatalf("far system: converged=%v after %d products, want the budget %d to end it", r.Converged, r.NMatVec, budget)
	}
	return run
}

// TestGMRESParentDigestOracle pins the distributed solvers bit for bit
// before DistGMRES became the B = 1 case of the lock-step driver: every
// matgen generator at p ∈ {1, 2, 4, 8} on the modelled T3D, under ILUT*
// (K = 2) factors and under DistJacobi, through a cold DistGMRES, a
// DistGMRES warm-started through Options.X0, and a B = 3 DistGMRESBatch
// with a zero right-hand side and a system that ends on MaxMatVec. Per
// case, digests of the solution bits, of History/Residual/NMatVec/
// Restarts/Converged on every rank, of the run's clock (Elapsed,
// per-rank time and flops) and of the per-rank message, byte and
// collective counts are compared with constants computed at the parent
// commit. A change that moves a solution bit, an iteration count, a
// modelled second or a collective fails here, naming which; a
// deliberate one regenerates the rows (the failure message prints them)
// and says so in CHANGES.md.
func TestGMRESParentDigestOracle(t *testing.T) {
	for _, mat := range oracleZoo() {
		n := mat.a.N
		for _, P := range oracleProcs {
			for _, precond := range oraclePreconds {
				sys := oracleBuild(t, mat.a, P, precond)
				cold := sys.single(t, oracleRHS(n, 0), nil)
				// A guess three digits in: the cold solution, perturbed.
				guess := sys.lay.Gather(firstSystem(cold.xs))
				for i := range guess {
					guess[i] *= 1 + 1e-3*float64(i%5-2)
				}
				runs := map[string]oracleRun{
					"cold":  cold,
					"x0":    sys.single(t, oracleRHS(n, 0), guess),
					"batch": sys.batch(t, n, cold.rs[0][0].NMatVec+3),
				}
				for _, variant := range oracleVariants {
					key := fmt.Sprintf("%s/p%d/%s/%s", mat.name, P, precond, variant)
					got := runs[variant].digests()
					if want := gmresParentDigests[key]; got != want {
						t.Errorf("%s: {solutions, history, clock, comm} differ from the parent commit:\n\t%q: {%q, %q, %q, %q},\nwant\t%q",
							key, key, got[0], got[1], got[2], got[3], want)
					}
				}
			}
		}
	}
}

// firstSystem picks system 0's local piece on every rank.
func firstSystem(xs [][][]float64) [][]float64 {
	out := make([][]float64, len(xs))
	for me := range xs {
		out[me] = xs[me][0]
	}
	return out
}
