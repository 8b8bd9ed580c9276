// Backend bit-compatibility tests: the modelled machine, the wall-clock
// shared-memory backend, and the multi-process netcomm backend must
// produce bitwise-identical numerical results. Collectives on all three
// backends fold contributions in processor-rank order (Dong & Cooperman,
// arXiv:0803.0048), so every float along the pipeline — factor values,
// residual histories, solution vectors — is a pure function of the input
// data, not of the scheduler or the network. Timing (virtual vs wall
// clock) is the only observable allowed to differ; everything here
// compares through math.Float64bits, not tolerances.
//
// The netcomm leg runs the same pipeline across two OS processes: the
// default spawn spec re-execs this test binary, and the worker child
// runs the same test sequence so its world-creation order matches the
// parent's (the SPMD-at-program-granularity contract). Because netcomm
// processes host only their local ranks, the pipeline gathers every
// observable with an all-gather so each process can assemble the full
// picture — the gathers happen after the comm-counter snapshot, so the
// counters still describe the pipeline alone.
package repro_test

import (
	"bytes"
	"context"
	"encoding/gob"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/ilu"
	"repro/internal/krylov"
	"repro/internal/machine"
	"repro/internal/matgen"
	"repro/internal/pcomm"
	"repro/internal/pcomm/modelled"
	"repro/internal/pcomm/netcomm"
	"repro/internal/pcomm/realcomm"
	"repro/internal/service"
	"repro/internal/sparse"
)

// rankObs is one rank's contribution to the pipeline cross-check,
// gob-encoded to bytes and shipped through a single AllGatherSlice (the
// communicator moves only typed slices). All fields are exported for
// encoding/gob.
type rankObs struct {
	Wire  core.WirePrecond
	Comm  pcomm.Stats
	Gmres krylov.Result
	X     []float64
}

// gatherObs all-gathers every rank's observation, in rank order.
func gatherObs(p pcomm.Comm, mine rankObs) []rankObs {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(mine); err != nil {
		panic(err)
	}
	parts := pcomm.AllGatherSlice(p, buf.Bytes())
	all := make([]rankObs, len(parts))
	for q, part := range parts {
		if err := gob.NewDecoder(bytes.NewReader(part)).Decode(&all[q]); err != nil {
			panic(err)
		}
	}
	return all
}

// netcommWorker reports whether this process is a spawned netcomm child:
// the spawner rewrites PILUT_BACKEND to an explicit spec naming the
// child's own listen address. Workers run the same world-creating tests
// as the parent (generation numbers must line up), but skip tests that
// create no netcomm worlds and whose results only the parent reads.
func netcommWorker() bool {
	spec := os.Getenv(netcomm.BackendEnvVar)
	if !netcomm.IsSpec(spec) {
		return false
	}
	s, err := netcomm.ParseSpec(spec)
	return err == nil && s.Spawn == 0
}

// netcommWorld returns a P-rank world on the netcomm process group: the
// explicit spec from the environment when this process is a spawned
// worker (or a CI lane chose one), otherwise a fresh two-process group
// spawned from this test binary.
func netcommWorld(t *testing.T, p int) pcomm.World {
	t.Helper()
	spec := os.Getenv(netcomm.BackendEnvVar)
	if !netcomm.IsSpec(spec) {
		spec = "netcomm:spawn=2"
	}
	w, err := netcomm.WorldFor(spec, p)
	if err != nil {
		t.Fatalf("netcomm world (%s): %v", spec, err)
	}
	// Generous: a wedged spawn should fail loudly, not hang the suite.
	w.SetWatchdog(120 * time.Second)
	return w
}

// pipelineOut is everything observable from one factor+solve run that
// must not depend on the communication backend.
type pipelineOut struct {
	factors *ilu.Factors
	perm    []int
	stats   []core.Stats  // per proc, clock fields zeroed
	comm    []pcomm.Stats // per proc, clock fields zeroed
	gmres   []krylov.Result
	x       []float64 // gathered GMRES solution
}

// runPipeline factors a on w's processors, gathers the factors, then
// solves A·x = A·1 with preconditioned GMRES, recording every
// backend-independent observable. The observables travel through an
// all-gather rather than shared slices so the pipeline also works on
// multi-process backends, where each process sees only its local ranks.
func runPipeline(t *testing.T, w pcomm.World, a *sparse.CSR, lay *dist.Layout, plan *core.Plan, P int) pipelineOut {
	t.Helper()
	n := a.N
	e := make([]float64, n)
	for i := range e {
		e[i] = 1
	}
	b := make([]float64, n)
	a.MulVec(b, e)
	bParts := lay.Scatter(b)

	views := make([][]rankObs, P)
	opt := core.Options{Params: ilu.Params{M: 8, Tau: 1e-4, K: 2}, Seed: 7}
	w.Run(func(p pcomm.Comm) {
		id := p.ID()
		pc := core.Factor(p, plan, opt)

		dm := dist.NewMatrix(p, lay, a)
		x := make([]float64, lay.NLocal(id))
		r, err := krylov.DistGMRES(p, dm, pc, x, bParts[id],
			krylov.Options{Restart: 30, Tol: 1e-8, MaxMatVec: 2000})
		if err != nil {
			panic(err)
		}

		// Snapshot the counters before the cross-check gather below adds
		// its own traffic; the clocks (virtual vs wall seconds) are the
		// one backend-dependent observable, so zero them here.
		s := p.Stats()
		s.Time, s.Busy = 0, 0

		views[id] = gatherObs(p, rankObs{Wire: pc.Wire(), Comm: s, Gmres: r, X: x})
	})

	// Every rank assembled the same P observations; any local view works.
	var obs []rankObs
	for _, v := range views {
		if v != nil {
			obs = v
			break
		}
	}
	if obs == nil {
		t.Fatal("run produced no local rank view")
	}

	out := pipelineOut{
		stats: make([]core.Stats, P),
		comm:  make([]pcomm.Stats, P),
		gmres: make([]krylov.Result, P),
	}
	pcs := make([]*core.ProcPrecond, P)
	xParts := make([][]float64, P)
	for q := 0; q < P; q++ {
		pc, err := core.FromWire(plan, obs[q].Wire)
		if err != nil {
			t.Fatalf("rank %d wire rebuild: %v", q, err)
		}
		pcs[q] = pc
		out.stats[q] = obs[q].Wire.Stats
		out.comm[q] = obs[q].Comm
		out.gmres[q] = obs[q].Gmres
		xParts[q] = obs[q].X
	}
	f, perm, err := core.GatherFactors(pcs)
	if err != nil {
		t.Fatal(err)
	}
	out.factors, out.perm = f, perm
	out.x = lay.Gather(xParts)
	for q := range out.stats {
		// The phase clocks read p.Time(): modelled seconds on one backend,
		// wall seconds on the others. Everything else must match bitwise.
		out.stats[q].Phase1InteriorSeconds = 0
		out.stats[q].Phase1InterfaceSeconds = 0
		out.stats[q].Phase2Seconds = 0
	}
	return out
}

func floatsBitwiseEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func csrBitwiseEqual(a, b *sparse.CSR) bool {
	return a.N == b.N && a.M == b.M &&
		reflect.DeepEqual(a.RowPtr, b.RowPtr) &&
		reflect.DeepEqual(a.Cols, b.Cols) &&
		floatsBitwiseEqual(a.Vals, b.Vals)
}

// comparePipelines asserts every backend-independent observable matches
// bitwise between two runs of the same problem.
func comparePipelines(t *testing.T, name string, P int, refName, gotName string, ref, got pipelineOut) {
	t.Helper()
	if !csrBitwiseEqual(ref.factors.L, got.factors.L) {
		t.Errorf("%s P=%d: L factor differs between %s and %s", name, P, refName, gotName)
	}
	if !csrBitwiseEqual(ref.factors.U, got.factors.U) {
		t.Errorf("%s P=%d: U factor differs between %s and %s", name, P, refName, gotName)
	}
	if !reflect.DeepEqual(ref.perm, got.perm) {
		t.Errorf("%s P=%d: elimination permutation differs between %s and %s", name, P, refName, gotName)
	}
	for q := 0; q < P; q++ {
		if !reflect.DeepEqual(ref.stats[q], got.stats[q]) {
			t.Errorf("%s P=%d proc %d: factor stats differ:\n%s %+v\n%s %+v",
				name, P, q, refName, ref.stats[q], gotName, got.stats[q])
		}
		if !reflect.DeepEqual(ref.comm[q], got.comm[q]) {
			t.Errorf("%s P=%d proc %d: comm counters differ:\n%s %+v\n%s %+v",
				name, P, q, refName, ref.comm[q], gotName, got.comm[q])
		}
		rg, gg := ref.gmres[q], got.gmres[q]
		if rg.Converged != gg.Converged || rg.NMatVec != gg.NMatVec || rg.Restarts != gg.Restarts {
			t.Errorf("%s P=%d proc %d: GMRES outcome differs: %s %+v %s %+v",
				name, P, q, refName, rg, gotName, gg)
		}
		if !floatsBitwiseEqual(rg.History, gg.History) {
			t.Errorf("%s P=%d proc %d: GMRES residual history differs between %s and %s",
				name, P, q, refName, gotName)
		}
		if len(rg.History) == 0 {
			t.Errorf("%s P=%d proc %d: GMRES recorded no residual history", name, P, q)
		}
	}
	if !floatsBitwiseEqual(ref.x, got.x) {
		t.Errorf("%s P=%d: GMRES solution differs between %s and %s", name, P, refName, gotName)
	}
	if !ref.gmres[0].Converged {
		t.Errorf("%s P=%d: solve did not converge; equivalence test is vacuous", name, P)
	}
}

// TestBackendBitwiseEquivalence runs the full factor+GMRES pipeline on
// the modelled machine, the real shared-memory backend, and the
// multi-process netcomm backend (two OS processes over loopback) and
// demands bitwise-identical factors, per-level statistics, communication
// counters, residual histories and solutions.
func TestBackendBitwiseEquivalence(t *testing.T) {
	problems := []struct {
		name string
		a    *sparse.CSR
	}{
		{"grid2d", matgen.Grid2D(16, 16)},
		{"convdiff", matgen.ConvDiff2D(12, 12, 15, -7)},
	}
	for _, prob := range problems {
		for _, P := range []int{2, 4} {
			a := prob.a
			plan, err := core.Prepare(a, P, 5)
			if err != nil {
				t.Fatal(err)
			}
			lay := plan.Lay

			mod := runPipeline(t, modelled.New(P, machine.T3D()), a, lay, plan, P)
			real := runPipeline(t, realcomm.New(P), a, lay, plan, P)
			net := runPipeline(t, netcommWorld(t, P), a, lay, plan, P)

			comparePipelines(t, prob.name, P, "modelled", "real", mod, real)
			comparePipelines(t, prob.name, P, "modelled", "netcomm", mod, net)
		}
	}
}

// TestAnalyzeRefactorEquivalence pins the symbolic/numeric split against
// the one-shot path on every backend: a plan obtained by analyzing a
// base matrix and rebinding its pattern to a same-pattern perturbed
// matrix (core.Prepare + Symbolic.Bind, the sequence-reuse path) must
// drive the full factor+GMRES pipeline to bitwise-identical results as a
// plan built from scratch for the perturbed matrix (core.NewPlan), on
// the modelled, real and netcomm backends alike. core.Factor and
// core.Refactor are the same numeric phase by construction; what this
// test guards is that the reused analysis feeds it identical inputs.
func TestAnalyzeRefactorEquivalence(t *testing.T) {
	base := matgen.Grid2D(16, 16)
	next := matgen.Evolve(base, 1, 2e-2, 11)[0]
	for _, P := range []int{2, 4} {
		plan, err := core.Prepare(base, P, 5)
		if err != nil {
			t.Fatal(err)
		}
		lay := plan.Lay
		rebound, err := plan.Bind(next)
		if err != nil {
			t.Fatalf("P=%d: Bind rejected a same-pattern matrix: %v", P, err)
		}
		fresh, err := core.NewPlan(next, lay)
		if err != nil {
			t.Fatal(err)
		}

		freshMod := runPipeline(t, modelled.New(P, machine.T3D()), next, lay, fresh, P)
		reboundMod := runPipeline(t, modelled.New(P, machine.T3D()), next, lay, rebound, P)
		reboundReal := runPipeline(t, realcomm.New(P), next, lay, rebound, P)
		reboundNet := runPipeline(t, netcommWorld(t, P), next, lay, rebound, P)

		comparePipelines(t, "analyze-refactor", P, "fresh-plan", "rebound-plan", freshMod, reboundMod)
		comparePipelines(t, "analyze-refactor", P, "rebound-modelled", "rebound-real", reboundMod, reboundReal)
		comparePipelines(t, "analyze-refactor", P, "rebound-modelled", "rebound-netcomm", reboundMod, reboundNet)
	}
}

// TestServiceBackendEquivalence checks the user-facing contract at the
// service layer: two servers differing only in Backend return
// bitwise-identical solutions for the same request.
func TestServiceBackendEquivalence(t *testing.T) {
	if netcommWorker() {
		// Creates no netcomm worlds (skipping cannot desync generation
		// numbers) and only the parent reads service results.
		t.Skip("netcomm worker process")
	}
	a := matgen.Torso(10, 10, 10, 3)
	b := make([]float64, a.N)
	for i := range b {
		b[i] = float64(i%11) - 5
	}
	solve := func(kind string) service.SolveResult {
		srv := service.New(service.Config{Procs: 4, Backend: kind, Cost: machine.T3D()})
		defer srv.Shutdown(context.Background())
		key, _, err := srv.Submit(a)
		if err != nil {
			t.Fatal(err)
		}
		res, err := srv.Solve(context.Background(), key, b, service.SolveOptions{Tol: 1e-8})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	mod := solve("modelled")
	real := solve("real")
	if !mod.Converged || !real.Converged {
		t.Fatalf("service solve did not converge (modelled=%v real=%v)", mod.Converged, real.Converged)
	}
	if mod.Iterations != real.Iterations || mod.Restarts != real.Restarts {
		t.Errorf("service iteration counts differ: modelled %d/%d real %d/%d",
			mod.Iterations, mod.Restarts, real.Iterations, real.Restarts)
	}
	if !floatsBitwiseEqual(mod.X, real.X) {
		t.Errorf("service solutions differ between backends")
	}
}
