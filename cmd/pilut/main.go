// Command pilut factors a sparse system with the parallel threshold-based
// ILU factorization and solves it with preconditioned GMRES on the
// simulated distributed machine.
//
// The matrix comes from a MatrixMarket file (-matrix) or a built-in
// generator (-gen grid2d|grid3d|torso|convdiff with -size). The right-hand
// side is b = A·e (all-ones solution), the paper's setup.
//
// Example:
//
//	pilut -gen torso -size 24 -p 16 -m 10 -tau 1e-4 -k 2 -restart 50
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/ilu"
	"repro/internal/krylov"
	"repro/internal/machine"
	"repro/internal/matgen"
	"repro/internal/partition"
	"repro/internal/pcomm"
	"repro/internal/pcomm/backend"
	"repro/internal/sparse"
	"repro/internal/trace"
)

// preconds are the -precond choices.
var preconds = []string{"pilut", "ilu0", "blockjacobi", "jacobi", "none"}

func main() {
	matrixPath := flag.String("matrix", "", "MatrixMarket file to solve (overrides -gen)")
	gen := flag.String("gen", "grid2d", "generator: grid2d, grid3d, torso, convdiff")
	size := flag.Int("size", 64, "generator size (grid side / cube side)")
	p := flag.Int("p", 16, "virtual processors")
	m := flag.Int("m", 10, "ILUT fill per row (0 = unlimited)")
	tau := flag.Float64("tau", 1e-4, "ILUT drop threshold")
	k := flag.Int("k", 2, "ILUT* reduced-row cap multiplier (0 = plain ILUT)")
	precond := flag.String("precond", "pilut", "preconditioner: "+strings.Join(preconds, ", "))
	network := flag.String("network", "t3d", "cost model: t3d or workstation (modelled backend only)")
	backendKind := flag.String("backend", "modelled", "communication backend: modelled (virtual time) or real (wall-clock shared memory)")
	restart := flag.Int("restart", 50, "GMRES restart length")
	tol := flag.Float64("tol", 1e-8, "relative residual tolerance")
	maxMV := flag.Int("maxmv", 0, "matrix-vector budget (0 = 10n)")
	seed := flag.Int64("seed", 1, "random seed (partitioning, MIS)")
	traceOut := flag.String("trace", "", "write a Chrome trace JSON file (factorization + solve) to this path")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the whole run to this path")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile at exit to this path")
	flag.Parse()
	if !slices.Contains(preconds, *precond) {
		fmt.Fprintf(os.Stderr, "unknown preconditioner %q; choose one of %s\n", *precond, strings.Join(preconds, ", "))
		os.Exit(2)
	}

	// Profiles are written by deferred closers, so they cover the normal
	// return path only; the os.Exit error paths below bypass them — an
	// aborted run has no profile worth keeping.
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
			fmt.Printf("cpu profile: wrote %s (inspect with `go tool pprof -top`)\n", *cpuProfile)
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			runtime.GC() // materialize the final live set
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
			f.Close()
			fmt.Printf("heap profile: wrote %s (inspect with `go tool pprof -top`)\n", *memProfile)
		}()
	}

	a, name, err := loadMatrix(*matrixPath, *gen, *size, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	var cost machine.CostModel
	switch *network {
	case "t3d":
		cost = machine.T3D()
	case "workstation":
		cost = machine.Workstation()
	default:
		fmt.Fprintf(os.Stderr, "unknown network %q\n", *network)
		os.Exit(2)
	}
	fmt.Printf("matrix %s: n=%d nnz=%d\n", name, a.N, a.NNZ())

	plan, err := core.Prepare(a, *p, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	cut, weights, err := partition.Validate(graph.FromMatrix(a), plan.Lay.PartOf, *p)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	minW, maxW := weights[0], weights[0]
	for _, w := range weights {
		if w < minW {
			minW = w
		}
		if w > maxW {
			maxW = w
		}
	}
	fmt.Printf("partition: p=%d edge-cut=%d part weights %d..%d\n", *p, cut, minW, maxW)

	lay := plan.Lay
	fmt.Printf("classification: interior=%d (%.1f%%) interface=%d\n",
		plan.TotInterior, 100*plan.InteriorFraction(), plan.NInterface)

	params := ilu.Params{M: *m, Tau: *tau, K: *k}
	// Block-Jacobi is PILUT on the block-diagonal part: its plan has no
	// interface rows, so the factorization is phase 1 alone.
	factorPlan := plan
	if *precond == "blockjacobi" {
		if factorPlan, err = core.BlockJacobi(plan); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	precs := make([]krylov.DistPreconditioner, *p)
	pcs := make([]*core.ProcPrecond, *p)
	mach, err := backend.New(*backendKind, *p, cost)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	timeLabel := "modelled"
	if *backendKind == backend.Real {
		timeLabel = "wall"
	}
	var factRec, solveRec *trace.Recorder
	if *traceOut != "" {
		factRec = trace.NewRecorder(*p)
		mach.SetRecorder(factRec)
	}
	var levels int
	nnzCh := make([]int, *p)
	factRes := mach.Run(func(proc pcomm.Comm) {
		switch *precond {
		case "pilut", "blockjacobi":
			pc := core.Factor(proc, factorPlan, core.Options{Params: params, Seed: *seed})
			precs[proc.ID()] = pc
			pcs[proc.ID()] = pc
			nnzCh[proc.ID()] = pc.NNZ()
			if proc.ID() == 0 {
				levels = pc.NumLevels()
			}
		case "ilu0":
			pc := core.FactorILU0(proc, plan, 0, *seed)
			precs[proc.ID()] = pc
			nnzCh[proc.ID()] = pc.NNZ()
			if proc.ID() == 0 {
				levels = pc.NumLevels()
			}
		case "jacobi":
			j, err := krylov.NewDistJacobi(lay, a, proc.ID())
			if err != nil {
				panic(err)
			}
			precs[proc.ID()] = j
			nnzCh[proc.ID()] = lay.NLocal(proc.ID())
		case "none":
			precs[proc.ID()] = krylov.DistIdentity{}
		}
	})
	nnz := 0
	for _, v := range nnzCh {
		nnz += v
	}
	label := experiments.ConfigName(params.K > 0, params.M, params.Tau, params.K)
	if *precond == "ilu0" || *precond == "jacobi" || *precond == "none" {
		label = ""
	}
	fmt.Printf("preconditioner: %s %s  %s %.4fs  q=%d levels  fill=%.2fx\n",
		*precond, label, timeLabel, factRes.Elapsed, levels, float64(nnz)/float64(a.NNZ()))
	if *traceOut != "" && pcs[0] != nil {
		printFactorSummary(os.Stdout, pcs)
	}

	// Right-hand side b = A·e.
	e := sparse.Ones(a.N)
	b := make([]float64, a.N)
	a.MulVec(b, e)
	bParts := lay.Scatter(b)
	xParts := make([][]float64, *p)
	results := make([]krylov.Result, *p)
	mach2, err := backend.New(*backendKind, *p, cost)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *traceOut != "" {
		solveRec = trace.NewRecorder(*p)
		mach2.SetRecorder(solveRec)
	}
	solveRes := mach2.Run(func(proc pcomm.Comm) {
		dm := dist.NewMatrix(proc, lay, a)
		x := make([]float64, lay.NLocal(proc.ID()))
		r, err := krylov.DistGMRES(proc, dm, precs[proc.ID()], x, bParts[proc.ID()],
			krylov.Options{Restart: *restart, Tol: *tol, MaxMatVec: *maxMV})
		if err != nil {
			panic(err)
		}
		xParts[proc.ID()] = x
		results[proc.ID()] = r
	})
	x := lay.Gather(xParts)
	r := make([]float64, a.N)
	a.MulVec(r, x)
	for i := range r {
		r[i] = b[i] - r[i]
	}
	xErr := make([]float64, len(x)) // x − e, e the all-ones solution
	for i := range x {
		xErr[i] = x[i] - 1
	}
	fmt.Printf("GMRES(%d): converged=%v NMV=%d %s %.4fs  true rel residual=%.2e  ‖x−e‖=%.2e\n",
		*restart, results[0].Converged, results[0].NMatVec, timeLabel, solveRes.Elapsed,
		sparse.Norm2(r)/sparse.Norm2(b), sparse.Norm2(xErr))

	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		werr := trace.WriteChrome(f,
			trace.Part{Name: "factorization", Rec: factRec},
			trace.Part{Name: "solve", Rec: solveRec})
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintln(os.Stderr, werr)
			os.Exit(1)
		}
		fmt.Printf("trace: wrote %s (load in Perfetto or chrome://tracing)\n", *traceOut)
	}
}

// printFactorSummary prints the phase timings and the per-level reduction
// table of a parallel ILUT factorization — the Table-3-style view of the
// paper: how fast the reduced system shrinks level by level and what each
// level cost.
func printFactorSummary(w io.Writer, pcs []*core.ProcPrecond) {
	maxPh := func(f func(*core.ProcPrecond) float64) float64 {
		v := 0.0
		for _, pc := range pcs {
			if x := f(pc); x > v {
				v = x
			}
		}
		return v
	}
	fmt.Fprintf(w, "phases (max over procs): interior %.4fs  interface-elim %.4fs  levels %.4fs\n",
		maxPh(func(pc *core.ProcPrecond) float64 { return pc.Stats.Phase1InteriorSeconds }),
		maxPh(func(pc *core.ProcPrecond) float64 { return pc.Stats.Phase1InterfaceSeconds }),
		maxPh(func(pc *core.ProcPrecond) float64 { return pc.Stats.Phase2Seconds }))

	levels := core.SummarizeLevels(pcs)
	if len(levels) == 0 {
		return
	}
	t := experiments.Table{Header: []string{"level", "start", "size", "rows-in", "red-nnz", "dropped"}}
	for l, ls := range levels {
		t.Add(fmt.Sprint(l), fmt.Sprint(ls.Start), fmt.Sprint(ls.Size),
			fmt.Sprint(ls.Rows), fmt.Sprint(ls.ReducedNNZ), fmt.Sprint(ls.Dropped))
	}
	t.Write(w)
}

func loadMatrix(path, gen string, size int, seed int64) (*sparse.CSR, string, error) {
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return nil, "", err
		}
		defer f.Close()
		a, err := sparse.ReadMatrixMarket(f)
		if err != nil {
			return nil, "", err
		}
		return a, path, nil
	}
	switch gen {
	case "grid2d":
		return matgen.Grid2D(size, size), fmt.Sprintf("grid2d(%d)", size), nil
	case "grid3d":
		return matgen.Grid3D(size, size, size), fmt.Sprintf("grid3d(%d)", size), nil
	case "torso":
		return matgen.Torso(size, size, size, seed), fmt.Sprintf("torso(%d)", size), nil
	case "convdiff":
		return matgen.ConvDiff2D(size, size, 30, 20), fmt.Sprintf("convdiff(%d)", size), nil
	}
	return nil, "", fmt.Errorf("unknown generator %q", gen)
}
