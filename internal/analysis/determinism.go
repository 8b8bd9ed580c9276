package analysis

import (
	"go/ast"
	"go/types"
)

// Determinism flags nondeterminism sources reachable from SPMD code —
// any function whose signature carries a communicator (pcomm.Comm,
// *engine.Proc): map-range iteration, wall-clock reads (time.Now /
// Since / Until), the global math/rand source, select statements, and
// goroutine launches. The repo's central contract is that a run produces
// bitwise-identical factors, stats and GMRES histories on the modelled
// and realcomm backends (DESIGN.md §10); each of these constructs can
// reorder floating-point operations (or change values outright) between
// two runs, which the runtime equivalence tests only catch when the
// schedule happens to differ.
//
// The check is interprocedural through the facts layer: a helper that
// ranges over a map is flagged at the call site that reaches it from
// SPMD code, with the call chain in the message — including helpers in
// other packages. Helpers that themselves take a communicator are
// skipped at call sites (they are SPMD code and are checked at their own
// definition). The messaging layer, trace recorder and service
// supervisor are exempt: their internals (mailbox selects, wall-clock
// latency histograms) are by design and sit outside the deterministic
// region.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc:  "flag nondeterminism (map ranges, wall clock, global rand, select, goroutines) reachable from SPMD code",
	Run:  runDeterminism,
}

// sigTakesComm reports whether a signature carries a communicator in its
// receiver or parameters — the definition of "SPMD code" for this suite.
func sigTakesComm(sig *types.Signature) bool {
	if sig == nil {
		return false
	}
	if sig.Recv() != nil && isComm(sig.Recv().Type()) {
		return true
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if isComm(sig.Params().At(i).Type()) {
			return true
		}
	}
	return false
}

// fnTakesComm is sigTakesComm on a function object.
func fnTakesComm(fn *types.Func) bool {
	sig, _ := fn.Type().(*types.Signature)
	return sigTakesComm(sig)
}

// directDetMessage phrases a direct violation.
func directDetMessage(f Fact) string {
	switch f {
	case FactRangesMap:
		return "map iteration in SPMD code: range order is nondeterministic across runs; iterate a sorted key slice instead"
	case FactWallClock:
		return "wall-clock read in SPMD code breaks modelled/real bit-compatibility; use the communicator clock (Comm.Time)"
	case FactGlobalRand:
		return "global math/rand source in SPMD code is nondeterministic; use a rank-seeded rand.New(rand.NewSource(...))"
	case FactSelect:
		return "select in SPMD code makes message-arrival order observable; receive in deterministic rank order instead"
	case FactSpawnsGoroutine:
		return "goroutine launched in SPMD code: the communicator contract is one goroutine per rank"
	}
	return f.String() + " in SPMD code"
}

func runDeterminism(pass *Pass) error {
	if factOpaque(pass.Pkg.Path()) {
		return nil
	}
	info := pass.TypesInfo

	// Collect the bodies of SPMD functions: declarations and function
	// literals whose signature carries a communicator.
	var bodies []*ast.BlockStmt
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body == nil {
					return false
				}
				if fn, ok := info.Defs[n.Name].(*types.Func); ok && fnTakesComm(fn) {
					bodies = append(bodies, n.Body)
					return false // nested comm-taking literals are part of this body's walk
				}
			case *ast.FuncLit:
				if tv, ok := info.Types[n]; ok {
					if sig, ok := tv.Type.(*types.Signature); ok && sigTakesComm(sig) {
						bodies = append(bodies, n.Body)
						return false
					}
				}
			}
			return true
		})
	}

	for _, body := range bodies {
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				// A nested literal that takes its own communicator is SPMD
				// code in its own right and is walked separately.
				if tv, ok := info.Types[n]; ok {
					if sig, ok := tv.Type.(*types.Signature); ok && sigTakesComm(sig) {
						return false
					}
				}
			case *ast.RangeStmt:
				if tv, ok := info.Types[n.X]; ok {
					if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
						pass.Reportf(n.Range, "%s", directDetMessage(FactRangesMap))
					}
				}
			case *ast.SelectStmt:
				pass.Reportf(n.Select, "%s", directDetMessage(FactSelect))
			case *ast.GoStmt:
				pass.Reportf(n.Go, "%s", directDetMessage(FactSpawnsGoroutine))
			case *ast.CallExpr:
				callee := calleeOf(info, n)
				if callee == nil {
					break
				}
				if fact, ok := stdlibFact(callee); ok {
					pass.Reportf(n.Pos(), "%s", directDetMessage(fact))
					break
				}
				if fnTakesComm(callee) {
					break // SPMD code itself; checked at its definition
				}
				ff := pass.Facts.Lookup(callee)
				if ff == nil {
					break // standard library, interface method, or opaque package
				}
				for _, fact := range DeterminismFacts {
					if ff.Has(fact) {
						pass.Reportf(n.Pos(), "call to %s reaches nondeterminism from SPMD code: it %s",
							funcLabel(callee), pass.Facts.Chain(pass.Fset, callee, fact))
					}
				}
			}
			return true
		})
	}
	return nil
}
