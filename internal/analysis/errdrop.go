package analysis

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"strings"
)

// ErrDrop flags discarded errors on the comm and service boundaries: a
// call into the messaging layer (pcomm, its engine and backends, fault),
// the service package or the wire codec whose error result is dropped —
// the call used as a statement, deferred, or the error assigned to the
// blank identifier. The error on these boundaries is almost always a
// *pcomm.RunError carrying the failing rank, root cause, stack and
// blocked-state dump, or a service admission/breaker decision; dropping
// it converts a contained, diagnosable failure back into a silent one,
// undoing exactly what the failure-containment layer (DESIGN.md §11)
// bought. Other packages' errors are go vet's business, not this
// analyzer's.
var ErrDrop = &Analyzer{
	Name: "errdrop",
	Doc:  "flag discarded errors on comm and service boundaries",
	Run:  runErrDrop,
}

// ServicePath is the import path of the solver-service package.
const ServicePath = "repro/internal/service"

// CodecPath is the import path of the wire codec: a dropped Encode or
// End error is a body sent truncated or a malformed one accepted.
const CodecPath = "repro/internal/codec"

// errBoundaryPkg reports whether path is a package whose returned errors
// must not be dropped: the messaging layer, the service supervisor and
// the wire codec.
func errBoundaryPkg(path string) bool {
	return exemptPkg(path) || path == ServicePath || path == CodecPath
}

// netBoundaryPkg is the boundary set applied *inside* the netcomm
// transport (ordinary messaging-layer packages are exempt from errdrop;
// netcomm is not): the stdlib layers its dial/accept/frame/spawn paths
// are built on, plus its own helpers. A dropped error here does not
// just lose a diagnosis — it turns a dead connection into a rank that
// blocks forever, so the watchdog fires instead of the *RunError that
// names the broken link.
func netBoundaryPkg(path string) bool {
	switch path {
	case "net", "io", "bufio", "os/exec":
		return true
	}
	return strings.HasSuffix(path, "/netcomm") || errBoundaryPkg(path)
}

// clusterBoundaryPkg is the boundary set applied inside the service
// package's membership, replication and routes files: the stdlib layers
// the gossip view exchange, replica pushes and the HTTP answer writer are
// built on, plus the usual comm/service boundary. A dropped error on
// these paths is a silently lost probe verdict, a factor stranded
// without its redundancy or a reply lost unlogged — the exact failures
// the dynamic-membership layer and the daemon's edge exist to surface.
func clusterBoundaryPkg(path string) bool {
	switch path {
	case "net", "net/http", "io", "bufio", "encoding/json":
		return true
	}
	return errBoundaryPkg(path)
}

// clusterStrictFile reports whether filename is one of the service
// package's membership/replication/HTTP code paths, which get the stricter
// cluster boundary per file (the rest of the package keeps the ordinary
// comm/service boundary).
func clusterStrictFile(pkgPath, filename string) bool {
	if pkgPath != ServicePath && !strings.HasSuffix(pkgPath, "/clusterdrop") {
		return false
	}
	switch filepath.Base(filename) {
	case "membership.go", "replication.go", "routes.go":
		return true
	}
	return false
}

var errorType = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// boundaryErrResults returns the indices of call's error-typed results
// when the callee is a function of a package the boundary predicate
// accepts.
func boundaryErrResults(info *types.Info, call *ast.CallExpr, boundary func(string) bool) (fn *types.Func, errIdx []int) {
	callee := calleeOf(info, call)
	if callee == nil || callee.Pkg() == nil || !boundary(callee.Pkg().Path()) {
		return nil, nil
	}
	sig, ok := callee.Type().(*types.Signature)
	if !ok {
		return nil, nil
	}
	for i := 0; i < sig.Results().Len(); i++ {
		if types.Implements(sig.Results().At(i).Type(), errorType) {
			errIdx = append(errIdx, i)
		}
	}
	if len(errIdx) == 0 {
		return nil, nil
	}
	return callee, errIdx
}

func runErrDrop(pass *Pass) error {
	notClose := func(fn *types.Func) bool { return fn.Name() != "Close" }
	pkgBoundaryOf := func(fn *types.Func) bool { return true }
	pkgBoundary := errBoundaryPkg
	if strings.HasSuffix(pass.Pkg.Path(), "/netcomm") {
		// The socket transport gets the stricter net-level boundary.
		// Close is excepted: teardown paths drop Close errors
		// deliberately (the interesting error already happened).
		pkgBoundary = netBoundaryPkg
		pkgBoundaryOf = notClose
	} else if exemptPkg(pass.Pkg.Path()) {
		// The messaging layer's internal plumbing manages its own errors.
		return nil
	}
	info := pass.TypesInfo
	report := func(pos ast.Node, fn *types.Func, how string) {
		pass.Reportf(pos.Pos(),
			"error result of %s %s; on a comm/service boundary the error carries the failure diagnosis (*pcomm.RunError rank, cause, blocked-state dump) — handle it", funcLabel(fn), how)
	}
	for _, f := range pass.Files {
		// Boundary strictness is per file: the membership/replication
		// code paths answer for their stdlib errors too, Close excepted.
		boundary, boundaryOf := pkgBoundary, pkgBoundaryOf
		if clusterStrictFile(pass.Pkg.Path(), pass.Fset.Position(f.Pos()).Filename) {
			boundary = clusterBoundaryPkg
			boundaryOf = notClose
		}
		results := func(call *ast.CallExpr) (*types.Func, []int) {
			fn, errIdx := boundaryErrResults(info, call, boundary)
			if fn == nil || !boundaryOf(fn) {
				return nil, nil
			}
			return fn, errIdx
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					if fn, _ := results(call); fn != nil {
						report(n, fn, "discarded (call used as a statement)")
					}
				}
			case *ast.DeferStmt:
				if fn, _ := results(n.Call); fn != nil {
					report(n, fn, "discarded (deferred call)")
				}
			case *ast.GoStmt:
				if fn, _ := results(n.Call); fn != nil {
					report(n, fn, "discarded (go statement)")
				}
			case *ast.AssignStmt:
				// x, _ := pcomm.Guard(...) or _ = c.End(): the error
				// position is blanked.
				if len(n.Rhs) != 1 {
					return true
				}
				call, ok := n.Rhs[0].(*ast.CallExpr)
				if !ok {
					return true
				}
				fn, errIdx := results(call)
				if fn == nil {
					return true
				}
				for _, i := range errIdx {
					if i >= len(n.Lhs) {
						continue
					}
					if id, ok := n.Lhs[i].(*ast.Ident); ok && id.Name == "_" {
						report(n.Lhs[i], fn, "assigned to _")
					}
				}
			}
			return true
		})
	}
	return nil
}
