package analysis

import (
	"go/ast"
	"go/types"
)

// ProcEscape flags communicator handles (*engine.Proc, pcomm.Comm)
// escaping the goroutine Run handed them to: captured by or passed to a
// go statement, stored in a package-level variable, or sent through a
// channel. A handle carries an unsynchronized clock, receiver-owned
// mailbox stashes and per-processor counters; sharing one across goroutines races, and using one after Run
// returns corrupts the next run's accounting. The messaging layer itself
// is exempt — Run is where the confinement is established.
var ProcEscape = &Analyzer{
	Name: "procescape",
	Doc:  "flag communicator handles escaping their goroutine",
	Run:  runProcEscape,
}

func runProcEscape(pass *Pass) error {
	if exemptPkg(pass.Pkg.Path()) {
		return nil
	}
	info := pass.TypesInfo
	isProcExpr := func(e ast.Expr) bool {
		tv, ok := info.Types[e]
		return ok && isComm(tv.Type)
	}
	labelOf := func(e ast.Expr) string {
		tv, _ := info.Types[e]
		return commLabel(tv.Type)
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				checkGoStmt(pass, n, isProcExpr, labelOf)
			case *ast.SendStmt:
				if isProcExpr(n.Value) {
					pass.Reportf(n.Value.Pos(),
						"%s sent on a channel; the communicator is confined to the goroutine Run handed it to", labelOf(n.Value))
				}
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					rhs := n.Rhs[0]
					if len(n.Lhs) == len(n.Rhs) {
						rhs = n.Rhs[i]
					}
					if isProcExpr(rhs) && isPackageLevelTarget(info, lhs) {
						pass.Reportf(rhs.Pos(),
							"%s stored in a package-level variable; the communicator must not outlive its Run goroutine", labelOf(rhs))
					}
				}
			case *ast.ValueSpec:
				// var global = p at package scope (or any spec storing a Proc
				// into a package-level name).
				for i, name := range n.Names {
					if i < len(n.Values) && isProcExpr(n.Values[i]) && isPackageLevelTarget(info, name) {
						pass.Reportf(n.Values[i].Pos(),
							"%s stored in a package-level variable; the communicator must not outlive its Run goroutine", labelOf(n.Values[i]))
					}
				}
			}
			return true
		})
	}
	return nil
}

// checkGoStmt reports communicator handles entering a goroutine either
// as arguments or as free variables of a function-literal body.
func checkGoStmt(pass *Pass, g *ast.GoStmt, isProcExpr func(ast.Expr) bool, labelOf func(ast.Expr) string) {
	for _, arg := range g.Call.Args {
		if isProcExpr(arg) {
			pass.Reportf(arg.Pos(),
				"%s passed to a goroutine; the communicator is confined to the goroutine Run handed it to", labelOf(arg))
		}
	}
	switch fun := g.Call.Fun.(type) {
	case *ast.SelectorExpr:
		// go p.Method(...): the receiver escapes.
		if isProcExpr(fun.X) {
			pass.Reportf(fun.X.Pos(),
				"%s method launched as a goroutine; the communicator is confined to the goroutine Run handed it to", labelOf(fun.X))
		}
	case *ast.FuncLit:
		// Free communicator variables captured by the closure body.
		reported := make(map[*types.Var]bool)
		ast.Inspect(fun.Body, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			v := lookupVar(pass.TypesInfo, id)
			if v == nil || reported[v] || !isComm(v.Type()) {
				return true
			}
			if v.Pos() < fun.Pos() || v.Pos() > fun.End() {
				reported[v] = true
				pass.Reportf(id.Pos(),
					"%s %s captured by a go-statement closure; the communicator is confined to the goroutine Run handed it to", commLabel(v.Type()), id.Name)
			}
			return true
		})
	}
}

// isPackageLevelTarget reports whether the assignment target's root
// object is a package-level variable.
func isPackageLevelTarget(info *types.Info, e ast.Expr) bool {
	for {
		switch t := e.(type) {
		case *ast.Ident:
			v := lookupVar(info, t)
			if v == nil || v.Pkg() == nil {
				return false
			}
			return v.Parent() == v.Pkg().Scope()
		case *ast.SelectorExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.StarExpr:
			e = t.X
		case *ast.ParenExpr:
			e = t.X
		default:
			return false
		}
	}
}
