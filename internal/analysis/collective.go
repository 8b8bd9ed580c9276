package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// Collective flags calls to Barrier/AllReduce*/AllGather* (and to
// pcomm.BuildHalo, which all-gathers) that sit inside a branch or loop
// whose condition derives from proc-local state (p.ID, data returned by
// p.Recv, p.Time, p.Stats). Collectives are rendezvous
// points: every virtual processor must reach them in the same order, so a
// collective guarded by processor-dependent control flow is the static
// form of the engine's runtime "collective mismatch" panic — and a
// deadlock on a real MPI machine, where nothing checks.
//
// The analysis is a lexical taint check: it sees direct method calls on
// a communicator, not collectives buried in callees, and only flags
// conditions that provably mention proc-local data. Uniform conditions
// (loop counters, AllReduce results, configuration) pass.
var Collective = &Analyzer{
	Name: "collective",
	Doc:  "flag collectives guarded by proc-local control flow",
	Run:  runCollective,
}

func isCollectiveName(name string) bool {
	return name == "Barrier" || name == "BuildHalo" ||
		strings.HasPrefix(name, "AllReduce") ||
		strings.HasPrefix(name, "AllGather")
}

func runCollective(pass *Pass) error {
	pm := buildParents(pass.Files)
	info := pass.TypesInfo

	// taintedVars is computed per top-level function the first time a
	// collective is found inside it.
	taintCache := make(map[*ast.FuncDecl]map[*types.Var]bool)

	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			name, ok := procMethod(info, call)
			if !ok {
				name, ok = pcommFunc(info, call)
			}
			if !ok || !isCollectiveName(name) {
				return true
			}
			fd := topLevelFunc(pm, call)
			if fd == nil {
				return true
			}
			tainted, ok := taintCache[fd]
			if !ok {
				tainted = taintedVars(info, fd)
				taintCache[fd] = tainted
			}
			if cond, kind := localGuard(info, pm, call, fd, tainted); cond != nil {
				pass.Reportf(call.Pos(),
					"collective %s inside a %s whose condition derives from proc-local state; every processor must reach collectives in the same order", name, kind)
			}
			return true
		})
	}
	return nil
}

// localGuard climbs from the collective call to its top-level function
// looking for an enclosing branch or loop whose condition is tainted by
// proc-local state. It returns the offending condition and a description
// of the construct.
func localGuard(info *types.Info, pm parentMap, call ast.Node, fd *ast.FuncDecl, tainted map[*types.Var]bool) (ast.Expr, string) {
	prev := ast.Node(call)
	for n := pm[call]; n != nil && n != fd; prev, n = n, pm[n] {
		switch n := n.(type) {
		case *ast.IfStmt:
			if (prev == n.Body || prev == n.Else) && exprTainted(info, n.Cond, tainted) {
				return n.Cond, "branch"
			}
		case *ast.SwitchStmt:
			if prev == n.Body && n.Tag != nil && exprTainted(info, n.Tag, tainted) {
				return n.Tag, "switch"
			}
		case *ast.ForStmt:
			if prev == n.Body && n.Cond != nil && exprTainted(info, n.Cond, tainted) {
				return n.Cond, "loop"
			}
		case *ast.RangeStmt:
			if prev == n.Body && exprTainted(info, n.X, tainted) {
				return n.X, "range loop"
			}
		case *ast.CaseClause:
			// Tagged switch: the clause values are compared against the
			// tag; if the values are tainted, taking this clause is
			// proc-dependent even when the tag is uniform.
			for _, e := range n.List {
				if exprTainted(info, e, tainted) {
					return e, "switch case"
				}
			}
		}
	}
	return nil, ""
}

// isTaintSource reports whether e directly reads proc-local state.
func isTaintSource(info *types.Info, e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.SelectorExpr:
		// A bound p.ID method value mentioned in a condition (the call
		// itself is the CallExpr case).
		if e.Sel.Name != "ID" {
			return false
		}
		tv, ok := info.Types[e.X]
		return ok && isComm(tv.Type)
	case *ast.CallExpr:
		if name, ok := procMethod(info, e); ok {
			return name == "ID" || name == "Recv" || name == "Time" || name == "Stats"
		}
		if name, ok := pcommFunc(info, e); ok {
			return name == "RecvSlice"
		}
		return false
	}
	return false
}

// exprTainted reports whether e mentions a taint source or a tainted
// variable.
func exprTainted(info *types.Info, e ast.Expr, tainted map[*types.Var]bool) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		if ex, ok := n.(ast.Expr); ok && isTaintSource(info, ex) {
			found = true
			return false
		}
		if id, ok := n.(*ast.Ident); ok {
			if v := lookupVar(info, id); v != nil && tainted[v] {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// taintedVars computes, to a fixpoint, the variables of fd (including its
// closures) assigned from proc-local state.
func taintedVars(info *types.Info, fd *ast.FuncDecl) map[*types.Var]bool {
	tainted := make(map[*types.Var]bool)
	varOf := func(e ast.Expr) *types.Var {
		if id, ok := e.(*ast.Ident); ok {
			return lookupVar(info, id)
		}
		return nil
	}
	for changed := true; changed; {
		changed = false
		mark := func(lhs ast.Expr) {
			if v := varOf(lhs); v != nil && !tainted[v] {
				tainted[v] = true
				changed = true
			}
		}
		ast.Inspect(fd, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) == len(n.Rhs) {
					for i, lhs := range n.Lhs {
						if exprTainted(info, n.Rhs[i], tainted) {
							mark(lhs)
						}
					}
				} else {
					for _, lhs := range n.Lhs {
						if exprTainted(info, n.Rhs[0], tainted) {
							mark(lhs)
						}
					}
				}
			case *ast.ValueSpec:
				for i, name := range n.Names {
					if len(n.Values) == len(n.Names) && exprTainted(info, n.Values[i], tainted) {
						mark(name)
					} else if len(n.Values) == 1 && len(n.Names) > 1 && exprTainted(info, n.Values[0], tainted) {
						mark(name)
					}
				}
			case *ast.RangeStmt:
				if exprTainted(info, n.X, tainted) {
					if n.Key != nil {
						mark(n.Key)
					}
					if n.Value != nil {
						mark(n.Value)
					}
				}
			}
			return true
		})
	}
	return tainted
}
