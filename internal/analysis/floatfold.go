package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// FloatFold flags floating-point accumulation whose fold order is not
// deterministic rank order: an accumulation statement inside a loop that
// ranges over a map (iteration order varies run to run), and manual
// folds over all-gather results (AllGatherSlice, AllGatherRaw) that walk
// the gathered contributions in descending index order. Floating-point
// addition is not associative, so either pattern silently produces a
// different last bit on the next run — the exact failure mode the
// backends' rank-order collective contract (DESIGN.md §10) exists to
// prevent. AllReduce and an ascending walk over all-gather results both
// fold in rank order and pass.
var FloatFold = &Analyzer{
	Name: "floatfold",
	Doc:  "flag float accumulation in map-range or non-rank order",
	Run:  runFloatFold,
}

// isFloat reports whether t is a floating-point or complex type.
func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&(types.IsFloat|types.IsComplex) != 0
}

// accTarget returns the accumulated-into expression if stmt is a
// floating-point accumulation: x += e, x -= e, or x = x ± e / x = e + x.
func accTarget(info *types.Info, stmt *ast.AssignStmt) ast.Expr {
	if len(stmt.Lhs) != 1 || len(stmt.Rhs) != 1 {
		return nil
	}
	lhs := stmt.Lhs[0]
	tv, ok := info.Types[lhs]
	if !ok || !isFloat(tv.Type) {
		return nil
	}
	switch stmt.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN:
		return lhs
	case token.ASSIGN:
		bin, ok := unparen(stmt.Rhs[0]).(*ast.BinaryExpr)
		if !ok || (bin.Op != token.ADD && bin.Op != token.SUB) {
			return nil
		}
		lv := lookupIdentVar(info, lhs)
		if lv == nil {
			return nil
		}
		if lookupIdentVar(info, bin.X) == lv || (bin.Op == token.ADD && lookupIdentVar(info, bin.Y) == lv) {
			return lhs
		}
	}
	return nil
}

// lookupIdentVar resolves e to a variable when e is a plain identifier.
func lookupIdentVar(info *types.Info, e ast.Expr) *types.Var {
	id, ok := unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	return lookupVar(info, id)
}

// gatherDefined reports whether v's value provably comes from an
// all-gather (the per-rank contribution slice).
func gatherDefined(info *types.Info, idx *defIndex, v *types.Var) bool {
	for _, d := range idx.defs[v] {
		if d.rhs == nil {
			continue
		}
		call, ok := unparen(d.rhs).(*ast.CallExpr)
		if !ok {
			continue
		}
		if m, ok := procMethod(info, call); ok && m == "AllGatherRaw" {
			return true
		}
		if m, ok := pcommFunc(info, call); ok && m == "AllGatherSlice" {
			return true
		}
	}
	return false
}

func runFloatFold(pass *Pass) error {
	if factOpaque(pass.Pkg.Path()) {
		return nil
	}
	info := pass.TypesInfo
	pm := buildParents(pass.Files)
	idx := buildDefIndex(pass)

	// descLoopVar returns the loop variable of a descending for loop
	// (post statement i-- or i -= ...), or nil.
	descLoopVar := func(fs *ast.ForStmt) *types.Var {
		switch post := fs.Post.(type) {
		case *ast.IncDecStmt:
			if post.Tok == token.DEC {
				return lookupIdentVar(info, post.X)
			}
		case *ast.AssignStmt:
			if post.Tok == token.SUB_ASSIGN && len(post.Lhs) == 1 {
				return lookupIdentVar(info, post.Lhs[0])
			}
		}
		return nil
	}

	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			stmt, ok := n.(*ast.AssignStmt)
			if !ok || accTarget(info, stmt) == nil {
				return true
			}
			// Climb to the enclosing loops of the accumulation.
			for p := pm[ast.Node(stmt)]; p != nil; p = pm[p] {
				switch loop := p.(type) {
				case *ast.RangeStmt:
					if tv, ok := info.Types[loop.X]; ok {
						if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
							pass.Reportf(stmt.Pos(),
								"floating-point accumulation in map-range order: iteration order varies across runs, so the sum's last bits do too; fold over sorted keys instead")
							return true
						}
					}
				case *ast.ForStmt:
					dv := descLoopVar(loop)
					if dv == nil {
						continue
					}
					// Does the accumulation index AllGather-derived data by
					// the descending loop variable?
					bad := false
					ast.Inspect(stmt.Rhs[0], func(m ast.Node) bool {
						ix, ok := m.(*ast.IndexExpr)
						if !ok || bad {
							return !bad
						}
						base := lookupIdentVar(info, ix.X)
						if base == nil || !gatherDefined(info, idx, base) {
							return true
						}
						usesLoopVar := false
						ast.Inspect(ix.Index, func(k ast.Node) bool {
							if id, ok := k.(*ast.Ident); ok && lookupVar(info, id) == dv {
								usesLoopVar = true
							}
							return !usesLoopVar
						})
						if usesLoopVar {
							bad = true
						}
						return !bad
					})
					if bad {
						pass.Reportf(stmt.Pos(),
							"manual fold over AllGather contributions in descending order bypasses the rank-order reduction contract; fold ranks 0..P-1 ascending (or use AllReduce)")
						return true
					}
				}
			}
			return true
		})
	}
	return nil
}
