package analysis

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strings"
)

// BytesArg flags Send/SendRaw/AllGatherRaw calls whose modelled byte
// count is a raw literal or hand-rolled arithmetic instead of a BytesOf*
// helper (SendSlice and AllGatherSlice size their payloads themselves,
// with BytesOf[T]). The byte count drives the LogP cost model behind every number in the
// EXPERIMENTS tables; a raw "8*len(xs)" that drifts from the payload's
// real wire size silently skews them, and the drift is invisible at run
// time because nothing functional depends on it.
//
// Accepted forms: a call to any function whose name starts with BytesOf
// (pcomm.BytesOf[T], pcomm.BytesOfInts, ...), the constant 0 (a pure
// control message), sums of accepted forms, and variables/parameters
// whose every definition is an accepted form.
var BytesArg = &Analyzer{
	Name: "bytesarg",
	Doc:  "flag raw byte counts at Send/SendRaw/AllGatherRaw sites",
	Run:  runBytesArg,
}

// bytesArgIdx maps methods to the index of their modelled-bytes argument.
var bytesArgIdx = map[string]int{
	"Send":         3,
	"SendRaw":      3,
	"AllGatherRaw": 1,
}

func runBytesArg(pass *Pass) error {
	idx := buildDefIndex(pass)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			name, ok := procMethod(pass.TypesInfo, call)
			if !ok {
				return true
			}
			argIdx, ok := bytesArgIdx[name]
			if !ok || len(call.Args) <= argIdx {
				return true
			}
			arg := call.Args[argIdx]
			if !bytesAcceptable(pass.TypesInfo, idx, arg, make(map[*types.Var]bool)) {
				pass.Reportf(arg.Pos(),
					"modelled byte count of %s should come from a BytesOf* helper (or 0 for a control message); raw counts silently skew the LogP cost model", name)
			}
			return true
		})
	}
	return nil
}

func bytesAcceptable(info *types.Info, idx *defIndex, e ast.Expr, visiting map[*types.Var]bool) bool {
	// Constant zero in any spelling.
	if tv, ok := info.Types[e]; ok && tv.Value != nil {
		if v, exact := constant.Int64Val(tv.Value); exact && v == 0 {
			return true
		}
	}
	switch e := e.(type) {
	case *ast.ParenExpr:
		return bytesAcceptable(info, idx, e.X, visiting)
	case *ast.BinaryExpr:
		if e.Op.String() == "+" {
			return bytesAcceptable(info, idx, e.X, visiting) && bytesAcceptable(info, idx, e.Y, visiting)
		}
		return false
	case *ast.CallExpr:
		fun := e.Fun
		// Unwrap explicit generic instantiation: pcomm.BytesOf[URow](n).
		switch f := fun.(type) {
		case *ast.IndexExpr:
			fun = f.X
		case *ast.IndexListExpr:
			fun = f.X
		}
		var name string
		switch fun := fun.(type) {
		case *ast.Ident:
			name = fun.Name
		case *ast.SelectorExpr:
			name = fun.Sel.Name
		}
		return strings.HasPrefix(name, "BytesOf")
	case *ast.Ident:
		v := lookupVar(info, e)
		if v == nil {
			return false
		}
		if idx.params[v] {
			// A forwarded parameter: the obligation moves to the caller of
			// the enclosing helper.
			return true
		}
		if visiting[v] {
			return true
		}
		defs := idx.defs[v]
		if len(defs) == 0 {
			return false
		}
		visiting[v] = true
		defer delete(visiting, v)
		for _, d := range defs {
			switch d.kind {
			case defZero:
				// starts at 0
			case defExpr, defCompound:
				if !bytesAcceptable(info, idx, d.rhs, visiting) {
					return false
				}
			default:
				return false
			}
		}
		return true
	}
	return false
}
