package analysis

import (
	"go/ast"
	"go/types"
)

// SendAlias flags Send/AllGather payloads that may alias memory the
// sender retains. Co-located ranks pass references where a real
// distributed machine serializes onto the wire, so a sender that keeps a
// reference to a sent slice or map and later mutates it silently corrupts
// the receiver — the cardinal sin of a shared-address-space simulation of
// message passing.
//
// The check is a freshness heuristic, not an escape analysis: a payload
// is accepted when it is provably a value built for this send — a
// literal, a composite literal, the result of a function call (copy
// helpers, constructors, append to nil), or a local variable whose every
// definition is such a value. Everything else that can carry references
// (an indexing expression, a struct field, a parameter, a ranged element)
// is reported. Payloads of pure-scalar type are always fine.
var SendAlias = &Analyzer{
	Name: "sendalias",
	Doc:  "flag Send/AllGather payloads aliasing memory the sender retains",
	Run:  runSendAlias,
}

// payloadArg maps collective/point-to-point methods to the index of
// their payload argument.
var payloadArg = map[string]int{
	"Send":      2,
	"AllGather": 0,
}

// pcommPayloadArg maps pcomm package-level functions to the index of
// their payload argument (index 0 is the communicator).
var pcommPayloadArg = map[string]int{
	"SendSlice":       3,
	"AllGatherSlice":  1,
	"AllGatherInts":   1,
	"AllGatherFloats": 1,
}

func runSendAlias(pass *Pass) error {
	if exemptPkg(pass.Pkg.Path()) {
		// The pcomm packages are the messaging layer itself:
		// their wrappers forward caller-owned buffers by design, and the
		// convention is enforced at their call sites.
		return nil
	}
	idx := buildDefIndex(pass)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			name, ok := procMethod(pass.TypesInfo, call)
			argIdx, wanted := -1, false
			if ok {
				argIdx, wanted = payloadArg[name]
			} else if name, ok = pcommFunc(pass.TypesInfo, call); ok {
				argIdx, wanted = pcommPayloadArg[name]
			}
			if !wanted || len(call.Args) <= argIdx {
				return true
			}
			payload := call.Args[argIdx]
			tv, ok := pass.TypesInfo.Types[payload]
			if !ok || !containsRefs(tv.Type) {
				return true
			}
			if !fresh(pass.TypesInfo, idx, payload, make(map[*types.Var]bool)) {
				pass.Reportf(payload.Pos(),
					"payload of %s may alias memory the sender retains; send a freshly built buffer or copy it first (pcomm.CopyInts/CopyFloats/CopyBools)", name)
			}
			return true
		})
	}
	return nil
}

// fresh reports whether e provably evaluates to memory built for this
// use. visiting breaks definition cycles (x = append(x, ...)) — a cycle
// is optimistically fresh; any non-fresh definition elsewhere still
// poisons the variable.
func fresh(info *types.Info, idx *defIndex, e ast.Expr, visiting map[*types.Var]bool) bool {
	switch e := e.(type) {
	case *ast.BasicLit:
		return true
	case *ast.CompositeLit:
		return true
	case *ast.ParenExpr:
		return fresh(info, idx, e.X, visiting)
	case *ast.UnaryExpr:
		// &T{...} is a fresh allocation; &x aliases x.
		if _, ok := e.X.(*ast.CompositeLit); ok {
			return true
		}
		return false
	case *ast.CallExpr:
		// A received payload belongs to this processor but was built by
		// the sender; forwarding it verbatim re-shares that memory.
		if m, ok := procMethod(info, e); ok && m == "Recv" {
			return false
		}
		if m, ok := pcommFunc(info, e); ok && m == "RecvSlice" {
			return false
		}
		if tv, ok := info.Types[e.Fun]; ok && tv.IsType() {
			// Conversion: slice-to-slice conversions do not copy.
			if len(e.Args) == 1 {
				return fresh(info, idx, e.Args[0], visiting)
			}
			return false
		}
		if id, ok := e.Fun.(*ast.Ident); ok && info.Uses[id] != nil {
			if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
				switch id.Name {
				case "make", "new":
					return true
				case "append":
					// append can return its first argument's array.
					return len(e.Args) > 0 && fresh(info, idx, e.Args[0], visiting)
				default:
					return false
				}
			}
		}
		// Any other call: constructors and copy helpers return fresh
		// memory by convention.
		return true
	case *ast.Ident:
		if e.Name == "nil" {
			return true
		}
		v := lookupVar(info, e)
		if v == nil {
			return false
		}
		if idx.params[v] {
			return false
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
				// zero value: nil slice/map, fresh by construction
			case defExpr:
				if !fresh(info, idx, d.rhs, visiting) {
					return false
				}
			default: // range element, compound assignment
				return false
			}
		}
		return true
	}
	return false
}
