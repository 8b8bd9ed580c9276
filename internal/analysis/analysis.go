// Package analysis is a static-analysis suite for the communicator
// layer's SPMD invariants: every processor must reach collectives in the
// same order, all inter-processor data flow must go through Send/Recv
// with by-value (freshly copied) payloads, communicator handles are
// goroutine-confined, and modelled byte counts must come from BytesOf*
// helpers so the LogP cost model stays honest.
//
// The framework mirrors the golang.org/x/tools/go/analysis API shape
// (Analyzer, Pass, Diagnostic) but is built on the standard library only
// — go/parser + go/types with a GOROOT/module source importer — because
// this module carries no external dependencies. Run the analyzers with
//
//	go run ./cmd/pilutlint ./...
//
// A finding can be suppressed with an inline comment on the same line or
// the line above:
//
//	//pilutlint:ok <analyzer> <reason>
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// PcommPath is the import path of the communicator-interface package,
// whose subpackages are the engine and its backends.
const PcommPath = "repro/internal/pcomm"

// EnginePath is the package of the one concrete communicator,
// *engine.Proc; algorithm code talks to pcomm.Comm instead.
const EnginePath = PcommPath + "/engine"

// FaultPath is the fault-injection layer: a pass-through Comm wrapper
// that forwards caller-owned payloads by design, like the backends.
const FaultPath = "repro/internal/fault"

// exemptPkg reports whether path is part of the messaging layer itself
// (the pcomm interface, the engine, a backend, fault injection), where
// the invariants are established rather than consumed.
func exemptPkg(path string) bool {
	return path == PcommPath || path == FaultPath || strings.HasPrefix(path, PcommPath+"/")
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Pass carries one type-checked package through an analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Facts holds interprocedural summaries for this package and every
	// module-local package it imports (nil when the loader predates the
	// facts layer, e.g. hand-built passes in tests).
	Facts *FactStore

	diags []Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Analyzer is one invariant checker.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// All returns the full suite in a stable order.
func All() []*Analyzer {
	return []*Analyzer{
		SendAlias, Collective, ProcEscape, BytesArg,
		Determinism, FloatFold, HotAlloc, ErrDrop,
	}
}

// Apply runs the analyzer over a loaded package and returns the findings
// with //pilutlint:ok suppressions already filtered out, sorted by
// position.
func (a *Analyzer) Apply(pkg *Package) ([]Diagnostic, error) {
	pass := &Pass{
		Analyzer:  a,
		Fset:      pkg.Fset,
		Files:     pkg.Files,
		Pkg:       pkg.Types,
		TypesInfo: pkg.Info,
		Facts:     pkg.Facts,
	}
	if err := a.Run(pass); err != nil {
		return nil, err
	}
	diags := suppress(a.Name, pkg, pass.diags)
	sort.Slice(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	return diags, nil
}

// suppress drops diagnostics covered by a "//pilutlint:ok <name>"
// comment: one on the diagnostic's own line or the line above, or one
// covering a call expression the diagnostic sits inside — a comment above
// a multi-line call suppresses diagnostics reported at the call's
// arguments on later lines, not just at its first line.
func suppress(name string, pkg *Package, diags []Diagnostic) []Diagnostic {
	if len(diags) == 0 {
		return diags
	}
	marker := "pilutlint:ok " + name
	// Lines (per file) carrying a suppression for this analyzer.
	ok := make(map[string]map[int]bool)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.Contains(c.Text, marker) {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				if ok[pos.Filename] == nil {
					ok[pos.Filename] = make(map[int]bool)
				}
				ok[pos.Filename][pos.Line] = true
				ok[pos.Filename][pos.Line+1] = true
			}
		}
	}
	okLine := func(pos token.Pos) bool {
		p := pkg.Fset.Position(pos)
		return ok[p.Filename][p.Line]
	}
	suppressed := make([]bool, len(diags))
	for i, d := range diags {
		suppressed[i] = okLine(d.Pos)
	}
	// A diagnostic anywhere inside a call expression is suppressed when
	// the suppression covers the call's first line: analyzers report at
	// argument positions (sendalias at the payload, bytesarg at the byte
	// count), which land on later lines when the call is wrapped.
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, isCall := n.(*ast.CallExpr)
			if !isCall || !okLine(call.Pos()) {
				return true
			}
			for i, d := range diags {
				if !suppressed[i] && call.Pos() <= d.Pos && d.Pos < call.End() {
					suppressed[i] = true
				}
			}
			return true
		})
	}
	var out []Diagnostic
	for i, d := range diags {
		if !suppressed[i] {
			out = append(out, d)
		}
	}
	return out
}

// ---- shared type helpers -------------------------------------------------

func isNamed(t types.Type, path, name string) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == path
}

// isComm reports whether t is a communicator handle: anything whose
// method set satisfies pcomm.Comm — the interface itself, interfaces
// embedding it, the engine's concrete handle (*engine.Proc), wrappers
// that embed one (*netcomm.Proc, fault's). The test is
// structural so a new or moved handle type cannot fall out of coverage
// the way a list of names would let it.
func isComm(t types.Type) bool {
	comm := commInterface(t)
	if comm == nil {
		return false
	}
	if types.Implements(t, comm) {
		return true
	}
	// A handle held by value (engine.Proc) has the methods on its pointer.
	_, isPtr := t.(*types.Pointer)
	return !isPtr && !types.IsInterface(t) && types.Implements(types.NewPointer(t), comm)
}

// commInterface finds pcomm.Comm as t's defining package sees it. A type
// whose methods mention pcomm.ReduceOp must come from pcomm or a package
// importing it directly, so no deeper search is needed.
func commInterface(t types.Type) *types.Interface {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return nil
	}
	pkgs := append([]*types.Package{named.Obj().Pkg()}, named.Obj().Pkg().Imports()...)
	for _, pkg := range pkgs {
		if pkg.Path() != PcommPath {
			continue
		}
		if obj := pkg.Scope().Lookup("Comm"); obj != nil {
			iface, _ := obj.Type().Underlying().(*types.Interface)
			return iface
		}
	}
	return nil
}

// commLabel names t's communicator flavor for diagnostics: the engine's
// handle by name, anything else by the interface it satisfies.
func commLabel(t types.Type) string {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if isNamed(t, EnginePath, "Proc") {
		return "*engine.Proc"
	}
	return "pcomm.Comm"
}

// procMethod returns the method name if call is a method call on a
// communicator receiver (p.Send, p.Barrier, ... on *engine.Proc or
// pcomm.Comm).
func procMethod(info *types.Info, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	tv, ok := info.Types[sel.X]
	if !ok {
		return "", false
	}
	if isComm(tv.Type) {
		return sel.Sel.Name, true
	}
	return "", false
}

// pcommFunc returns the function name if call invokes a package-level
// function of the pcomm package (pcomm.AllGatherSlice, pcomm.SendSlice,
// ...), unwrapping explicit generic instantiation.
func pcommFunc(info *types.Info, call *ast.CallExpr) (string, bool) {
	fun := call.Fun
	switch f := fun.(type) {
	case *ast.IndexExpr:
		fun = f.X
	case *ast.IndexListExpr:
		fun = f.X
	}
	sel, ok := fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	obj := info.Uses[sel.Sel]
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != PcommPath {
		return "", false
	}
	return fn.Name(), true
}

// containsRefs reports whether values of t can alias other memory: a
// slice, map, pointer, channel or interface anywhere inside it. Scalars
// and pure-scalar structs are always safe to send.
func containsRefs(t types.Type) bool {
	return containsRefs1(t, make(map[types.Type]bool))
}

func containsRefs1(t types.Type, seen map[types.Type]bool) bool {
	if seen[t] {
		return false
	}
	seen[t] = true
	switch u := t.Underlying().(type) {
	case *types.Slice, *types.Map, *types.Pointer, *types.Chan, *types.Interface, *types.Signature:
		return true
	case *types.Basic:
		// Scalars and immutable strings are safe; an unsafe.Pointer (a
		// pcomm.RawSlice's data) points like any pointer.
		return u.Kind() == types.UnsafePointer
	case *types.Array:
		return containsRefs1(u.Elem(), seen)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if containsRefs1(u.Field(i).Type(), seen) {
				return true
			}
		}
	}
	return false
}

// parentMap records the enclosing node of every AST node in a file.
type parentMap map[ast.Node]ast.Node

func buildParents(files []*ast.File) parentMap {
	pm := make(parentMap)
	for _, f := range files {
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return false
			}
			if len(stack) > 0 {
				pm[n] = stack[len(stack)-1]
			}
			stack = append(stack, n)
			return true
		})
	}
	return pm
}

// enclosingFunc returns the innermost FuncDecl or FuncLit containing n.
func enclosingFunc(pm parentMap, n ast.Node) ast.Node {
	for p := pm[n]; p != nil; p = pm[p] {
		switch p.(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			return p
		}
	}
	return nil
}

// topLevelFunc returns the outermost FuncDecl containing n (climbing out
// of nested FuncLits), or nil at package scope.
func topLevelFunc(pm parentMap, n ast.Node) *ast.FuncDecl {
	var top *ast.FuncDecl
	for p := pm[n]; p != nil; p = pm[p] {
		if fd, ok := p.(*ast.FuncDecl); ok {
			top = fd
		}
	}
	return top
}
