package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
)

// This file is the framework's interprocedural layer: per-function fact
// summaries ("ranges over a map", "reads the wall clock", "allocates",
// ...) computed bottom-up over the in-module call graph. The Loader
// type-checks imports before importers, so facts for a package's
// dependencies are always in the store by the time the package itself is
// summarized — the classic x/tools facts discipline ("exported across
// packages in dependency order") without the serialization machinery,
// because the whole module is checked in one process.
//
// Analyzers use the store to flag violations reached *transitively* from
// an entry point: the determinism analyzer reports a map iteration three
// calls deep under a pcomm.Comm, at the call site that drags it in, with
// the full chain in the message.

// Fact is one propagated property of a function.
type Fact uint8

const (
	// FactRangesMap: the function (or a callee) iterates over a map, whose
	// order varies run to run.
	FactRangesMap Fact = iota
	// FactWallClock: reads the wall clock (time.Now / Since / Until).
	FactWallClock
	// FactGlobalRand: draws from the unseeded global math/rand source.
	FactGlobalRand
	// FactSelect: executes a select statement — a nondeterministic choice
	// over communication readiness.
	FactSelect
	// FactSpawnsGoroutine: launches a goroutine.
	FactSpawnsGoroutine
	// FactAllocates: allocates on a path through the function (make, new,
	// append, slice/map composite literal, closure creation).
	FactAllocates

	numFacts
)

// String names the fact as a predicate, for diagnostics.
func (f Fact) String() string {
	switch f {
	case FactRangesMap:
		return "ranges over a map"
	case FactWallClock:
		return "reads the wall clock"
	case FactGlobalRand:
		return "uses the global math/rand source"
	case FactSelect:
		return "executes a select statement"
	case FactSpawnsGoroutine:
		return "launches a goroutine"
	case FactAllocates:
		return "allocates"
	}
	return fmt.Sprintf("fact(%d)", int(f))
}

// DeterminismFacts are the facts that make a function unsafe to run under
// an SPMD communicator: any of them can change the order (or the values)
// of floating-point operations between two runs or two backends.
var DeterminismFacts = []Fact{FactRangesMap, FactWallClock, FactGlobalRand, FactSelect, FactSpawnsGoroutine}

// Origin records why a function carries a fact: either a primitive
// occurrence in its own body (Callee nil, Pos the occurrence), or
// inheritance through a call (Callee the called function, Pos the call
// site in this function's body).
type Origin struct {
	Pos    token.Pos
	Callee *types.Func // nil for a direct occurrence
}

// FuncFacts is the summary of one function.
type FuncFacts struct {
	origins [numFacts]*Origin
	// Hot marks a //pilut:hotpath doc-comment annotation. It is a marker,
	// not a propagated fact: the hotalloc analyzer audits hot functions at
	// their definition and therefore treats calls to them as opaque.
	Hot bool
}

// Has reports whether the function carries f.
func (ff *FuncFacts) Has(f Fact) bool { return ff != nil && ff.origins[f] != nil }

// Origin returns the provenance of f, or nil.
func (ff *FuncFacts) Origin(f Fact) *Origin {
	if ff == nil {
		return nil
	}
	return ff.origins[f]
}

// FactStore holds the summaries of every summarized module-local
// function, keyed by the *types.Func object of its declaration (generic
// functions by their Origin object).
type FactStore struct {
	funcs map[*types.Func]*FuncFacts
	pkgs  map[string]bool // package paths already summarized
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore {
	return &FactStore{funcs: make(map[*types.Func]*FuncFacts), pkgs: make(map[string]bool)}
}

// Lookup returns fn's summary, or nil when fn was not summarized (a
// standard-library function, an interface method, or a function of an
// opaque package).
func (s *FactStore) Lookup(fn *types.Func) *FuncFacts {
	if s == nil || fn == nil {
		return nil
	}
	return s.funcs[fn.Origin()]
}

// factOpaque reports whether facts must not propagate out of pkg: the
// messaging layer itself (pcomm, its engine and backends, fault), the
// trace recorder and the service supervisor establish the invariants the
// analyzers check elsewhere — a select inside realcomm's mailbox or a
// wall-clock read inside the service's latency histogram is by design.
func factOpaque(path string) bool {
	return exemptPkg(path) ||
		path == "repro/internal/trace" ||
		path == "repro/internal/service"
}

// Chain renders the provenance of fact f on fn as a human-readable call
// chain, e.g. "calls mis.Shuffle, which calls graph.Visit, which ranges
// over a map (graph.go:41)". The position of the ultimate primitive
// occurrence is included file-base-relative.
func (s *FactStore) Chain(fset *token.FileSet, fn *types.Func, f Fact) string {
	var b strings.Builder
	for depth := 0; depth < 32; depth++ {
		ff := s.Lookup(fn)
		o := ff.Origin(f)
		if o == nil {
			b.WriteString(f.String())
			return b.String()
		}
		if o.Callee == nil {
			pos := fset.Position(o.Pos)
			fmt.Fprintf(&b, "%s (%s:%d)", f, filepath.Base(pos.Filename), pos.Line)
			return b.String()
		}
		fmt.Fprintf(&b, "calls %s, which ", funcLabel(o.Callee))
		fn = o.Callee
	}
	b.WriteString(f.String())
	return b.String()
}

// funcLabel renders fn as pkg.Name or pkg.(Recv).Name for diagnostics.
func funcLabel(fn *types.Func) string {
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Name() + "."
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return pkg + named.Obj().Name() + "." + fn.Name()
		}
	}
	return pkg + fn.Name()
}

// hotpathMarker is the doc-comment directive marking a function whose
// allocations the hotalloc analyzer ratchets.
const hotpathMarker = "//pilut:hotpath"

func isHotpath(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.HasPrefix(strings.TrimSpace(c.Text), hotpathMarker) {
			return true
		}
	}
	return false
}

// unparen strips parentheses.
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// calleeOf resolves a call expression to the *types.Func it statically
// invokes, or nil for builtins, conversions, function-typed variables and
// dynamic interface dispatch it cannot see through. Generic functions
// resolve to their origin object.
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := unparen(call.Fun)
	switch f := fun.(type) {
	case *ast.IndexExpr:
		fun = unparen(f.X)
	case *ast.IndexListExpr:
		fun = unparen(f.X)
	}
	var obj types.Object
	switch f := fun.(type) {
	case *ast.Ident:
		obj = info.Uses[f]
	case *ast.SelectorExpr:
		obj = info.Uses[f.Sel]
	default:
		return nil
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	return fn.Origin()
}

// stdlibFact maps a handful of standard-library functions to the fact
// calling them implies. Only package-level functions are listed: a
// *rand.Rand built from an explicit seed is deterministic and fine.
func stdlibFact(fn *types.Func) (Fact, bool) {
	if fn.Pkg() == nil {
		return 0, false
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return 0, false
	}
	switch fn.Pkg().Path() {
	case "time":
		switch fn.Name() {
		case "Now", "Since", "Until":
			return FactWallClock, true
		}
	case "math/rand", "math/rand/v2":
		// Only the package-level draws touch the shared global source;
		// rand.New / rand.NewSource build explicitly-seeded generators,
		// which is exactly the deterministic alternative.
		switch fn.Name() {
		case "New", "NewSource", "NewZipf", "NewChaCha8", "NewPCG":
			return 0, false
		}
		return FactGlobalRand, true
	}
	return 0, false
}

// allocExpr classifies e as an allocation primitive and returns a short
// description, or "". Composite literals of slice or map type allocate;
// struct literals generally live on the stack and are not counted unless
// their address is taken (the &T{...} case reaches here as the UnaryExpr
// handled by the caller walking into its operand CompositeLit — a plain
// value struct literal returns "").
func allocExpr(info *types.Info, e ast.Expr) string {
	switch e := e.(type) {
	case *ast.CallExpr:
		if id, ok := unparen(e.Fun).(*ast.Ident); ok {
			if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
				switch id.Name {
				case "make":
					return "make"
				case "new":
					return "new"
				case "append":
					return "append (may grow the backing array)"
				}
			}
		}
	case *ast.CompositeLit:
		tv, ok := info.Types[e]
		if !ok {
			return ""
		}
		switch tv.Type.Underlying().(type) {
		case *types.Slice:
			return "slice literal"
		case *types.Map:
			return "map literal"
		}
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			if _, ok := unparen(e.X).(*ast.CompositeLit); ok {
				return "&composite literal"
			}
		}
	case *ast.FuncLit:
		return "closure creation"
	}
	return ""
}

// Summarize computes the fact summaries of one type-checked package and
// adds them to the store. Facts of imported module-local packages must
// already be present (the Loader guarantees this by summarizing in
// dependency order). Calls into opaque packages, the standard library,
// interface methods and function values contribute nothing — the layer is
// deliberately a static under-approximation of the dynamic call graph.
// Summarize may run more than once for one import path (the Loader
// re-checks a package when it is both imported and directly analyzed,
// producing distinct types.Func objects); summaries are keyed by object,
// so the runs coexist and lookups through either object resolve.
func (s *FactStore) Summarize(path string, files []*ast.File, info *types.Info) {
	s.pkgs[path] = true
	if factOpaque(path) {
		return
	}

	type edge struct {
		callee *types.Func
		pos    token.Pos
	}
	type fnData struct {
		fn    *types.Func
		facts *FuncFacts
		calls []edge // local (same-package) call edges, for the fixpoint
	}
	var decls []*fnData
	byFn := make(map[*types.Func]*fnData)

	for _, f := range files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			fn = fn.Origin()
			data := &fnData{fn: fn, facts: &FuncFacts{Hot: isHotpath(fd.Doc)}}
			decls = append(decls, data)
			byFn[fn] = data
			s.funcs[fn] = data.facts

			setDirect := func(fact Fact, pos token.Pos) {
				if data.facts.origins[fact] == nil {
					data.facts.origins[fact] = &Origin{Pos: pos}
				}
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.RangeStmt:
					if tv, ok := info.Types[n.X]; ok {
						if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
							setDirect(FactRangesMap, n.Range)
						}
					}
				case *ast.SelectStmt:
					setDirect(FactSelect, n.Select)
				case *ast.GoStmt:
					setDirect(FactSpawnsGoroutine, n.Go)
				case *ast.CallExpr:
					callee := calleeOf(info, n)
					if callee == nil {
						break
					}
					if fact, ok := stdlibFact(callee); ok {
						setDirect(fact, n.Pos())
						break
					}
					cp := callee.Pkg()
					if cp == nil || factOpaque(cp.Path()) {
						break
					}
					if cp.Path() == path {
						// Same package: defer to the fixpoint (the callee's
						// own summary may not exist yet, and recursion needs
						// iteration anyway).
						data.calls = append(data.calls, edge{callee, n.Pos()})
						break
					}
					// Cross-package: the callee's summary, if it exists, is
					// final — imports are summarized before importers.
					if cff := s.Lookup(callee); cff != nil {
						for fact := Fact(0); fact < numFacts; fact++ {
							if cff.Has(fact) && data.facts.origins[fact] == nil {
								data.facts.origins[fact] = &Origin{Pos: n.Pos(), Callee: callee}
							}
						}
					}
				}
				if e, ok := n.(ast.Expr); ok {
					if desc := allocExpr(info, e); desc != "" {
						setDirect(FactAllocates, n.Pos())
					}
				}
				return true
			})
		}
	}

	// Propagate over same-package edges to a fixpoint (handles recursion
	// and any declaration order).
	for changed := true; changed; {
		changed = false
		for _, d := range decls {
			for _, e := range d.calls {
				cd, ok := byFn[e.callee]
				if !ok {
					continue
				}
				for fact := Fact(0); fact < numFacts; fact++ {
					if cd.facts.origins[fact] != nil && d.facts.origins[fact] == nil {
						d.facts.origins[fact] = &Origin{Pos: e.pos, Callee: e.callee}
						changed = true
					}
				}
			}
		}
	}
}
