// Package core implements the paper's contribution: the parallel
// threshold-based incomplete LU factorization (PILUT) and its ILUT*
// variant for distributed-memory machines, together with the parallel
// forward/backward substitutions used to apply the preconditioner.
//
// The algorithm follows §4–§5 of the paper:
//
//  1. The matrix graph is partitioned across processors (see
//     internal/partition); rows whose neighbours are all local are
//     *interior*, the rest are *interface*.
//  2. Phase 1: each processor ILUT-factors its interior rows independently
//     and eliminates the interior unknowns from its interface rows, forming
//     its piece of the global reduced matrix A^I.
//  3. Phase 2: the interface rows are factored level by level. Each level
//     computes a maximal independent set of the *current* reduced matrix
//     (whose structure includes all fill so far — the paper's Figure 1(b)
//     pitfall), factors its rows concurrently, exchanges the needed U rows,
//     and eliminates the level's unknowns from the remaining rows
//     (Algorithm 2). ILUT* caps the reduced rows at K·M entries.
//  4. Triangular solves reuse the level structure: interior unknowns are
//     solved locally; interface unknowns level by level with one
//     value exchange per level (q implicit synchronization points).
//
// All indices during factorization live in a combined space of size 2n:
// already-factored unknowns use their position in the elimination order
// ("new id" < n), not-yet-factored unknowns use n + original id. This lets
// the elimination kernels work with contiguous pivot ranges while the
// final order of interface unknowns is still being discovered.
//
// Prepare is the front end, step 1 and the classification from one
// graph. The preprocessing is split into a pattern-only Symbolic phase
// (Analyze) and a cheap value binding (Symbolic.Bind); Factor composes
// them with the numeric kernels, while Refactor reuses a previous
// Symbolic across a matrix sequence whose values evolve on a fixed
// sparsity pattern. See DESIGN.md §14 for what is — and deliberately is
// not — part of the symbolic artifact.
package core

import (
	"fmt"

	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/sparse"
)

// Symbolic is the pattern-only preprocessing of a parallel factorization:
// everything derivable from the sparsity structure and the layout alone —
// the row classification (interior vs interface), the static numbering of
// interior unknowns, and scratch sizing. It contains no matrix values, so
// it can be cached under a sparse.PatternFingerprint key and reused across
// every member of a matrix sequence that shares the pattern.
//
// Deliberately NOT part of the symbolic artifact: the Phase-2 MIS level
// schedule. The reduced matrix A^I whose adjacency drives the independent
// sets is produced by threshold dropping (τ·‖a_i‖₂), which depends on the
// values; freezing a level schedule computed from one value set would
// change the factors of the next one. Refactor therefore recomputes the
// schedule — it is interleaved with the elimination anyway — keeping
// Analyze+Refactor bitwise identical to one-shot Factor.
type Symbolic struct {
	Lay *dist.Layout

	Interior    []bool // per global row
	IntBase     []int  // per processor: first new id of its interior block
	NIntLocal   []int  // per processor: interior count
	TotInterior int
	NInterface  int
	// NewOfInterior maps a global row to its new id if interior, else −1.
	NewOfInterior []int

	// PatternKey is sparse.PatternFingerprint of the analyzed matrix: the
	// cache key under which this artifact may be reused, and the guard
	// Bind checks candidates against.
	PatternKey string
	// NNZ of the analyzed pattern; a cheap first-line Bind sanity check.
	NNZ int
	// ScratchCells is the per-processor pooled scratch size the numeric
	// phase will request (the combined 2n index space).
	ScratchCells int

	// The analyzed structure itself (aliases into the analyzed matrix, not
	// copies): Bind compares candidates against these exactly, which is a
	// linear scan — far cheaper than re-hashing — and catches any caller
	// that tries to bind a drifted pattern.
	rowPtr []int
	cols   []int
}

// Plan binds a Symbolic analysis to one concrete value set: the matrix
// itself plus the value-derived row norms the threshold dropping uses.
// Build it once per value set; every processor reads it.
type Plan struct {
	*Symbolic
	A *sparse.CSR

	// RowTau caches t-relative norms: RowTau[i] = ‖a_i‖₂ of the original
	// matrix, so every level uses the paper's "original row norm" rule.
	RowTau []float64
}

// Prepare is the front end, the paper's steps 1–2 from a matrix to a
// bound plan: it builds a's graph once, partitions it into p parts with
// the multilevel k-way partitioner under seed, lays the rows out,
// classifies them on that same graph and binds a's values. Analyze and
// Bind (or NewPlan) are for a layout the caller chose some other way.
func Prepare(a *sparse.CSR, p int, seed int64) (*Plan, error) {
	if a.N != a.M {
		return nil, fmt.Errorf("core: matrix must be square")
	}
	if p < 1 {
		return nil, fmt.Errorf("core: %d processors, want at least 1", p)
	}
	g := graph.FromMatrix(a)
	lay, err := dist.NewLayout(a.N, p, partition.KWay(g, p, partition.Options{Seed: seed}))
	if err != nil {
		return nil, err
	}
	return analyze(a, g, lay).Bind(a)
}

// Analyze runs the symbolic phase: it classifies rows against the layout
// using the symmetrized structure (a row is interface if it is coupled to
// a remote row in either direction) and numbers the interior unknowns
// processor by processor. The result depends only on the sparsity pattern
// and the layout — values never enter.
func Analyze(a *sparse.CSR, lay *dist.Layout) (*Symbolic, error) {
	if a.N != a.M {
		return nil, fmt.Errorf("core: matrix must be square")
	}
	if a.N != lay.N {
		return nil, fmt.Errorf("core: matrix size %d does not match layout size %d", a.N, lay.N)
	}
	return analyze(a, graph.FromMatrix(a), lay), nil
}

// analyze is Analyze on a's graph g, for a square a of lay's size.
func analyze(a *sparse.CSR, g *graph.Graph, lay *dist.Layout) *Symbolic {
	boundary := g.Boundary(lay.PartOf)

	s := &Symbolic{
		Lay:          lay,
		PatternKey:   sparse.PatternFingerprint(a),
		NNZ:          a.NNZ(),
		ScratchCells: 2 * a.N,
		rowPtr:       a.RowPtr,
		cols:         a.Cols,
	}
	s.Interior = make([]bool, a.N)
	for i := range s.Interior {
		s.Interior[i] = !boundary[i]
	}
	s.IntBase = make([]int, lay.P)
	s.NIntLocal = make([]int, lay.P)
	s.NewOfInterior = make([]int, a.N)
	for i := range s.NewOfInterior {
		s.NewOfInterior[i] = -1
	}
	base := 0
	for q := 0; q < lay.P; q++ {
		s.IntBase[q] = base
		for _, i := range lay.Rows[q] { // increasing global order
			if s.Interior[i] {
				s.NewOfInterior[i] = base
				base++
			}
		}
		s.NIntLocal[q] = base - s.IntBase[q]
	}
	s.TotInterior = base
	s.NInterface = a.N - base
	return s
}

// Bind attaches a concrete value set to the analysis, producing the Plan
// the numeric kernels read. The matrix must share the analyzed sparsity
// pattern — a changed pattern invalidates the classification and the
// interior numbering, so Bind refuses it and the caller must re-Analyze.
// Binding is the only per-value-set preprocessing: one pass computing the
// row 2-norms the threshold dropping is relative to.
func (s *Symbolic) Bind(a *sparse.CSR) (*Plan, error) {
	if a.N != s.Lay.N || a.M != s.Lay.N || a.NNZ() != s.NNZ {
		return nil, fmt.Errorf("core: matrix %dx%d/%d entries does not match analyzed pattern %d/%d entries",
			a.N, a.M, a.NNZ(), s.Lay.N, s.NNZ)
	}
	if !s.samePattern(a) {
		return nil, fmt.Errorf("core: matrix pattern does not match analyzed pattern %s — re-run Analyze", s.PatternKey)
	}
	p := &Plan{Symbolic: s, A: a}
	p.RowTau = make([]float64, a.N)
	for i := 0; i < a.N; i++ {
		p.RowTau[i] = a.RowNorm2(i)
	}
	return p, nil
}

// samePattern reports whether a's structure equals the analyzed one,
// with a pointer fast path for the common case of binding the very
// matrix that was analyzed.
func (s *Symbolic) samePattern(a *sparse.CSR) bool {
	if len(a.RowPtr) != len(s.rowPtr) || len(a.Cols) != len(s.cols) {
		return false
	}
	if (len(a.RowPtr) == 0 || &a.RowPtr[0] == &s.rowPtr[0]) &&
		(len(a.Cols) == 0 || &a.Cols[0] == &s.cols[0]) {
		return true
	}
	for i, p := range s.rowPtr {
		if a.RowPtr[i] != p {
			return false
		}
	}
	for i, c := range s.cols {
		if a.Cols[i] != c {
			return false
		}
	}
	return true
}

// NewPlan is the one-shot composition Analyze + Bind for a layout the
// caller chose; Prepare is the entry point that partitions as well.
func NewPlan(a *sparse.CSR, lay *dist.Layout) (*Plan, error) {
	s, err := Analyze(a, lay)
	if err != nil {
		return nil, err
	}
	return s.Bind(a)
}

// InteriorFraction reports the share of rows that are interior — the
// quantity a good partition maximizes.
func (s *Symbolic) InteriorFraction() float64 {
	return float64(s.TotInterior) / float64(s.Lay.N)
}

// SizeBytes estimates the heap footprint of the artifact for cache
// accounting. The layout and the aliased rowPtr/cols are counted too: a
// cached Symbolic keeps them alive, and they are reused as a unit.
func (s *Symbolic) SizeBytes() int64 {
	b := s.classBytes() + 8*int64(len(s.rowPtr)+len(s.cols))
	if s.Lay != nil {
		b += s.Lay.SizeBytes()
	}
	return b
}

// classBytes is the footprint of the classification arrays alone.
func (s *Symbolic) classBytes() int64 {
	b := int64(len(s.Interior)) // bools
	b += 8 * int64(len(s.IntBase)+len(s.NIntLocal)+len(s.NewOfInterior))
	return b + int64(len(s.PatternKey))
}

// SizeBytes estimates what the plan keeps alive beyond its layout, which
// every plan of one partition shares: the matrix, the row norms and the
// classification arrays (the pattern they alias counted once, with the
// matrix).
func (p *Plan) SizeBytes() int64 {
	return p.A.SizeBytes() + 8*int64(len(p.RowTau)) + p.classBytes()
}
