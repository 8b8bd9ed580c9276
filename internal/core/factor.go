package core

import (
	"fmt"

	"repro/internal/ilu"
	"repro/internal/mis"
	"repro/internal/pcomm"
	"repro/internal/sparse"
	"repro/internal/trace"
)

// Message tags of the pivot push, a row's integers and floats (pushRows).
const (
	tagPivotCols = 9301
	tagPivotVals = 9305
)

// Options configure a parallel factorization.
type Options struct {
	// Params carries M (fill per row), Tau (threshold) and K: K > 0
	// selects ILUT*(M, Tau, K); K ≤ 0 selects plain parallel ILUT(M, Tau).
	Params ilu.Params
	// MISRounds bounds the Luby augmentation rounds per level (default 5,
	// the paper's choice).
	MISRounds int
	// Seed drives the independent-set randomness.
	Seed int64
	// MaxRepairRate, when positive, arms collective numerical-breakdown
	// detection at the end of Factor: if the global fraction of pivots
	// that needed floor repairs exceeds it, or any non-finite value
	// reached the factors, every processor panics with the same
	// *BreakdownError (the decision inputs are AllGathered integers, so
	// the check never perturbs a floating-point result). The service's
	// recovery ladder catches it through pcomm.Guard. Zero — the default
	// — disables the check.
	MaxRepairRate float64
	// Schur enables the paper's §7 future-work variant: before each
	// independent-set level, every processor factors — sequentially and
	// with no synchronization — the interface rows that currently couple
	// only to its own rows (a partition-extracted block of the reduced
	// matrix). Independent sets then handle only the genuinely coupled
	// remainder, shrinking q further.
	Schur bool
}

// LevelInfo describes one independent set in the elimination order.
type LevelInfo struct {
	Start int // first new id of the level
	Size  int // number of unknowns in the level (global)
}

// LevelStats records one phase-2 level as seen from one processor: the
// global level shape plus local work counters. The slice of LevelStats has
// the same length on every processor (the level loop is collective), so
// aggregating across processors with SummarizeLevels yields the global
// per-level picture the paper's Tables 2–4 are built from. Recording is a
// handful of integer stores per level and happens whether or not a trace
// recorder is attached.
type LevelStats struct {
	Start           int // first new id of the level (global)
	Size            int // global unknowns eliminated at the level
	PivotsLocal     int // pivots this processor factored
	RowsLocal       int // local unfactored rows entering the level
	ReducedNNZLocal int // local reduced-matrix entries entering the level
	DroppedLocal    int // local entries dropped during the level (all rules)
}

// Stats reports what the factorization did on one processor, plus the
// shared level structure.
type Stats struct {
	ILU           ilu.Stats
	NumLevels     int // q: independent sets used for the interface
	NInterface    int // global interface unknowns
	NInterior     int // local interior unknowns
	ReducedNNZ0   int // local reduced-matrix entries entering phase 2
	CopiedEntries int // reduced-matrix entries copied across levels

	// Levels holds one record per phase-2 independent-set level.
	Levels []LevelStats
	// Seconds per phase on this processor's clock (virtual on the
	// modelled backend, wall on the others): interior factorization (1a),
	// interior elimination from interface rows (1b), and the level-by-level
	// interface factorization (2). Phase 1 has no communication, so its two
	// figures are this processor's own work. Phase2Seconds is not: it runs
	// from the moment *this* processor leaves phase 1 to the end of its
	// last level, and the first level's collectives cannot complete before
	// the slowest processor arrives — so it contains the wait for every
	// slower phase 1. Per-processor maxima of the three therefore do not
	// add up to the factorization's time (a processor with a short phase 1
	// has a long phase 2); only one processor's own three figures do, to
	// its time at the end of phase 2.
	Phase1InteriorSeconds  float64
	Phase1InterfaceSeconds float64
	Phase2Seconds          float64
}

// ProcPrecond is one processor's piece of the distributed preconditioner:
// the L and U rows of its owned unknowns, each laid out flat for its
// triangular sweep with the neighbour-exchange plan that drives it.
type ProcPrecond struct {
	plan *Plan
	me   int

	owned  []int // global rows, increasing (== Lay.Rows[me])
	newOf  []int // final new id per owned row
	levels []LevelInfo

	fwd, bwd tri // L and U, see tri
	// wired reports that the sweeps' exchange plans exist: factor builds
	// them at its end, a piece from FromWire on its first application.
	wired bool

	// lanes are the solve buffers, one per right-hand side of the widest
	// application so far, reused across applications. Lane 0 always exists.
	lanes [][]float64

	Stats Stats
}

// Factor runs the two-phase parallel ILUT/ILUT* factorization from
// scratch-built preprocessing: it is the composition Analyze + Bind +
// numeric kernels, kept as the entry point for one-off factorizations.
// It is an SPMD collective: every processor of the machine must call it
// with the same plan and options. The returned piece belongs to the
// calling processor.
func Factor(p pcomm.Comm, plan *Plan, opt Options) *ProcPrecond {
	return Refactor(p, plan, opt)
}

// Refactor runs ONLY the numeric phase of the factorization: the
// value-dependent ILUT/Schur kernels against a prebuilt symbolic
// analysis. The plan is a Symbolic (pattern-only, typically reused
// across a matrix sequence) bound to the current value set via
// Symbolic.Bind — so "refactor for new values" is spelled
//
//	plan, err := sym.Bind(a2)        // cheap: row norms + pattern guard
//	pc := core.Refactor(p, plan, opt)
//
// The MIS level schedule is recomputed here, not read from the symbolic
// artifact: the reduced matrix's adjacency depends on threshold dropping
// and therefore on the values, and the schedule is interleaved with the
// elimination level by level. That choice is what keeps Refactor on a
// rebound plan bitwise identical to a one-shot Factor on the same
// values (see DESIGN.md §14). Like Factor it is an SPMD collective.
func Refactor(p pcomm.Comm, plan *Plan, opt Options) *ProcPrecond {
	return factor(p, plan, opt, thresholdRule)
}

// FactorILU0 is the parallel zero-fill factorization the paper contrasts
// PILUT with (§3, Figure 1(a), and reference [9]): because ILU(0) creates
// no fill, the reduced matrices' structure is known in advance, so the
// *entire* elimination schedule — every independent set of the interface —
// is computed before a single numeric operation. The numeric phase then
// runs the levels with only the pivot-row exchanges, no per-level
// scheduling synchronization. It is the same two-phase driver as Refactor
// under the static row rule.
//
// The result is a ProcPrecond with the same solve machinery as Factor;
// its factors have exactly the pattern of the permuted matrix.
func FactorILU0(p pcomm.Comm, plan *Plan, misRounds int, seed int64) *ProcPrecond {
	return factor(p, plan, Options{MISRounds: misRounds, Seed: seed}, staticRule)
}

// rowRule is how a row absorbs the pivots it references — the one thing
// that separates parallel ILUT from the ILU(0) it is contrasted with.
type rowRule int

const (
	// thresholdRule: eliminations create fill and the three dropping
	// rules prune it (Algorithm 2), so the reduced matrix's structure is
	// only known once the previous level has been eliminated.
	thresholdRule rowRule = iota
	// staticRule: every update is confined to positions the row already
	// has, nothing is dropped, and Options.Params is unused (its zero
	// value makes every pivot keep its whole row).
	staticRule
)

// scheduleAhead reports whether every interface level can be scheduled
// before any of them runs: true exactly when the rule cannot change the
// reduced matrix's structure (PAPER §3, Fig. 1(a)).
func (r rowRule) scheduleAhead() bool { return r == staticRule }

// driver is one processor's state across one factorization.
type driver struct {
	p    pcomm.Comm
	plan *Plan
	pc   *ProcPrecond
	w    WirePrecond // the factors in row form, laid out flat at the end
	opt  Options
	rule rowRule
	fs   *factorScratch // pooled; owns s, the MIS workspace and the id tables
	s    *ilu.Scratch
	st   *ilu.Stats

	flopsCharged float64

	// Interface state, by local index: the current reduced row of an
	// unfactored row (combined indices, all ≥ n), and my factored pivots
	// — value storage with a presence mask, so storing a pivot never
	// heap-escapes and &uF[li] stays valid for a level's pivot lookups.
	reduced []redRow
	uF      []ilu.URow
	uFSet   []bool
	nl      int // next unassigned elimination id

	// Per-level structures, allocated once and recycled each level: the
	// adjacency of the reduced matrix as one flat buffer plus offsets and
	// the id-translation buffer. The pivots visible at the running level —
	// mine and pushed — are in the scratch's dense tables: fs.idOf by
	// original id, fs.pivots by new id − levelStart.
	ownedIDs   []int
	adj        [][]int
	adjFlat    []int
	adjOff     []int
	tBuf       []int
	levelStart int
	pivotGet   func(int) *ilu.URow
	ownerOf    func(int) int
}

// levelHook, when set (by the exchange-plan tests), sees every MIS call's
// vertex list and exchange plan on every processor.
var levelHook func(p pcomm.Comm, verts []int, h *pcomm.Halo)

// levelPlan is one scheduled independent set: the MIS mask and exchange
// plan over the vertex list it was computed on, and the level's id range.
// The plan is the MIS workspace's, rebuilt by every call alike when the
// vertex list and adjacency stay (a schedule-ahead rule's levels).
type levelPlan struct {
	sel      []bool
	halo     *pcomm.Halo
	start    int // first new id of the level
	size     int // global
	myOffset int // first new id of my pivots
	mine     int
}

// factor is the two-phase driver (§4 of the paper) behind Refactor and
// FactorILU0.
func factor(p pcomm.Comm, plan *Plan, opt Options, rule rowRule) *ProcPrecond {
	if opt.MISRounds <= 0 {
		opt.MISRounds = mis.DefaultRounds
	}
	n := plan.A.N
	me := p.ID()

	pc := &ProcPrecond{
		plan:  plan,
		me:    me,
		owned: plan.Lay.Rows[me],
	}
	nLocal := len(pc.owned)
	pc.Stats.NInterface = plan.NInterface
	pc.Stats.NInterior = plan.NIntLocal[me]

	d := &driver{
		p: p, plan: plan, pc: pc, opt: opt, rule: rule, st: &pc.Stats.ILU,
		w: WirePrecond{
			Me:    me,
			NewOf: make([]int, nLocal),
			LCols: make([][]int, nLocal),
			LVals: make([][]float64, nLocal),
			UCols: make([][]int, nLocal),
			UVals: make([][]float64, nLocal),
			UDiag: make([]float64, nLocal),
		},
		reduced: make([]redRow, nLocal),
		uF:      make([]ilu.URow, nLocal),
		uFSet:   make([]bool, nLocal),
		nl:      plan.TotInterior,
	}
	d.pivotGet = func(k int) *ilu.URow { return d.fs.pivots[k-d.levelStart] }
	d.ownerOf = func(g int) int { return plan.Lay.PartOf[g] }
	// The scratch comes from the per-process pool: after the first few
	// factorizations every kernel call runs allocation-free, and the
	// factored rows themselves are carved from the scratch's output arena
	// (detached when the scratch is returned; layOut has copied them).
	d.fs = getScratch(n)
	d.s = d.fs.rows
	defer putScratch(d.fs)

	tr := p.Tracer()
	iface := d.phase1()
	tIface := p.Time()
	d.phase2(iface)
	d.charge()
	tPhase2 := p.Time()
	pc.Stats.Phase2Seconds = tPhase2 - tIface
	pc.Stats.NumLevels = len(d.w.Levels)

	d.renumber()
	pc.layOut(&d.w)
	pc.buildExchange(p)
	if opt.MaxRepairRate > 0 {
		pc.checkBreakdown(p, opt.MaxRepairRate)
	}
	p.Barrier()
	if tr.Enabled() {
		tr.Span("factor", "finalize", tPhase2, p.Time(),
			trace.I("levels", pc.Stats.NumLevels))
	}
	return pc
}

// factorInterior factors interior row i of a sequentially factored block
// whose earlier rows are the pivots [nl, i), under the driver's rule
// (phase 1a): its L part and its U row — everything at or after the
// diagonal in elimination order, i.e. combined indices ≥ i: diagonal,
// later interiors, interface columns — capped to M like the standard 2nd
// dropping rule (diagonal excluded from the cap).
func (d *driver) factorInterior(i int, cols []int, vals []float64, pivot func(int) *ilu.URow, nl int, tau float64,
) (lCols []int, lVals []float64, u ilu.URow) {
	par := d.opt.Params
	if d.rule == thresholdRule {
		return d.s.FactorInteriorRow(i, cols, vals, pivot, nl, tau, par.M, par.PivotPerturb, d.st)
	}
	lCols, lVals, rC, rV := d.s.EliminateRowStatic(i, cols, vals, nil, nil, pivot, nl, i, d.st)
	u, err := d.s.FactorPivotRow(i, rC, rV, tau, par.M, par.PivotPerturb, d.st)
	if err != nil {
		panic(err)
	}
	return lCols, lVals, u
}

// eliminateBlock removes the sequentially factored pivot block [nl, nl1)
// from interface row i under the driver's rule (phase 1b).
func (d *driver) eliminateBlock(i int, cols []int, vals []float64, pivot func(int) *ilu.URow,
	nl, nl1 int, tau float64, kcap int,
) (lCols []int, lVals []float64, redCols []int, redVals []float64) {
	if d.rule == staticRule {
		return d.s.EliminateRowStatic(i, cols, vals, nil, nil, pivot, nl, nl1, d.st)
	}
	return d.s.EliminateRowSeq(i, cols, vals, pivot, nl, nl1, tau, d.opt.Params.M, kcap, d.st)
}

// eliminateLevel removes the current independent-set level [nl, nl1) from
// row i under the driver's rule and merges the multipliers into the row's
// accumulated L part (phase 2).
func (d *driver) eliminateLevel(i int, cols []int, vals []float64, lCols []int, lVals []float64,
	nl, nl1 int, tau float64,
) (newLCols []int, newLVals []float64, redCols []int, redVals []float64) {
	if d.rule == staticRule {
		return d.s.EliminateRowStatic(i, cols, vals, lCols, lVals, d.pivotGet, nl, nl1, d.st)
	}
	par := d.opt.Params
	newLCols, newLVals, redCols, redVals = d.s.EliminateRow(i, cols, vals, lCols, lVals, d.pivotGet, nl, nl1, tau, par.M, par.K, d.st)
	// A threshold row is rebuilt, fill and all, at every level, and that
	// copying is charged as work; a static row keeps its positions, so
	// the model updates it in place.
	d.pc.Stats.CopiedEntries += len(redCols)
	return
}

// charge advances the virtual clock by the local work accumulated since
// the last charge; copied reduced-matrix entries count too (the paper
// identifies this copying as a main ILUT overhead). Charging at phase
// boundaries instead of one deferred lump does not change any arrival
// time — no communication happens between charges — but it makes the
// phase spans reflect modelled durations.
func (d *driver) charge() {
	pending := d.st.Flops + float64(d.pc.Stats.CopiedEntries) - d.flopsCharged
	if pending > 0 {
		d.p.Work(pending)
		d.flopsCharged += pending
	}
}

// phase1 factors my interior rows (1a) and eliminates the interior
// unknowns from my interface rows (1b). It returns the local indices of
// the interface rows, whose reduced rows now sit in d.reduced.
func (d *driver) phase1() (iface []int) {
	p, plan, pc, st := d.p, d.plan, d.pc, d.st
	par := d.opt.Params
	n := plan.A.N
	intBase := plan.IntBase[pc.me]
	nInt := plan.NIntLocal[pc.me]
	tr := p.Tracer()
	tStart := p.Time()

	// localU[nid-intBase] is the U row of interior pivot nid, kernel form.
	// A value slice, not []*URow: storing a pivot is a copy into
	// preallocated memory instead of a per-row heap escape, and the looked-
	// up pointers stay valid because the slice is never regrown.
	localU := make([]ilu.URow, nInt)
	localUSet := make([]bool, nInt)
	pivotLookup := func(k int) *ilu.URow {
		if !localUSet[k-intBase] {
			return nil
		}
		return &localU[k-intBase]
	}
	// encRow returns row g of A in the combined index space — interior
	// columns by new id, interface column j as n+j — sorted. The buffers
	// are reused: the kernels do not retain their inputs.
	encCols := make([]int, 0, 64)
	encVals := make([]float64, 0, 64)
	encRow := func(g int) ([]int, []float64) {
		cols, vals := plan.A.Row(g)
		encCols, encVals = encCols[:0], encVals[:0]
		for k, j := range cols {
			if nid := plan.NewOfInterior[j]; nid >= 0 {
				encCols = append(encCols, nid)
			} else {
				encCols = append(encCols, n+j)
			}
			encVals = append(encVals, vals[k])
		}
		sparse.SortRow(encCols, encVals)
		return encCols, encVals
	}

	for li, g := range pc.owned {
		if !plan.Interior[g] {
			continue
		}
		myNew := plan.NewOfInterior[g]
		d.w.NewOf[li] = myNew
		d.w.InteriorLocal = append(d.w.InteriorLocal, li)
		tau := par.Tau * plan.RowTau[g]
		ec, ev := encRow(g)
		// The interior block is sequential: the pivot range covers my
		// already-factored interiors.
		lC, lV, urow := d.factorInterior(myNew, ec, ev, pivotLookup, intBase, tau)
		localU[myNew-intBase] = urow
		localUSet[myNew-intBase] = true
		d.w.LCols[li], d.w.LVals[li] = lC, lV
		d.w.UCols[li], d.w.UVals[li] = urow.Cols, urow.Vals
		d.w.UDiag[li] = urow.Diag
	}
	// Phase 1 is embarrassingly parallel; account the local work and move
	// on — no synchronization is needed until the interface phase. The
	// static rule's phase 1 is charged in one piece after 1b instead:
	// Work(a) then Work(b) rounds differently from Work(a+b), and
	// TestParentDigestOracle pins both rules' modelled clocks to the bit.
	if d.rule == thresholdRule {
		d.charge()
	}
	tInterior := p.Time()
	pc.Stats.Phase1InteriorSeconds = tInterior - tStart
	if tr.Enabled() {
		tr.Span("factor", "phase1.interior", tStart, tInterior,
			trace.I("rows", nInt), trace.F("flops", st.Flops))
	}

	for li, g := range pc.owned {
		if plan.Interior[g] {
			continue
		}
		tau := par.Tau * plan.RowTau[g]
		ec, ev := encRow(g)
		lC, lV, rC, rV := d.eliminateBlock(n+g, ec, ev, pivotLookup, intBase, intBase+nInt, tau, par.K)
		d.w.LCols[li], d.w.LVals[li] = lC, lV
		d.reduced[li] = redRow{rC, rV}
		iface = append(iface, li)
		pc.Stats.ReducedNNZ0 += len(rC)
	}
	d.charge()
	tIface := p.Time()
	pc.Stats.Phase1InterfaceSeconds = tIface - tInterior
	if tr.Enabled() {
		tr.Span("factor", "phase1.interface-elim", tInterior, tIface,
			trace.I("rows", len(iface)), trace.I("reduced_nnz", pc.Stats.ReducedNNZ0))
	}
	return iface
}

// phase2 factors the interface rows level by level. Under the threshold
// rule each level is scheduled on the reduced matrix the previous level
// left behind, so scheduling and elimination interleave; a rule that can
// schedule ahead plans every level on the one structure there will ever
// be — a shrinking active mask over all interface rows — and then runs
// them with no scheduling communication in between.
func (d *driver) phase2(iface []int) {
	p := d.p
	if d.rule.scheduleAhead() {
		t0 := p.Time()
		d.buildAdjacency(iface)
		active := make([]bool, len(iface))
		for k := range active {
			active[k] = true
		}
		var plans []levelPlan
		for {
			lp, ok := d.scheduleLevel(active)
			if !ok {
				break
			}
			plans = append(plans, lp)
		}
		if tr := p.Tracer(); tr.Enabled() {
			tr.Span("factor", "phase2.schedule", t0, p.Time(), trace.I("levels", len(plans)))
		}
		for i := range plans {
			d.runLevel(iface, &plans[i], p.Time())
		}
		return
	}

	remaining := iface // local indices of unfactored interface rows
	for {
		d.charge()
		t0 := p.Time()
		if d.opt.Schur {
			var factored bool
			remaining, factored = d.schurBlockRound(remaining)
			if factored {
				continue
			}
		}
		d.buildAdjacency(remaining)
		lp, ok := d.scheduleLevel(nil)
		if !ok {
			return
		}
		d.runLevel(remaining, &lp, t0)
		// Drop the rows the level factored, in place.
		keep := remaining[:0]
		for _, li := range remaining {
			if !d.uFSet[li] {
				keep = append(keep, li)
			}
		}
		remaining = keep
	}
}

// buildAdjacency lays out the adjacency of the current reduced matrix
// over the rows verts (original ids, with all fill included — the paper's
// dynamic dependency structure) in the recycled flat buffer: neighbour
// lists are slices of adjFlat cut at the recorded offsets, so a level's
// adjacency costs no allocation once the buffers have grown to the
// high-water mark.
func (d *driver) buildAdjacency(verts []int) {
	n := d.plan.A.N
	d.ownedIDs = d.ownedIDs[:0]
	d.adjFlat = d.adjFlat[:0]
	d.adjOff = d.adjOff[:0]
	for _, li := range verts {
		g := d.pc.owned[li]
		d.ownedIDs = append(d.ownedIDs, g)
		d.adjOff = append(d.adjOff, len(d.adjFlat))
		for _, c := range d.reduced[li].cols {
			if o := c - n; o != g {
				d.adjFlat = append(d.adjFlat, o)
			}
		}
	}
	d.adjOff = append(d.adjOff, len(d.adjFlat))
	d.adj = d.adj[:0]
	for k := range verts {
		d.adj = append(d.adj, d.adjFlat[d.adjOff[k]:d.adjOff[k+1]:d.adjOff[k+1]])
	}
}

// scheduleLevel picks the next independent set among the active rows of
// the adjacency buildAdjacency laid out (nil = all of them), retires its
// members from the mask and assigns the level's id range. It reports
// false once no row is active anywhere. The MIS workspace does not retain
// the adjacency, and what it returns is the caller's.
func (d *driver) scheduleLevel(active []bool) (levelPlan, bool) {
	sel, globalActive := d.fs.mis.Plan(d.p, d.ownedIDs, d.adj, active, d.ownerOf,
		d.opt.MISRounds, d.opt.Seed+int64(len(d.w.Levels))*7919)
	if levelHook != nil {
		levelHook(d.p, d.ownedIDs, d.fs.mis.Halo())
	}
	if globalActive == 0 {
		return levelPlan{}, false
	}
	lp := levelPlan{sel: sel, halo: d.fs.mis.Halo(), start: d.nl}
	for k, s := range sel {
		if s {
			lp.mine++
			if active != nil {
				active[k] = false
			}
		}
	}
	lp.myOffset, lp.size = d.claimIDs(lp.mine)
	d.w.Levels = append(d.w.Levels, LevelInfo{Start: lp.start, Size: lp.size})
	return lp, true
}

// claimIDs assigns the next level's id range given how many of its
// unknowns are mine: members are ordered by (processor, local order), so
// a single counts exchange fixes every rank. It returns my first id and
// the level's global size, and advances d.nl past the level.
func (d *driver) claimIDs(mine int) (myOffset, size int) {
	counts := pcomm.AllGatherSlice(d.p, []int{mine})
	myOffset = d.nl
	for q := range counts {
		if q < d.pc.me {
			myOffset += counts[q][0]
		}
		size += counts[q][0]
	}
	d.nl += size
	return myOffset, size
}

// runLevel executes one scheduled level over verts, the rows lp was
// scheduled on: factor my pivots, push them along the MIS exchange plan,
// and eliminate the level from my other unfactored rows. t0 is where the
// level's trace span starts.
func (d *driver) runLevel(verts []int, lp *levelPlan, t0 float64) {
	p, plan, pc, st := d.p, d.plan, d.pc, d.st
	par := d.opt.Params
	n := plan.A.N
	nl, nl1 := lp.start, lp.start+lp.size
	droppedIn := st.Dropped
	rowsIn, nnzIn := 0, 0

	// Factor my pivots: only their U rows are created (independent rows
	// need no elimination), 2nd dropping rule applied. Ids go out in local
	// order, so members is already in ascending new id.
	fs := d.fs
	fs.clearIDs()
	if cap(fs.pivots) < lp.size {
		fs.pivots = make([]*ilu.URow, lp.size)
	}
	fs.pivots = fs.pivots[:lp.size]
	clear(fs.pivots)
	d.levelStart = nl
	var members []int
	if lp.mine > 0 {
		members = make([]int, 0, lp.mine)
	}
	for k, li := range verts {
		if !lp.sel[k] {
			continue
		}
		g := pc.owned[li]
		tau := par.Tau * plan.RowTau[g]
		rowsIn++
		nnzIn += len(d.reduced[li].cols)
		urow, err := d.s.FactorPivotRow(n+g, d.reduced[li].cols, d.reduced[li].vals, tau, par.M, par.PivotPerturb, st)
		if err != nil {
			panic(err)
		}
		urow.Col = lp.myOffset + len(members)
		urow.Orig = g
		d.uF[li] = urow
		d.uFSet[li] = true
		fs.setID(g, urow.Col-nl)
		fs.pivots[urow.Col-nl] = &d.uF[li]
		d.w.NewOf[li] = urow.Col
		d.w.UCols[li], d.w.UVals[li] = urow.Cols, urow.Vals
		d.w.UDiag[li] = urow.Diag
		d.reduced[li] = redRow{}
		members = append(members, li)
	}
	d.w.LevelMembers = append(d.w.LevelMembers, members)

	// Push pivot rows along the MIS exchange plan: the processors that
	// requested a vertex's MIS state are exactly those whose rows
	// reference it, so the communication can be posted before any
	// elimination (§4 of the paper).
	for _, l := range lp.halo.Out {
		d.pushRows(l.Peer, l.Slots, lp.sel, verts)
	}
	for _, l := range lp.halo.In {
		d.pullRows(l.Peer)
	}
	for k := range fs.pushed {
		u := &fs.pushed[k]
		fs.setID(u.Orig, u.Col-nl)
		fs.pivots[u.Col-nl] = u
	}

	// Eliminate the level's unknowns from my unfactored rows (Algorithm 2;
	// single sweep thanks to independence).
	for _, li := range verts {
		if d.uFSet[li] {
			continue
		}
		g := pc.owned[li]
		tau := par.Tau * plan.RowTau[g]
		rc, rv := d.reduced[li].cols, d.reduced[li].vals
		rowsIn++
		nnzIn += len(rc)
		// A row that references no pivot of the level stays as it is: with
		// nothing to eliminate, the dropping rules and the split it went
		// through when it was produced reproduce it bit for bit (same tau,
		// same caps), so the kernel call is skipped. The model still
		// prices the paper's level-to-level copy of a threshold row.
		first := 0
		for first < len(rc) && fs.idOf[rc[first]-n] == 0 {
			first++
		}
		if first == len(rc) {
			if d.rule == thresholdRule {
				pc.Stats.CopiedEntries += len(rc)
			}
			continue
		}
		// Translate this level's pivot columns to their new ids, in the
		// recycled translation buffer (the kernel does not retain its
		// column input).
		tC := append(d.tBuf[:0], rc...)
		d.tBuf = tC
		for idx := first; idx < len(rc); idx++ {
			if id := fs.idOf[rc[idx]-n]; id != 0 {
				tC[idx] = nl + int(id) - 1
			}
		}
		sparse.SortRow(tC, rv)
		lC, lV, nrC, nrV := d.eliminateLevel(n+g, tC, rv, d.w.LCols[li], d.w.LVals[li], nl, nl1, tau)
		d.w.LCols[li], d.w.LVals[li] = lC, lV
		d.reduced[li] = redRow{nrC, nrV}
	}

	fs.releasePushed()
	d.charge()
	pc.Stats.Levels = append(pc.Stats.Levels, LevelStats{
		Start:           lp.start,
		Size:            lp.size,
		PivotsLocal:     lp.mine,
		RowsLocal:       rowsIn,
		ReducedNNZLocal: nnzIn,
		DroppedLocal:    st.Dropped - droppedIn,
	})
	if tr := p.Tracer(); tr.Enabled() {
		tr.Span("factor", fmt.Sprintf("phase2.level%d", len(pc.Stats.Levels)-1),
			t0, p.Time(),
			trace.I("size", lp.size), trace.I("pivots_local", lp.mine),
			trace.I("rows_local", rowsIn), trace.I("reduced_nnz_local", nnzIn))
	}
}

// pushRows sends peer my pivots among the vertices it reads (slots into
// verts, the level's vertex list) as two pooled raw messages, even when
// there are none: per row Col, Orig and the entry count followed by the
// columns, and per row Diag followed by the values.
func (d *driver) pushRows(peer int, slots []int32, sel []bool, verts []int) {
	rows, entries := 0, 0
	for _, k := range slots {
		if sel[k] {
			rows, entries = rows+1, entries+len(d.uF[verts[k]].Cols)
		}
	}
	cols, vals := pcomm.Ints.Get(3*rows+entries), pcomm.Floats.Get(rows+entries)
	i, f := 0, 0
	for _, k := range slots {
		if sel[k] {
			u := &d.uF[verts[k]]
			cols[i], cols[i+1], cols[i+2] = u.Col, u.Orig, len(u.Cols)
			i += 3 + copy(cols[i+3:], u.Cols)
			vals[f] = u.Diag
			f += 1 + copy(vals[f+1:], u.Vals)
		}
	}
	pcomm.SendSlice(d.p, peer, tagPivotCols, cols)
	pcomm.SendSlice(d.p, peer, tagPivotVals, vals)
}

// pullRows receives peer's pushRows messages and appends its rows to
// fs.pushed. The rows alias the received buffers, which the level keeps
// until releasePushed hands them back to their pools.
func (d *driver) pullRows(peer int) {
	fs := d.fs
	cols, vals := pcomm.RecvSlice[int](d.p, peer, tagPivotCols), pcomm.RecvSlice[float64](d.p, peer, tagPivotVals)
	fs.pushCols, fs.pushVals = append(fs.pushCols, cols), append(fs.pushVals, vals)
	for i, f := 0, 0; i < len(cols); {
		m := cols[i+2]
		c, v := cols[i+3:i+3+m:i+3+m], vals[f+1:f+1+m:f+1+m]
		fs.pushed = append(fs.pushed, ilu.URow{Col: cols[i], Orig: cols[i+1], Diag: vals[f], Cols: c, Vals: v})
		i, f = i+3+m, f+1+m
	}
}

// renumber translates the stored U rows from combined indices to the
// final elimination order: one gather publishes every interface row's
// (original, new) pair.
func (d *driver) renumber() {
	plan, pc := d.plan, d.pc
	n := plan.A.N
	var pairs []int
	for li, g := range pc.owned {
		if !plan.Interior[g] {
			pairs = append(pairs, g, d.w.NewOf[li])
		}
	}
	allPairs := pcomm.AllGatherSlice(d.p, pairs)
	fs := d.fs
	fs.clearIDs()
	for _, pp := range allPairs {
		for i := 0; i < len(pp); i += 2 {
			fs.setID(pp[i], pp[i+1])
		}
	}
	for li := range d.w.UCols {
		for k, c := range d.w.UCols[li] {
			if c >= n {
				id := fs.idOf[c-n]
				if id == 0 {
					panic("core: unfactored column survived the factorization")
				}
				d.w.UCols[li][k] = int(id) - 1
			}
		}
		sparse.SortRow(d.w.UCols[li], d.w.UVals[li])
	}
	fs.clearIDs()
}

// SummarizeLevels aggregates the per-processor level records of one
// factorization into the global per-level table of the paper: for each
// independent-set level, the global level size plus reduced-matrix rows,
// entries and dropped counts summed across processors. All pieces must come
// from the same collective Factor call (their Levels slices then have equal
// length by construction).
type LevelSummary struct {
	Start      int
	Size       int
	Pivots     int
	Rows       int
	ReducedNNZ int
	Dropped    int
}

func SummarizeLevels(pcs []*ProcPrecond) []LevelSummary {
	if len(pcs) == 0 {
		return nil
	}
	nlev := len(pcs[0].Stats.Levels)
	out := make([]LevelSummary, nlev)
	for _, pc := range pcs {
		if len(pc.Stats.Levels) != nlev {
			panic("core: SummarizeLevels: pieces from different factorizations")
		}
		for l, ls := range pc.Stats.Levels {
			out[l].Start = ls.Start
			out[l].Size = ls.Size
			out[l].Pivots += ls.PivotsLocal
			out[l].Rows += ls.RowsLocal
			out[l].ReducedNNZ += ls.ReducedNNZLocal
			out[l].Dropped += ls.DroppedLocal
		}
	}
	return out
}
