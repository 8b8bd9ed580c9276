package mis

import (
	"slices"

	"repro/internal/pcomm"
	"repro/internal/trace"
)

// Message tags used by Distributed; callers sharing a machine must avoid
// this range.
const (
	tagState = 9102
	tagCand  = 9103
	tagSel   = 9104
	tagExcl  = 9105
)

// Exchange describes the communication plan the setup phase derived and
// the global activity count its all-gather carried. The parallel
// factorization reuses the plan to push pivot rows: the processors that
// requested a vertex's MIS state are exactly the processors whose rows
// reference that vertex.
type Exchange struct {
	// NeedBy[q] lists local indices of owned vertices processor q needs.
	NeedBy [][]int
	// ReqFrom[q] lists global ids this processor requested from q.
	ReqFrom [][]int
	// GlobalActive is the total number of active vertices at entry.
	GlobalActive int
}

// Distributed computes an independent set of a directed graph whose
// vertices are distributed over the processors of a virtual machine.
// It mirrors the paper's implementation: a communication setup phase
// determines which vertex keys each processor pair must exchange (the
// boundary vertices), then each augmentation round performs up to three
// neighbour exchanges: activity flags, tentative flags, and selected
// flags together with the exclusion notices required by the directed
// two-step fix-up (see Plan for what each round can leave out).
//
//   - owned lists this processor's global vertex ids (non-negative);
//   - adj[i] lists the out-neighbours (global ids) of owned[i];
//   - active[i] marks vertices still eligible (nil = all);
//   - owner maps any global id appearing in adj to its processor.
//
// All processors must call Distributed collectively with the same rounds
// and seed. The returned mask is over owned, and the union across
// processors is independent and nonempty whenever any vertex is active.
func Distributed(p pcomm.Comm, owned []int, adj [][]int, active []bool, owner func(int) int, rounds int, seed int64) []bool {
	sel, _ := DistributedPlan(p, owned, adj, active, owner, rounds, seed)
	return sel
}

// DistributedPlan is Distributed exposing the communication plan and the
// global activity count (see Exchange). It runs on a throw-away
// Workspace; a caller computing one set after another keeps its own.
func DistributedPlan(p pcomm.Comm, owned []int, adj [][]int, active []bool, owner func(int) int, rounds int, seed int64) ([]bool, *Exchange) {
	return new(Workspace).Plan(p, owned, adj, active, owner, rounds, seed)
}

// Workspace is the working memory of one processor's DistributedPlan
// calls, reused from call to call (the interface phase of a factorization
// computes one independent set per level). A call resolves every vertex it
// sees — owned, or referenced by an out-edge — once, into a slot: an owned
// vertex's local index, or nLocal plus a remote vertex's position in
// (owner, id) order, which is also its position in the boundary messages.
// Keys and flags live in one array each over the slots and the adjacency
// is laid out flat in slots, so the edge scans of the augmentation rounds
// are array reads.
//
// The zero value is ready to use. What a call returns (the mask and the
// Exchange) is freshly allocated and never aliases the workspace.
type Workspace struct {
	// slotOf[g] is 1 + the slot of vertex g while a call knows it, 0
	// otherwise; ids lists the known vertices by slot, which is also the
	// list the table is cleared through.
	slotOf []int32
	ids    []int
	nLocal int // slots below it are the owned vertices

	// The out-edges of local vertex i are nbr[off[i]:off[i+1]], as slots,
	// self-loops left out.
	off []int32
	nbr []int32

	// Per slot; the remote part is what the last exchange delivered.
	keys   []uint64
	act    []bool
	cand   []bool
	newSel []bool

	// Per remote vertex (slot − nLocal): its owner, and scratch for
	// bucketing by owner.
	remOwner []int32
	remStart []int // remStart[q]: first remote position owned by processor q

	// Exclusion notices of one round: processor q's are
	// excl[exclOff[q]:exclOff[q]+exclN[q]], room for one per remote edge.
	excl    []int
	exclOff []int
	exclN   []int
}

// Reset forgets the vertices of the last call, returning the id table to
// all zeros. Plan does it on entry; it is exported for an owner that pools
// workspaces and wants a panicked call's state gone.
func (ws *Workspace) Reset() {
	for _, g := range ws.ids {
		ws.slotOf[g] = 0
	}
	ws.ids = ws.ids[:0]
}

// Poison resets the workspace, verifies the id table is clean, and
// scribbles sentinels over everything else — all of which a correct call
// writes before it reads. It is the stale-state tripwire of the
// workspace-reuse tests, as ilu.Scratch.Poison is for the row kernels.
func (ws *Workspace) Poison() {
	ws.Reset()
	for _, s := range ws.slotOf {
		if s != 0 {
			panic("mis: Workspace not clean: an id survived Reset")
		}
	}
	const sentinel = -0x5A5A5A5A
	for _, xs := range [][]int{ws.ids[:cap(ws.ids)], ws.remStart[:cap(ws.remStart)],
		ws.excl[:cap(ws.excl)], ws.exclOff[:cap(ws.exclOff)], ws.exclN[:cap(ws.exclN)]} {
		for k := range xs {
			xs[k] = sentinel
		}
	}
	for _, xs := range [][]int32{ws.off[:cap(ws.off)], ws.nbr[:cap(ws.nbr)], ws.remOwner[:cap(ws.remOwner)]} {
		for k := range xs {
			xs[k] = sentinel
		}
	}
	keys := ws.keys[:cap(ws.keys)]
	for k := range keys {
		keys[k] = 0x5A5A5A5A5A5A5A5A
	}
	for _, xs := range [][]bool{ws.act[:cap(ws.act)], ws.cand[:cap(ws.cand)], ws.newSel[:cap(ws.newSel)]} {
		for k := range xs {
			xs[k] = true
		}
	}
}

// resize returns xs at length n, reallocating (contents lost) only when
// the capacity is short.
func resize[T any](xs []T, n int) []T {
	if cap(xs) < n {
		return make([]T, n, n+n/4)
	}
	return xs[:n]
}

// know enters vertex g into the id table under slot code (see setup).
func (ws *Workspace) know(g int, code int32) {
	ws.slotOf[g] = code
	ws.ids = append(ws.ids, g)
}

// localIndex returns the local index of vertex g, an id off the wire, or
// −1 if this processor does not own it.
func (ws *Workspace) localIndex(g int) int {
	if g < 0 || g >= len(ws.slotOf) {
		return -1
	}
	if s := int(ws.slotOf[g]); s > 0 && s <= ws.nLocal {
		return s - 1
	}
	return -1
}

// setup is the communication setup phase: it resolves the vertices into
// slots, lays the adjacency out, and derives the exchange lists — which
// remote vertices this processor needs from each owner, in (owner, id)
// order, and, after one all-gather of those requests, which of its own
// vertices each processor needs. The all-gather also carries nActive,
// this processor's count of active vertices, and so yields the global
// count with no reduction of its own.
func (ws *Workspace) setup(p pcomm.Comm, owned []int, adj [][]int, owner func(int) int, nActive int) *Exchange {
	P, me := p.P(), p.ID()
	nLocal := len(owned)
	ws.Reset()
	ws.nLocal = nLocal
	maxID, nEdges := -1, 0
	for _, g := range owned {
		maxID = max(maxID, g)
	}
	for _, nbrs := range adj {
		nEdges += len(nbrs)
		for _, g := range nbrs {
			maxID = max(maxID, g)
		}
	}
	if maxID >= len(ws.slotOf) {
		ws.slotOf = append(ws.slotOf, make([]int32, maxID+1-len(ws.slotOf))...)
	}
	for i, g := range owned {
		ws.know(g, int32(i+1))
	}

	// Collect the remote vertices whose state we need — every out-neighbour
	// we do not own — counting them by owner; until they are ordered their
	// table entry is the marker −1. The counts go two places up so that
	// after the prefix sum remStart[q+1] is where q's run starts, and after
	// the bucket fill has advanced it to the run's end, remStart[q] is.
	ws.remStart = resize(ws.remStart, P+2)
	clear(ws.remStart)
	ws.remOwner = ws.remOwner[:0]
	for _, nbrs := range adj {
		for _, g := range nbrs {
			if ws.slotOf[g] != 0 {
				continue
			}
			ws.know(g, -1)
			q := owner(g)
			ws.remOwner = append(ws.remOwner, int32(q))
			ws.remStart[q+2]++
		}
	}
	nRemote := len(ws.ids) - nLocal
	for q := 0; q < P; q++ {
		ws.remStart[q+2] += ws.remStart[q+1]
	}

	// Order the remotes by (owner, id), so message payloads are positional:
	// bucket the ids by owner into the request lists, sort each list, and
	// give every remote the slot of its position.
	reqFlat := make([]int, nRemote)
	for r, g := range ws.ids[nLocal:] {
		q := ws.remOwner[r]
		reqFlat[ws.remStart[q+1]] = g
		ws.remStart[q+1]++
	}
	reqFrom := make([][]int, P)
	for q := 0; q < P; q++ {
		lo, hi := ws.remStart[q], ws.remStart[q+1]
		if lo == hi {
			continue
		}
		reqFrom[q] = reqFlat[lo:hi:hi]
		slices.Sort(reqFrom[q])
		for r := lo; r < hi; r++ {
			ws.slotOf[reqFlat[r]] = int32(nLocal + r + 1)
			ws.remOwner[r] = int32(q)
		}
	}
	copy(ws.ids[nLocal:], reqFlat)

	// Lay the adjacency out in slots, and size the exclusion-notice buffer:
	// a round sends at most one notice per remote edge.
	ws.off = resize(ws.off, nLocal+1)
	ws.nbr = resize(ws.nbr, nEdges)[:0]
	ws.exclOff = resize(ws.exclOff, P+1)
	ws.exclN = resize(ws.exclN, P)
	clear(ws.exclOff)
	for i, nbrs := range adj {
		ws.off[i] = int32(len(ws.nbr))
		for _, g := range nbrs {
			if g == owned[i] {
				continue
			}
			s := ws.slotOf[g] - 1
			ws.nbr = append(ws.nbr, s)
			if int(s) >= nLocal {
				ws.exclOff[ws.remOwner[int(s)-nLocal]+1]++
			}
		}
	}
	ws.off[nLocal] = int32(len(ws.nbr))
	for q := 0; q < P; q++ {
		ws.exclOff[q+1] += ws.exclOff[q]
	}
	ws.excl = resize(ws.excl, ws.exclOff[P])

	// Tell every owner which of its vertices we need: flatten request
	// lists as nActive, [dst, count, ids...]* and allgather.
	flat := make([]int, 1, 1+nRemote+2*P)
	flat[0] = nActive
	for q := 0; q < P; q++ {
		if len(reqFrom[q]) == 0 {
			continue
		}
		flat = append(flat, q, len(reqFrom[q]))
		flat = append(flat, reqFrom[q]...)
	}
	allReq := pcomm.AllGatherInts(p, flat)
	needBy := make([][]int, P) // needBy[q]: local indices of vertices proc q needs
	globalActive := 0
	for src := 0; src < P; src++ {
		f := allReq[src]
		globalActive += f[0]
		for i := 1; i < len(f); {
			dst, cnt := f[i], f[i+1]
			ids := f[i+2 : i+2+cnt]
			i += 2 + cnt
			if dst != me {
				continue
			}
			needBy[src] = slices.Grow(needBy[src], cnt)
			for _, g := range ids {
				li := ws.localIndex(g)
				if li < 0 {
					panic("mis: processor asked for a vertex we do not own")
				}
				needBy[src] = append(needBy[src], li)
			}
		}
	}
	return &Exchange{NeedBy: needBy, ReqFrom: reqFrom, GlobalActive: globalActive}
}

// sendFlags sends processor q the flags of the owned vertices it needs,
// in its request order, on a pooled buffer the receiver hands back.
func (ws *Workspace) sendFlags(p pcomm.Comm, needBy [][]int, tag int, flags []bool) {
	for q, need := range needBy {
		if q == p.ID() || len(need) == 0 {
			continue
		}
		msg := pcomm.Bools.Get(len(need))
		for k, li := range need {
			msg[k] = flags[li]
		}
		pcomm.SendSlice(p, q, tag, msg)
	}
}

// recvFlags is the other end of sendFlags: the remote part of flags comes
// in, owner by owner.
func (ws *Workspace) recvFlags(p pcomm.Comm, reqFrom [][]int, tag int, flags []bool) {
	pos := ws.nLocal
	for q, req := range reqFrom {
		if q == p.ID() || len(req) == 0 {
			continue
		}
		msg := pcomm.RecvSlice[bool](p, q, tag)
		pos += copy(flags[pos:], msg)
		pcomm.Bools.Put(msg)
	}
}

// Plan is DistributedPlan on this workspace.
//
// A call blocks once in the set-up all-gather and then, per round, once
// per neighbour exchange — with the paper's five rounds and every vertex
// active, 14 times:
//
//   - activity flags of the boundary vertices, except in round 0 of a
//     call with active == nil, where both ends know them to be all true.
//     Keys do not travel: key(seed, round, id) is a function of things
//     the reader has, so it draws the keys of the remote vertices itself;
//   - tentative flags;
//   - selected flags and exclusion notices, posted together before either
//     is awaited (the notices follow from the local selected flags alone,
//     and everything they and the flags trigger only retires vertices, in
//     whatever order). The last round stops before this exchange: the set
//     is final after its withdraw step, and activity is not read again.
func (ws *Workspace) Plan(p pcomm.Comm, owned []int, adj [][]int, active []bool, owner func(int) int, rounds int, seed int64) ([]bool, *Exchange) {
	if rounds <= 0 {
		rounds = DefaultRounds
	}
	nLocal := len(owned)
	me := p.ID()
	nActive := nLocal
	if active != nil {
		nActive = 0
		for _, a := range active {
			if a {
				nActive++
			}
		}
	}

	ex := ws.setup(p, owned, adj, owner, nActive)
	needBy, reqFrom := ex.NeedBy, ex.ReqFrom
	nSlots := len(ws.ids)

	// --- augmentation rounds --------------------------------------------
	ws.keys = resize(ws.keys, nSlots)
	ws.act = resize(ws.act, nSlots)
	ws.cand = resize(ws.cand, nSlots)
	ws.newSel = resize(ws.newSel, nSlots)
	keys, act, cand, newSel := ws.keys, ws.act, ws.cand, ws.newSel
	if active == nil {
		for s := range act {
			act[s] = true
		}
	} else {
		copy(act[:nLocal], active)
	}
	sel := make([]bool, nLocal)

	// Tracing is local-only: round counts and candidate/selected tallies are
	// recorded on this processor's timeline without any added communication,
	// so the cost model is identical with and without a recorder attached.
	tr := p.Tracer()
	tMIS := p.Time()
	roundsRun := 0

	// With nothing active anywhere there is nothing to do, and every
	// processor knows it from the set-up; otherwise all rounds run
	// unconditionally (messages stay matched, and an empty round is
	// cheap), keeping the synchronization count at one per MIS call.
	for r := 0; r < rounds && ex.GlobalActive > 0; r++ {
		if r > 0 || active != nil {
			ws.sendFlags(p, needBy, tagState, act)
			ws.recvFlags(p, reqFrom, tagState, act)
		}
		nActive = 0
		for s, g := range ws.ids {
			if act[s] {
				keys[s] = key(seed, r, g)
				if s < nLocal {
					nActive++
				}
			}
		}

		// Step 1: tentative insertion.
		p.Work(float64(ws.tentative()))

		// Exchange tentative flags; step 2 withdraws members that see
		// another tentative member along an out-edge.
		ws.sendFlags(p, needBy, tagCand, cand)
		ws.recvFlags(p, reqFrom, tagCand, cand)
		ws.withdraw(sel)

		if r < rounds-1 {
			// A vertex whose out-neighbour was selected deactivates, and so
			// must the head of every out-edge of a selected vertex, even
			// though it may not see the selected tail: exclusion notices
			// flow opposite to the request lists.
			ws.exclude()
			ws.sendFlags(p, needBy, tagSel, newSel)
			for q, req := range reqFrom {
				if q == me || len(req) == 0 {
					continue
				}
				// Copy before sending: a sent slice must never share memory
				// with anything the sender may touch again.
				notices := pcomm.Ints.Get(ws.exclN[q])
				copy(notices, ws.excl[ws.exclOff[q]:])
				pcomm.SendSlice(p, q, tagExcl, notices)
			}
			ws.recvFlags(p, reqFrom, tagSel, newSel)
			for q, need := range needBy {
				if q == me || len(need) == 0 {
					continue
				}
				notices := pcomm.RecvSlice[int](p, q, tagExcl)
				for _, g := range notices {
					if li := ws.localIndex(g); li >= 0 {
						act[li] = false
					}
				}
				pcomm.Ints.Put(notices)
			}
			ws.deactivate()
		}

		roundsRun++
		if tr.Enabled() {
			nCand, nSel := 0, 0
			for i := range owned {
				if cand[i] {
					nCand++
				}
				if newSel[i] {
					nSel++
				}
			}
			tr.Instant("mis", "round", p.Time(),
				trace.I("round", r), trace.I("candidates", nCand),
				trace.I("selected", nSel), trace.I("active_in", nActive))
		}
	}
	if tr.Enabled() {
		nSel := 0
		for i := range sel {
			if sel[i] {
				nSel++
			}
		}
		tr.Span("mis", "distributed", tMIS, p.Time(),
			trace.I("rounds", roundsRun), trace.I("global_active", ex.GlobalActive),
			trace.I("selected_local", nSel), trace.I("owned", nLocal))
	}
	return sel, ex
}

// tentative is step 1 of a round: an active vertex becomes a candidate
// when its key beats every active out-neighbour's. It returns the number
// of edges scanned, the round's modelled work.
//
//pilut:hotpath
func (ws *Workspace) tentative() (scanned int) {
	keys, act, ids, nbr := ws.keys, ws.act, ws.ids, ws.nbr
	for i := 0; i < ws.nLocal; i++ {
		ws.cand[i] = false
		if !act[i] {
			continue
		}
		ok := true
		for _, s := range nbr[ws.off[i]:ws.off[i+1]] {
			scanned++
			if act[s] && !less(keys[i], ids[i], keys[s], ids[s]) {
				ok = false
				break
			}
		}
		ws.cand[i] = ok
	}
	return scanned
}

// withdraw is step 2: a candidate that sees another candidate along an
// out-edge withdraws; the rest are selected (newSel for this round, sel
// for the call) and leave the active set.
//
//pilut:hotpath
func (ws *Workspace) withdraw(sel []bool) {
	cand, nbr := ws.cand, ws.nbr
	for i := 0; i < ws.nLocal; i++ {
		ws.newSel[i] = false
		if !cand[i] {
			continue
		}
		keep := true
		for _, s := range nbr[ws.off[i]:ws.off[i+1]] {
			if cand[s] {
				keep = false
				break
			}
		}
		if keep {
			ws.newSel[i] = true
			sel[i] = true
			ws.act[i] = false
		}
	}
}

// deactivate retires every active vertex with a newly selected
// out-neighbour.
//
//pilut:hotpath
func (ws *Workspace) deactivate() {
	act, newSel, nbr := ws.act, ws.newSel, ws.nbr
	for i := 0; i < ws.nLocal; i++ {
		if !act[i] {
			continue
		}
		for _, s := range nbr[ws.off[i]:ws.off[i+1]] {
			if newSel[s] {
				act[i] = false
				break
			}
		}
	}
}

// exclude follows the out-edges of the newly selected vertices: a local
// head deactivates at once, a remote one gets a notice, queued for its
// owner in scan order.
//
//pilut:hotpath
func (ws *Workspace) exclude() {
	clear(ws.exclN)
	for i := 0; i < ws.nLocal; i++ {
		if !ws.newSel[i] {
			continue
		}
		for _, s := range ws.nbr[ws.off[i]:ws.off[i+1]] {
			if int(s) < ws.nLocal {
				ws.act[s] = false
				continue
			}
			q := ws.remOwner[int(s)-ws.nLocal]
			ws.excl[ws.exclOff[q]+ws.exclN[q]] = ws.ids[s]
			ws.exclN[q]++
		}
	}
}
