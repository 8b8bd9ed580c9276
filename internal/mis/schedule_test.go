package mis

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/matgen"
	"repro/internal/pcomm"
	"repro/internal/pcomm/modelled"
	"repro/internal/trace"
)

// The schedule Plan replaced (PR 23), kept as the oracle of
// TestPlanMatchesParentSchedule.

type refStateMsg struct {
	Keys   []uint64
	Active []bool
}

// refExchange is the parent's exchange lists: NeedBy[q] the local indices
// of the owned vertices processor q needs, ReqFrom[q] the global ids
// requested from q, and the global activity count.
type refExchange struct {
	NeedBy       [][]int
	ReqFrom      [][]int
	GlobalActive int
}

// refSetup is the parent's setup, verbatim: the communication setup phase: it resolves the vertices into
// slots, lays the adjacency out, and derives the exchange lists — which
// remote vertices this processor needs from each owner, in (owner, id)
// order, and, after one all-gather of those requests, which of its own
// vertices each processor needs.
func (ws *Workspace) refSetup(p pcomm.Comm, owned []int, adj [][]int, owner func(int) int) *refExchange {
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
	// lists as [dst, count, ids...]* and allgather.
	flat := make([]int, 0, nRemote+2*P)
	for q := 0; q < P; q++ {
		if len(reqFrom[q]) == 0 {
			continue
		}
		flat = append(flat, q, len(reqFrom[q]))
		flat = append(flat, reqFrom[q]...)
	}
	allReq := pcomm.AllGatherSlice(p, flat)
	needBy := make([][]int, P) // needBy[q]: local indices of vertices proc q needs
	for src := 0; src < P; src++ {
		f := allReq[src]
		for i := 0; i < len(f); {
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
	return &refExchange{NeedBy: needBy, ReqFrom: reqFrom}
}

// refPlan is the parent's Plan, verbatim: one all-gather, one
// all-reduce, and four neighbour exchanges (keys with activity, tentative
// flags, selected flags, exclusion notices) in every round.
func (ws *Workspace) refPlan(p pcomm.Comm, owned []int, adj [][]int, active []bool, owner func(int) int, rounds int, seed int64) planOut {
	if rounds <= 0 {
		rounds = DefaultRounds
	}
	nLocal := len(owned)
	P, me := p.P(), p.ID()

	ex := ws.refSetup(p, owned, adj, owner)
	needBy, reqFrom := ex.NeedBy, ex.ReqFrom
	nSlots := len(ws.ids)

	// --- augmentation rounds --------------------------------------------
	ws.keys = resize(ws.keys, nSlots)
	ws.act = resize(ws.act, nSlots)
	ws.cand = resize(ws.cand, nSlots)
	ws.newSel = resize(ws.newSel, nSlots)
	keys, act, cand, newSel := ws.keys, ws.act, ws.cand, ws.newSel
	clear(keys[:nLocal]) // an inactive vertex's key travels too
	if active == nil {
		for i := range act[:nLocal] {
			act[i] = true
		}
	} else {
		copy(act[:nLocal], active)
	}
	sel := make([]bool, nLocal)

	// exchangeBools sends one flag per boundary vertex in both directions,
	// following the setup lists: the local part of flags goes out, the
	// remote part comes in.
	exchangeBools := func(tag int, flags []bool) {
		for q := 0; q < P; q++ {
			if q == me || len(needBy[q]) == 0 {
				continue
			}
			msg := make([]bool, len(needBy[q]))
			for k, li := range needBy[q] {
				msg[k] = flags[li]
			}
			p.Send(q, tag, msg, pcomm.BytesOf[bool](len(msg)))
		}
		pos := nLocal
		for q := 0; q < P; q++ {
			if q == me || len(reqFrom[q]) == 0 {
				continue
			}
			pos += copy(flags[pos:], p.Recv(q, tag).([]bool))
		}
	}

	// Tracing is local-only: round counts and candidate/selected tallies are
	// recorded on this processor's timeline without any added communication,
	// so the cost model is identical with and without a recorder attached.
	tr := p.Tracer()
	tMIS := p.Time()
	roundsRun := 0

	for r := 0; r < rounds; r++ {
		nActive := 0
		for i, g := range owned {
			if act[i] {
				keys[i] = key(seed, r, g)
				nActive++
			}
		}
		// A single global reduction in the first round detects the
		// nothing-to-do case; later rounds run unconditionally (messages
		// stay matched, and an empty round is cheap), keeping the
		// synchronization count at one per MIS call.
		if r == 0 {
			ex.GlobalActive = p.AllReduceInt(nActive, pcomm.OpSum)
		}
		if ex.GlobalActive == 0 {
			break
		}

		// Exchange keys + active state of boundary vertices.
		for q := 0; q < P; q++ {
			if q == me || len(needBy[q]) == 0 {
				continue
			}
			msg := refStateMsg{Keys: make([]uint64, len(needBy[q])), Active: make([]bool, len(needBy[q]))}
			for k, li := range needBy[q] {
				msg.Keys[k] = keys[li]
				msg.Active[k] = act[li]
			}
			p.Send(q, tagState, msg,
				pcomm.BytesOf[uint64](len(needBy[q]))+pcomm.BytesOf[bool](len(needBy[q])))
		}
		pos := nLocal
		for q := 0; q < P; q++ {
			if q == me || len(reqFrom[q]) == 0 {
				continue
			}
			msg := p.Recv(q, tagState).(refStateMsg)
			copy(keys[pos:], msg.Keys)
			copy(act[pos:], msg.Active)
			pos += len(msg.Keys)
		}

		// Step 1: tentative insertion.
		p.Work(float64(ws.tentative()))

		// Exchange tentative flags; step 2 withdraws members that see
		// another tentative member along an out-edge.
		exchangeBools(tagCand, cand)
		ws.withdraw(sel)

		// Exchange selected flags: a vertex whose out-neighbour was
		// selected deactivates.
		exchangeBools(tagSel, newSel)
		ws.deactivate()

		// Exclusion notices along out-edges of selected vertices: the head
		// of each such edge must deactivate even though it may not see the
		// selected tail. Notices flow opposite to the request lists.
		ws.exclude()
		for q := 0; q < P; q++ {
			if q == me || len(reqFrom[q]) == 0 {
				continue
			}
			// Copy before sending: a sent slice must never share memory
			// with anything the sender may touch again.
			notices := ws.excl[ws.exclOff[q] : ws.exclOff[q]+ws.exclN[q]]
			p.Send(q, tagExcl, slices.Clone(notices), pcomm.BytesOfInts(len(notices)))
		}
		for q := 0; q < P; q++ {
			if q == me || len(needBy[q]) == 0 {
				continue
			}
			for _, g := range p.Recv(q, tagExcl).([]int) {
				if li := ws.localIndex(g); li >= 0 {
					act[li] = false
				}
			}
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
	return planOut{sel, ex.NeedBy, ex.ReqFrom, ex.GlobalActive}
}

// planFunc is the signature plan and refPlan share.
type planFunc func(ws *Workspace, p pcomm.Comm, owned []int, adj [][]int, active []bool, owner func(int) int, rounds int, seed int64) planOut

// plan is Plan with its exchange plan read back in the parent's form.
func plan(ws *Workspace, p pcomm.Comm, owned []int, adj [][]int, active []bool, owner func(int) int, rounds int, seed int64) planOut {
	sel, globalActive := ws.Plan(p, owned, adj, active, owner, rounds, seed)
	return outOf(p, ws, sel, globalActive)
}

// planCounts is one processor's traffic over one Plan call.
type planCounts struct{ msgs, collectives int64 }

// TestPlanMatchesParentSchedule holds Plan to the schedule it replaced:
// over one small instance of every matgen generator, p ∈ {2, 4, 8}, all
// vertices active (nil), seeded random masks and nothing active, and 1, 2
// and 5 rounds, both return the same set, the same exchange lists and the
// same activity count — and Plan sends exactly the messages its schedule
// says, no more and no fewer: one request to each processor whose
// vertices I need, then per round one message to each processor that
// needs my vertices for the activity flags (none in round 0 of an
// all-active call), one for the tentative flags, and in every round but
// the last one for the selected flags plus one notice list to each
// processor whose vertices I need; one collective per call. With the
// paper's five rounds and everything active that is 15 blocking points
// where the parent had 22, which with the level's id claim and pivot push
// makes the 17 of DESIGN.md §5.
func TestPlanMatchesParentSchedule(t *testing.T) {
	zoo := map[string][][]int{
		"grid2d":   symAdj(graph.FromMatrix(matgen.Grid2D(12, 12))),
		"grid3d":   symAdj(graph.FromMatrix(matgen.Grid3D(5, 5, 5))),
		"torso":    symAdj(graph.FromMatrix(matgen.Torso(6, 6, 6, 1))),
		"convdiff": symAdj(graph.FromMatrix(matgen.ConvDiff2D(12, 12, 20, 5))),
		"aniso":    symAdj(graph.FromMatrix(matgen.Anisotropic2D(12, 12, 0.01))),
		"randspd":  symAdj(graph.FromMatrix(matgen.RandomSPDPattern(150, 5, 3))),
	}
	run := func(adj [][]int, P int, mask func(v int) bool, rounds int, plan planFunc) ([]planOut, []planCounts) {
		owner := func(g int) int { return (g / 5) % P }
		outs, counts := make([]planOut, P), make([]planCounts, P)
		modelled.New(P, machine.T3D()).Run(func(p pcomm.Comm) {
			var owned []int
			var local [][]int
			var active []bool
			for v := range adj {
				if owner(v) != p.ID() {
					continue
				}
				owned = append(owned, v)
				local = append(local, adj[v])
				if mask != nil {
					active = append(active, mask(v))
				}
			}
			if mask != nil && active == nil {
				active = []bool{} // an empty share of a masked call is still masked
			}
			before := p.Stats()
			out := plan(new(Workspace), p, owned, local, active, owner, rounds, 41)
			after := p.Stats()
			outs[p.ID()] = out
			counts[p.ID()] = planCounts{after.MsgsSent - before.MsgsSent, after.Collectives - before.Collectives}
		})
		return outs, counts
	}
	peers := func(lists [][]int, me int) (n int64) {
		for q, l := range lists {
			if q != me && len(l) > 0 {
				n++
			}
		}
		return n
	}
	masks := map[string]func(seed int64) func(int) bool{
		"all":  func(int64) func(int) bool { return nil },
		"none": func(int64) func(int) bool { return func(int) bool { return false } },
		"random": func(seed int64) func(int) bool {
			r := rand.New(rand.NewSource(seed))
			bits := make([]bool, 1024)
			for k := range bits {
				bits[k] = r.Intn(3) != 0
			}
			return func(v int) bool { return bits[v] }
		},
	}
	for name, adj := range zoo {
		for _, P := range []int{2, 4, 8} {
			for maskName, mk := range masks {
				for _, rounds := range []int{1, 2, 5} {
					t.Run(fmt.Sprintf("%s/p%d/%s/r%d", name, P, maskName, rounds), func(t *testing.T) {
						mask := mk(int64(P*100 + rounds))
						want, wantCounts := run(adj, P, mask, rounds, (*Workspace).refPlan)
						got, counts := run(adj, P, mask, rounds, plan)
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("Plan and the parent schedule disagree:\ngot  %+v\nwant %+v", got, want)
						}
						for q := range got {
							flagPeers, noticePeers := peers(got[q].NeedBy, q), peers(got[q].ReqFrom, q)
							r := int64(rounds)
							stateRounds := r
							if mask == nil {
								stateRounds--
							}
							msgs := flagPeers*(stateRounds+r+(r-1)) + noticePeers*r
							parentMsgs := flagPeers*3*r + noticePeers*r
							parentCollectives := int64(2)
							if got[q].GlobalActive == 0 {
								msgs, parentMsgs = noticePeers, 0 // the requests only
							}
							if counts[q] != (planCounts{msgs, 1}) {
								t.Errorf("processor %d: Plan sent %+v, its schedule says {%d 1}", q, counts[q], msgs)
							}
							if wantCounts[q] != (planCounts{parentMsgs, parentCollectives}) {
								t.Errorf("processor %d: the parent schedule sent %+v, want {%d %d}: the oracle is not the parent's", q, wantCounts[q], parentMsgs, parentCollectives)
							}
						}
					})
				}
			}
		}
	}
}

// waitCounter counts a processor's blocking points: every collective, and
// every run of receives not interrupted by a send — the neighbour
// exchanges post all their sends and then await all their receives. It
// overrides the raw methods too: embedding would otherwise promote them
// past the count.
type waitCounter struct {
	pcomm.Comm
	points    int
	receiving bool
}

func (c *waitCounter) sent() { c.receiving = false }

func (c *waitCounter) received() {
	if !c.receiving {
		c.receiving = true
		c.points++
	}
}

func (c *waitCounter) Send(dst, tag int, payload any, bytes int) {
	c.sent()
	c.Comm.Send(dst, tag, payload, bytes)
}

func (c *waitCounter) SendRaw(dst, tag int, h pcomm.RawSlice, bytes int) {
	c.sent()
	c.Comm.SendRaw(dst, tag, h, bytes)
}

func (c *waitCounter) Recv(src, tag int) any {
	c.received()
	return c.Comm.Recv(src, tag)
}

func (c *waitCounter) RecvRaw(src, tag int) pcomm.RawSlice {
	c.received()
	return c.Comm.RecvRaw(src, tag)
}

func (c *waitCounter) AllGatherRaw(h pcomm.RawSlice, bytes int) []pcomm.RawSlice {
	c.receiving = false
	c.points++
	return c.Comm.AllGatherRaw(h, bytes)
}

func (c *waitCounter) AllReduceInt(v int, op pcomm.ReduceOp) int {
	c.receiving = false
	c.points++
	return c.Comm.AllReduceInt(v, op)
}

// TestPlanBlockingPoints counts them: with the paper's five rounds a
// threshold level's call (everything active) waits 15 times where the
// parent waited 22 — 17 against 24 per level with the id claim and the
// pivot push — and a masked call 16 times. Each count is one more than
// with the parent's request all-gather (14 and 15): the set-up's requests
// travel point to point (pcomm.BuildHalo), so a call also blocks for its
// readers' requests after the all-gather of owner lists.
func TestPlanBlockingPoints(t *testing.T) {
	adj := symAdj(graph.FromMatrix(matgen.Grid2D(12, 12)))
	const P = 4
	owner := func(g int) int { return g % P }
	count := func(masked bool, plan planFunc) []int {
		points := make([]int, P)
		modelled.New(P, machine.T3D()).Run(func(p pcomm.Comm) {
			var owned []int
			var local [][]int
			var active []bool
			for v := range adj {
				if owner(v) == p.ID() {
					owned = append(owned, v)
					local = append(local, adj[v])
					if masked {
						active = append(active, v%7 != 0)
					}
				}
			}
			c := &waitCounter{Comm: p}
			plan(new(Workspace), c, owned, local, active, owner, DefaultRounds, 3)
			points[p.ID()] = c.points
		})
		return points
	}
	for _, row := range []struct {
		name   string
		masked bool
		plan   planFunc
		want   int
	}{
		{"Plan, all active", false, plan, 15},
		{"Plan, masked", true, plan, 16},
		{"parent, all active", false, (*Workspace).refPlan, 22},
		{"parent, masked", true, (*Workspace).refPlan, 22},
	} {
		for q, got := range count(row.masked, row.plan) {
			if got != row.want {
				t.Errorf("%s: processor %d blocks %d times, want %d", row.name, q, got, row.want)
			}
		}
	}
}
