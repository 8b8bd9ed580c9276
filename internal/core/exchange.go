package core

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/pcomm"
)

// Message tags of the triangular sweeps and of the request exchange that
// plans them. Matching is FIFO per (source, destination, tag) and every
// application sends the same messages in the same order, so a rank that
// has run ahead into the next application only queues behind its own
// earlier messages.
const (
	tagSolveForward  = 9302
	tagSolveBackward = 9303
	tagSolvePlan     = 9304
)

// xmsg is one message of a sweep's exchange plan. A send leaves once its
// step is solved and packs the named slots; a receive is awaited before
// its step starts — the first that reads any of its values — and fills
// the named ghost slots. For B right-hand sides the payload is B such
// blocks, right-hand-side-major.
type xmsg struct {
	peer  int32
	step  int32
	slots []int32
}

// buildExchange derives both sweeps' neighbour-exchange plans: per
// neighbour, which of my level members its rows read and the step at
// which it first needs them. One request exchange, in the manner of
// dist.NewMatrix but with the requests themselves sent point to point, so
// the traffic stays proportional to the interface: every processor
// publishes its id range per level (from which everybody knows who owns
// what), then the owners it reads from, and sends each of them the ghosts
// it reads with their first-use steps; from that each side of every
// (owner, reader) pair cuts the same values into the same messages
// (fuse). Collective. The plan is a pure function of the P pieces, so it
// is rebuilt rather than shipped when a factorization changes daemons.
func (pc *ProcPrecond) buildExchange(p pcomm.Comm) {
	me, q, tot := pc.me, len(pc.levels), pc.plan.TotInterior
	nOwn := len(pc.owned)
	sweeps := [2]*tri{&pc.fwd, &pc.bwd}

	// Who owns each interface unknown. Ids go out per level in (processor,
	// local order), so a processor's share of a level is one range.
	mine := make([]int, 0, 2*q+1)
	for l := 0; l < q; l++ {
		lo, hi := pc.fwd.step[l+1], pc.fwd.step[l+2]
		first := 0
		if hi > lo {
			first = pc.newOf[pc.fwd.row[lo]]
		}
		mine = append(mine, first, int(hi-lo))
	}
	mine = append(mine, len(pc.fwd.ghost)+len(pc.bwd.ghost))
	all := pcomm.AllGatherInts(p, mine)
	owner := make([]int32, pc.plan.NInterface)
	for i := range owner {
		owner[i] = -1
	}
	inFlight := 0
	for r, f := range all {
		if len(f) != 2*q+1 {
			panic(fmt.Sprintf("core: solve plan: processor %d's piece is not of this %d-level factorization", r, q))
		}
		for l, lv := range pc.levels {
			first, cnt := f[2*l], f[2*l+1]
			if cnt < 0 || cnt > 0 && (first < lv.Start || first+cnt > lv.Start+lv.Size) {
				panic(fmt.Sprintf("core: solve plan: processor %d claims ids [%d,%d) outside level %d", r, first, first+cnt, l))
			}
			for id := first; id < first+cnt; id++ {
				if owner[id-tot] >= 0 {
					panic(fmt.Sprintf("core: solve plan: processors %d and %d both claim unknown %d", owner[id-tot], r, id))
				}
				owner[id-tot] = int32(r)
			}
		}
		inFlight += f[2*q]
	}

	// My requests, one message per owner I read from: the number of L
	// pairs, then the (id, first use) pairs of L and of U, each in the
	// order the owner produces the values.
	req := make([][]int, len(all))
	var asks []int
	for d, t := range sweeps {
		for k, id := range t.ghost {
			o := owner[id-tot]
			if o < 0 || int(o) == me {
				panic(fmt.Sprintf("core: solve plan: processor %d reads unknown %d, which no other processor owns", me, id))
			}
			if req[o] == nil {
				req[o] = []int{0}
			}
			req[o] = append(req[o], id, int(t.use[k]))
			if d == 0 {
				req[o][0]++
			}
		}
	}
	for o := range req {
		if req[o] != nil {
			asks = append(asks, o)
		}
	}
	allAsks := pcomm.AllGatherInts(p, asks)
	for _, o := range asks {
		pcomm.SendSlice(p, o, tagSolvePlan, pcomm.CopyInts(req[o]))
	}
	reads := make([][2][]int, len(all)) // per reader and sweep: the pairs it reads of mine
	for r, os := range allAsks {
		k := sort.SearchInts(os, me)
		if r == me || k == len(os) || os[k] != me {
			continue
		}
		f := pcomm.RecvSlice[int](p, r, tagSolvePlan)
		if len(f) == 0 || len(f)%2 != 1 || f[0] < 0 || 1+2*f[0] > len(f) {
			panic(fmt.Sprintf("core: solve plan: malformed request from processor %d", r))
		}
		reads[r] = [2][]int{f[1 : 1+2*f[0]], f[1+2*f[0]:]}
	}
	levelOf := func(id int) int {
		return sort.Search(q, func(l int) bool { return id < pc.levels[l].Start+pc.levels[l].Size })
	}

	for d, t := range sweeps {
		t.send, t.recv = nil, nil
		var made, use, slots []int32
		for r := range all {
			if r == me {
				continue
			}
			// What r reads of mine, in the order I produce it.
			made, use, slots = made[:0], use[:0], slots[:0]
			for pr := reads[r][d]; len(pr) > 0; pr = pr[2:] {
				id := pr[0]
				if id < tot || id >= tot+len(owner) || owner[id-tot] != int32(me) {
					panic(fmt.Sprintf("core: solve plan: processor %d asks processor %d for unknown %d, which it does not own", r, me, id))
				}
				l := levelOf(id)
				slot := int(pc.fwd.step[l+1]) + id - mine[2*l]
				if t.diag != nil {
					slot = nOwn - 1 - slot
				}
				made = append(made, t.madeAt(l, q))
				use = append(use, int32(pr[1]))
				slots = append(slots, int32(slot))
			}
			t.send = fuse(t.send, me, r, true, made, use, slots)

			// What I read of r's, in the order r produces it.
			made, use, slots = made[:0], use[:0], slots[:0]
			for k, id := range t.ghost {
				if owner[id-tot] != int32(r) {
					continue
				}
				made = append(made, t.madeAt(levelOf(id), q))
				use = append(use, t.use[k])
				slots = append(slots, int32(nOwn+k))
			}
			t.recv = fuse(t.recv, r, me, false, made, use, slots)
		}
		// Stable: a neighbour's messages keep their order, which is also
		// the order of their steps.
		sort.SliceStable(t.send, func(i, j int) bool { return t.send[i].step < t.send[j].step })
		sort.SliceStable(t.recv, func(i, j int) bool { return t.recv[i].step < t.recv[j].step })
	}

	// Every value in flight is one reader's ghost; a rank may be an
	// application ahead of its slowest neighbour.
	pcomm.Floats.Reserve(2 * inFlight)
	pc.wired = true
}

// fuse cuts the values reader reads of owner's — value k produced at step
// made[k] and first read at step use[k], listed in production order —
// into messages and appends them to msgs: the owner's sends (stamped with
// the step they leave after) or the reader's receives (stamped with the
// step that first needs them). Consecutive values share a message as long
// as the reader's first use of any of them lies beyond the step that
// produces the last, so every message leaves strictly before it is
// needed; and since a cut happens exactly when the next value is produced
// no earlier than the pending first use, first uses rise strictly from one
// message to the next — the reader meets them in the order the owner sent
// them. Both ends run fuse on the same list.
func fuse(msgs []xmsg, owner, reader int, sending bool, made, use, slots []int32) []xmsg {
	peer := owner
	if sending {
		peer = reader
	}
	for lo := 0; lo < len(made); {
		first := int32(math.MaxInt32)
		hi := lo
		for ; hi < len(made) && made[hi] < first; hi++ {
			if use[hi] <= made[hi] {
				panic(fmt.Sprintf("core: solve plan: processor %d reads a value of processor %d at step %d of the sweep that produces it at step %d",
					reader, owner, use[hi], made[hi]))
			}
			first = min(first, use[hi])
		}
		m := xmsg{peer: int32(peer), step: first, slots: append([]int32(nil), slots[lo:hi]...)}
		if sending {
			m.step = made[hi-1]
		}
		msgs = append(msgs, m)
		lo = hi
	}
	return msgs
}
