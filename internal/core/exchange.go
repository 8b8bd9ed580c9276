package core

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/pcomm"
)

// Message tags of the triangular sweeps. Matching is FIFO per (source,
// destination, tag) and every application sends the same messages in the
// same order, so a rank that has run ahead into the next application only
// queues behind its own earlier messages.
const (
	tagSolveForward  = 9302
	tagSolveBackward = 9303
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
// which it first needs them. Every processor publishes its id range per
// level, from which everybody knows who owns what; then one
// pcomm.BuildHalo, whose requests carry first-use steps, tells every owner
// what its readers read. The sweeps share that plan: a U request names
// ^id, and an owner's U slot s is nOwn+s. Each side of every (owner,
// reader) pair then cuts the same values into the same messages (fuse).
// Collective. The plan is a pure function of the P pieces, so it is
// rebuilt rather than shipped when a factorization changes daemons.
func (pc *ProcPrecond) buildExchange(p pcomm.Comm) {
	me, q, tot := pc.me, len(pc.levels), pc.plan.TotInterior
	nOwn := len(pc.owned)
	sweeps := [2]*tri{&pc.fwd, &pc.bwd}

	mine := pc.claims()
	owner, err := checkExchange(pc.plan, pc.levels, pcomm.AllGatherSlice(p, mine), []*ProcPrecond{pc})
	if err != nil {
		panic(err)
	}

	// My requests, one per owner I read from: the ghosts of L, then those
	// of U, each in the order the owner produces the values.
	var h pcomm.Halo
	linkOf := make([]int, pc.plan.Lay.P)
	for d, t := range sweeps {
		for k, id := range t.ghost {
			o := int(owner[id-tot])
			if linkOf[o] == 0 {
				h.In = append(h.In, pcomm.Link{Peer: o})
				linkOf[o] = len(h.In)
			}
			l := &h.In[linkOf[o]-1]
			l.IDs, l.Slots, l.Use = append(l.IDs, id^-d), append(l.Slots, int32(nOwn+k)), append(l.Use, t.use[k]) // ^id for U
		}
	}
	sort.Slice(h.In, func(i, j int) bool { return h.In[i].Peer < h.In[j].Peer })
	levelOf := func(id int) int {
		return sort.Search(q, func(l int) bool { return id < pc.levels[l].Start+pc.levels[l].Size })
	}
	inFlight := pcomm.BuildHalo(p, &h, len(pc.fwd.ghost)+len(pc.bwd.ghost), func(id int) int32 {
		g := max(id, ^id)
		if g < tot || g >= tot+len(owner) || owner[g-tot] != int32(me) {
			return -1
		}
		l := levelOf(g)
		slot := int(pc.fwd.step[l+1]) + g - mine[2*l]
		if id < 0 {
			slot = 2*nOwn - 1 - slot
		}
		return int32(slot)
	})

	// Cut every pair's values of each sweep into messages.
	var made, use, slots []int32
	for d, t := range sweeps {
		t.send, t.recv = nil, nil
		for _, l := range h.Out {
			made, use, slots = made[:0], use[:0], slots[:0]
			for k, s := range l.Slots {
				if s -= int32(d * nOwn); s >= 0 && int(s) < nOwn {
					made, use, slots = append(made, t.madeAt(levelOf(pc.newOf[t.row[s]]), q)), append(use, l.Use[k]), append(slots, s)
				}
			}
			t.send = fuse(t.send, l.Peer, true, made, use, slots)
		}
		for _, l := range h.In {
			made, use, slots = made[:0], use[:0], slots[:0]
			for k, id := range l.IDs {
				if id < 0 == (d == 1) {
					made, use, slots = append(made, t.madeAt(levelOf(max(id, ^id)), q)), append(use, l.Use[k]), append(slots, l.Slots[k])
				}
			}
			t.recv = fuse(t.recv, l.Peer, false, made, use, slots)
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

// claims lists my share of each level as (first id, count): a level's
// members are numbered in (processor, local order), so a processor's share
// of a level is one run of ids.
func (pc *ProcPrecond) claims() []int {
	mine := make([]int, 0, 2*len(pc.levels))
	for l := range pc.levels {
		lo, hi := pc.fwd.step[l+1], pc.fwd.step[l+2]
		first := 0
		if hi > lo {
			first = pc.newOf[pc.fwd.row[lo]]
		}
		mine = append(mine, first, int(hi-lo))
	}
	return mine
}

// checkExchange checks what a solve's exchange plan relies on of the P
// pieces of one factorization and returns the owner of every interface
// unknown: the processors' claims, in rank order, split every level's ids
// into consecutive runs, and every ghost a reader's sweeps read is
// produced at a step strictly before the reader's first use of it (else
// it would be awaited before it is sent). buildExchange checks each
// piece's own reads in the run; an import checks all pieces at once.
func checkExchange(plan *Plan, levels []LevelInfo, claims [][]int, readers []*ProcPrecond) ([]int32, error) {
	q, tot := len(levels), plan.TotInterior
	owner := make([]int32, plan.NInterface)
	for l, lv := range levels {
		id, end := lv.Start, lv.Start+lv.Size
		for r, f := range claims {
			if len(f) != 2*q || f[2*l+1] < 0 || f[2*l+1] > end-id || f[2*l+1] > 0 && f[2*l] != id {
				return nil, fmt.Errorf("core: exchange plan: processor %d's share of level %d is not the next run of its ids", r, l)
			}
			for n := f[2*l+1]; n > 0; n-- {
				owner[id-tot] = int32(r)
				id++
			}
		}
		if id != end {
			return nil, fmt.Errorf("core: exchange plan: ids [%d,%d) of level %d belong to no processor", id, end, l)
		}
	}
	for _, pc := range readers {
		for _, t := range [2]*tri{&pc.fwd, &pc.bwd} {
			for k, id := range t.ghost {
				l := sort.Search(q, func(l int) bool { return id < levels[l].Start+levels[l].Size })
				if made := t.madeAt(l, q); t.use[k] <= made {
					return nil, fmt.Errorf("core: exchange plan: processor %d reads unknown %d of processor %d at step %d of the sweep that produces it at step %d",
						pc.me, id, owner[id-tot], t.use[k], made)
				}
			}
		}
	}
	return owner, nil
}

// CheckExchange verifies that the P pieces of one factorization fit
// together as a solve's exchange plan needs them to (checkExchange), which
// FromWire cannot tell from one piece. Not collective.
func CheckExchange(pcs []*ProcPrecond) error {
	claims := make([][]int, len(pcs))
	for r, pc := range pcs {
		if pc.me != r || !slices.Equal(pc.levels, pcs[0].levels) {
			return fmt.Errorf("core: exchange plan: piece %d is not processor %d's of this factorization", r, r)
		}
		claims[r] = pc.claims()
	}
	_, err := checkExchange(pcs[0].plan, pcs[0].levels, claims, pcs)
	return err
}

// fuse cuts the values a reader reads of an owner's — value k produced at step
// made[k] and first read at step use[k], listed in production order —
// into messages and appends them to msgs: the owner's sends (stamped with
// the step they leave after) or the reader's receives (stamped with the
// step that first needs them). Consecutive values share a message as long
// as the reader's first use of any of them lies beyond the step that
// produces the last, so every message leaves strictly before it is
// needed; and since a cut happens exactly when the next value is produced
// no earlier than the pending first use, first uses rise strictly from one
// message to the next — the reader meets them in the order the owner sent
// them. Both ends run fuse on the same list, whose values checkExchange
// has found produced before they are used.
func fuse(msgs []xmsg, peer int, sending bool, made, use, slots []int32) []xmsg {
	for lo := 0; lo < len(made); {
		first := int32(math.MaxInt32)
		hi := lo
		for ; hi < len(made) && made[hi] < first; hi++ {
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
