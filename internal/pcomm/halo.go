package pcomm

import (
	"fmt"
	"slices"
)

// tagHalo is the message tag of BuildHalo's requests.
const tagHalo = 9001

// Halo is one processor's side of a neighbour-exchange plan, the one plan
// under every halo exchange of the SPMD stack (the matrix–vector ghosts,
// the triangular sweeps, the MIS flag rounds and the pivot-row push). Both
// ends of an (owner, reader) pair list the same values in the reader's
// request order, so a message is positional: value k of the owner's Out
// link lands in slot k of the reader's In link.
type Halo struct {
	In  []Link // the owners I read from, ascending rank
	Out []Link // the readers of my values, ascending rank
}

// Link is one neighbour's share of a Halo. IDs (In only) are the global
// ids asked of the owner; Slots are where the values land in my ghost
// space (In) or the local slots they are read from (Out); Use is each
// value's first-use step in an ordered sweep, when the reader gives one.
type Link struct {
	Peer  int
	IDs   []int
	Slots []int32
	Use   []int32
}

// BuildHalo completes h collectively. The caller has filled h.In: per
// owner, ascending and never itself, the ids in the order it wants them,
// their slots and optionally their first-use steps. Every reader sends
// each owner one request naming the ids (and steps); one all-gather of
// every rank's owner list, which also carries count, an integer of the
// caller's, tells each owner whom to await. The owner fills h.Out,
// reusing its memory, through resolve, which maps an id to a local slot
// or to −1 (a panic) for an id it does not own. BuildHalo returns the sum
// of count over the processors.
func BuildHalo(c Comm, h *Halo, count int, resolve func(id int) int32) int {
	me := c.ID()
	owners := []int{count}
	for _, l := range h.In {
		owners = append(owners, l.Peer)
		req := Ints.Get(1 + len(l.IDs) + len(l.Use))
		req[0] = len(l.IDs)
		copy(req[1:], l.IDs)
		for k, u := range l.Use {
			req[1+len(l.IDs)+k] = int(u)
		}
		SendSlice(c, l.Peer, tagHalo, req)
	}
	sum, pairs := 0, 0
	h.Out = h.Out[:0]
	for r, f := range AllGatherSlice(c, owners) {
		sum, pairs = sum+f[0], pairs+len(f)-1
		if _, asks := slices.BinarySearch(f[1:], me); r == me || !asks {
			continue
		}
		req := RecvSlice[int](c, r, tagHalo)
		n := req[0]
		h.Out = slices.Grow(h.Out, 1)[:len(h.Out)+1] // keeps a reused link's memory
		l := &h.Out[len(h.Out)-1]
		l.Peer, l.Slots, l.Use = r, l.Slots[:0], nil
		for _, id := range req[1 : 1+n] {
			s := resolve(id)
			if s < 0 {
				panic(fmt.Sprintf("pcomm: halo: processor %d asks processor %d for %d, which it does not own", r, me, id))
			}
			l.Slots = append(l.Slots, s)
		}
		for _, u := range req[1+n:] {
			l.Use = append(l.Use, int32(u))
		}
		Ints.Put(req)
	}
	// A rank may be an exchange ahead of its slowest neighbour: a buffer per
	// pair and direction may be in circulation.
	Floats.Reserve(2 * pairs)
	Ints.Reserve(2 * pairs)
	Bools.Reserve(2 * pairs)
	return sum
}

// Post sends every reader in h.Out its values of each vector in xs, one
// message per reader (PostSlots).
//
//pilut:hotpath
func Post[T any](c Comm, h *Halo, tag int, xs [][]T) {
	for i := range h.Out {
		PostSlots(c, h.Out[i].Peer, tag, h.Out[i].Slots, xs)
	}
}

// Await receives Post's message from every owner in h.In (AwaitSlots).
//
//pilut:hotpath
func Await[T any](c Comm, h *Halo, tag int, xs [][]T) {
	for i := range h.In {
		AwaitSlots(c, h.In[i].Peer, tag, h.In[i].Slots, xs)
	}
}

// PostSlots sends peer the values at slots of every vector in xs, vector
// after vector, in one message on a buffer from T's pool that changes
// owner with the message.
//
//pilut:hotpath
func PostSlots[T any](c Comm, peer, tag int, slots []int32, xs [][]T) {
	n := len(slots)
	buf := poolOf[T]().Get(n * len(xs))
	for b, x := range xs {
		out := buf[b*n : (b+1)*n]
		for k, s := range slots {
			out[k] = x[s]
		}
	}
	SendSlice(c, peer, tag, buf)
}

// AwaitSlots receives peer's PostSlots message into every vector of xs at
// slots and recycles the buffer.
//
//pilut:hotpath
func AwaitSlots[T any](c Comm, peer, tag int, slots []int32, xs [][]T) {
	n := len(slots)
	buf := RecvSlice[T](c, peer, tag)
	if len(buf) != n*len(xs) {
		panic("pcomm: halo message length does not match the plan")
	}
	for b, x := range xs {
		in := buf[b*n : (b+1)*n]
		for k, s := range slots {
			x[s] = in[k]
		}
	}
	poolOf[T]().Put(buf)
}

// poolOf returns the shared message pool of element type T.
//
//pilut:hotpath
func poolOf[T any]() *SlicePool[T] {
	var p any
	switch any((*T)(nil)).(type) {
	case *float64:
		p = &Floats
	case *int:
		p = &Ints
	case *bool:
		p = &Bools
	}
	return p.(*SlicePool[T])
}
