// Package realcomm is the shared-memory pcomm backend: P ranks exchanging
// messages at hardware speed, with no global lock — on the wall clock
// (New), a goroutine per rank, or on the modelled machine's virtual clock
// (NewModelled, the modelled backend), as coroutines the engine resumes
// one at a time on one goroutine.
//
// It is the engine's all-ranks-in-one-process transport: every
// destination is a co-located mailbox (internal/pcomm/engine), so all
// that lives here is the collective rendezvous — one barrier per
// collective over per-rank deposit slots, which the engine folds in
// processor-rank order.
package realcomm

import (
	"fmt"
	"sync/atomic"

	"repro/internal/machine"
	"repro/internal/pcomm"
	"repro/internal/pcomm/engine"
)

// slots is one set of per-rank deposit slots, one typed array per
// contribution form: depositing is a plain store, never a boxing
// allocation. Barrier deposits an empty header into raws.
type slots struct {
	ops   []engine.Op
	raws  []pcomm.RawSlice
	fvals []float64
	ivals []int
}

// World is a P-processor shared-memory run. A World is single-use, like
// every pcomm.World.
//
// A collective is one barrier. Collective g deposits into slot set g&1,
// so a rank may still be reading the view of g while a faster one
// deposits for g+1; nobody deposits for g+2, into the set g used, before
// every rank has arrived at g+1 — which a rank does only after it has
// left g. That is why a view is valid until its rank's next collective
// and no second barrier is needed to hand the slots back.
type World struct {
	*engine.World
	size  int32
	count atomic.Int32  // arrivals at the collective in progress
	gen   atomic.Uint64 // collectives completed
	sets  [2]slots
	seats []seat
}

// seat is one rank's place at the barrier: the condition it waits for
// (engine.Proc.Wait) and the bell it sleeps on meanwhile.
type seat struct {
	w    *World
	g    uint64 // the index of the collective the rank is in: its own count of them
	bell engine.Bell
	_    [32]byte // a cache line per seat: g is written on every collective
}

// Ready reports that the collective the rank is in has completed.
func (s *seat) Ready() bool { return s.w.gen.Load() > s.g }

// New creates a real-backend world with p processors.
func New(p int) *World { return newWorld(p, nil, "real") }

// NewModelled creates a world with p processors on the virtual clock of
// cost: the modelled backend.
func NewModelled(p int, cost machine.CostModel) *World {
	return newWorld(p, &cost, "modelled")
}

func newWorld(p int, cost *machine.CostModel, name string) *World {
	if p < 1 {
		panic(name + ": need at least one processor")
	}
	w := &World{size: int32(p), seats: make([]seat, p)}
	for i := range w.sets {
		w.sets[i] = slots{make([]engine.Op, p), make([]pcomm.RawSlice, p), make([]float64, p), make([]int, p)}
	}
	for i := range w.seats {
		w.seats[i].w = w
		w.seats[i].bell.Init()
	}
	w.World = engine.New(w, cost, name, p, 0, p)
	return w
}

// deposit returns the slot set of the collective p is entering, with its
// op code recorded.
//
//pilut:hotpath
func (w *World) deposit(p *engine.Proc, op engine.Op) *slots {
	s := &w.sets[w.seats[p.ID()].g&1]
	s.ops[p.ID()] = op
	return s
}

// meet is the barrier of the collective p deposited into s for: the last
// rank to arrive opens it, the others wait for gen to move. All then
// verify they entered the same collective; from here until the rank's
// next collective the set's slots are stable and readable.
//
//pilut:hotpath
func (w *World) meet(p *engine.Proc, op engine.Op, s *slots) {
	st := &w.seats[p.ID()]
	if w.count.Add(1) == w.size {
		w.count.Store(0)
		w.gen.Store(st.g + 1)
		w.ringAll()
	} else {
		p.Wait(engine.Waiting(op, 0), &st.bell, st)
	}
	st.g++
	for _, theirs := range s.ops {
		if theirs != op {
			panic(fmt.Sprintf("realcomm: collective mismatch: %q vs %q", theirs, op))
		}
	}
}

// GatherFloat64 implements engine.Transport over the unboxed slots, so
// the steady-state reduction allocates nothing.
//
//pilut:hotpath
func (w *World) GatherFloat64(p *engine.Proc, v float64) []float64 {
	s := w.deposit(p, engine.OpAllReduceF64)
	s.fvals[p.ID()] = v
	w.meet(p, engine.OpAllReduceF64, s)
	return s.fvals
}

// GatherInt implements engine.Transport.
//
//pilut:hotpath
func (w *World) GatherInt(p *engine.Proc, v int) []int {
	s := w.deposit(p, engine.OpAllReduceInt)
	s.ivals[p.ID()] = v
	w.meet(p, engine.OpAllReduceInt, s)
	return s.ivals
}

// Gather implements engine.Transport.
//
//pilut:hotpath
func (w *World) Gather(p *engine.Proc, op engine.Op, h pcomm.RawSlice) []pcomm.RawSlice {
	s := w.deposit(p, op)
	s.raws[p.ID()] = h
	w.meet(p, op, s)
	return s.raws
}

// Ship implements engine.Transport; unreachable, since every rank is
// hosted here.
func (w *World) Ship(p *engine.Proc, dst int, m engine.Message) {
	panic(fmt.Sprintf("realcomm: rank %d is not hosted in this process", dst))
}

// ringAll wakes every rank asleep at the barrier.
//
//pilut:hotpath
func (w *World) ringAll() {
	for r := range w.seats {
		w.seats[r].bell.Ring()
	}
}

// Abort implements engine.Transport: there is no other process to tell.
func (w *World) Abort(rank int, cause any) { w.ringAll() }

// Finish implements engine.Transport.
func (w *World) Finish(local []pcomm.Stats) pcomm.Result { return pcomm.NewResult(local) }

// DumpFrame implements engine.Transport; the tail counts the arrivals at
// the collective in progress.
func (w *World) DumpFrame() (head, tail string) {
	if n := w.count.Load(); n > 0 {
		tail = fmt.Sprintf("\n  collective %d: %d of %d arrived", w.gen.Load(), n, w.size)
	}
	return fmt.Sprintf("P=%d processors:", w.NumProcs()), tail
}

var _ pcomm.World = (*World)(nil)
