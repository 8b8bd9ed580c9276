package engine

import (
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/machine"
	"repro/internal/pcomm"
	"repro/internal/trace"
)

// Proc is one locally hosted rank's communicator handle, confined to the
// goroutine (on the modelled clock, the coroutine) Run handed it to.
type Proc struct {
	id    int
	w     *World
	tr    *trace.ProcTracer
	stats pcomm.Stats
	// blocked publishes the packed wait state (see renderBlocked) for the
	// watchdog.
	blocked atomic.Uint64

	// cost is the world's cost model, nil on the wall clock; now is the
	// rank's modelled clock, clock its float64 bits as last published for
	// the watchdog dump.
	cost  *machine.CostModel
	now   float64
	clock atomic.Uint64

	// On the modelled clock the rank is a coroutine (sched.go): yield hands
	// the baton back to the driver, cond is what the rank is parked on (nil
	// before it starts), done is set once its body has returned.
	yield func(struct{}) bool
	cond  interface{ Ready() bool }
	done  bool
}

// ID returns this rank.
func (p *Proc) ID() int { return p.id }

// P returns the world size.
func (p *Proc) P() int { return p.w.p }

// Time returns the modelled clock, or wall-clock seconds since Run
// started.
func (p *Proc) Time() float64 {
	if p.cost != nil {
		return p.now
	}
	return time.Since(p.w.start).Seconds()
}

// Work accounts flops. The modelled clock advances by flops × FlopTime;
// on the wall clock the work has taken its actual time.
func (p *Proc) Work(flops float64) {
	p.stats.Flops += flops
	if c := p.cost; c != nil {
		dt := flops * c.FlopTime
		p.now += dt
		p.stats.Busy += dt
	}
}

// Sleep advances the modelled clock by dt seconds of non-flop local work
// (copying, sorting); a no-op on the wall clock, where such work takes
// its actual time.
func (p *Proc) Sleep(dt float64) {
	if p.cost != nil {
		p.now += dt
		p.stats.Busy += dt
	}
}

// publishClock makes the modelled clock readable by the watchdog dump.
func (p *Proc) publishClock() {
	if p.cost != nil {
		p.clock.Store(math.Float64bits(p.now))
	}
}

// Stats returns a snapshot of the rank's counters.
func (p *Proc) Stats() pcomm.Stats {
	s := p.stats
	s.Time = p.Time()
	return s
}

// Tracer returns the rank's trace sink, nil when tracing is off.
func (p *Proc) Tracer() *trace.ProcTracer { return p.tr }

// How long a rank looks for its condition before it sleeps (DESIGN.md
// §10 has the measurements): a sleeper costs its waker a futex wake once
// its P has gone idle, a rank that yields lets the runnable ranks have the
// P and sees a message from another P within a scheduler round trip. Yield,
// not spin — a spinning rank holds the P the sender needs. waitChecks
// immediate looks come first, for when every rank has a P; waitYields
// bounds what an idle P burns (≈ 30 µs) before the rank sleeps after all.
// The yields are for a process running one wall-clock world: with
// several, each world's yielding ranks take the Ps from the others' and it
// costs them more than it saves. A modelled world's ranks do none of this:
// they hand the baton back to their world's driver (park).
const (
	waitChecks = 8
	waitYields = 100
)

// Bell is how one rank sleeps until someone has changed what it waits
// for: the sleeper raises asleep and blocks on wake; Ring, called after
// the change, lowers a raised flag and sends the token. At most one token
// is ever in flight, so Ring never blocks.
type Bell struct {
	asleep atomic.Bool
	wake   chan struct{} // cap 1
}

// Init readies b; once, before first use.
func (b *Bell) Init() { b.wake = make(chan struct{}, 1) }

// Ring wakes the rank sleeping on b, if one is. It may come late, when
// the sleeper has seen the change by itself and sleeps for the next one,
// so a woken rank looks again. A failed run's Abort rings every bell.
//
//pilut:hotpath
func (b *Bell) Ring() {
	if b.asleep.Load() && b.asleep.CompareAndSwap(true, false) {
		b.wake <- struct{}{}
	}
}

// Wait is the one way a rank blocks: it returns once c is ready. On the
// wall clock it looks a few times, then — while this process runs no
// other wall-clock world — across a bounded run of scheduler yields, and
// at last asleep on b; on the modelled clock it parks on c until the
// driver resumes it. Its state (stateRecv, Waiting) is published for the
// blocked-state dump before it yields or parks. If the run fails
// meanwhile, the rank unwinds instead of returning.
//
//pilut:hotpath
func (p *Proc) Wait(state uint64, b *Bell, c interface{ Ready() bool }) {
	if p.cost != nil {
		p.park(state, c)
		return
	}
	for n := 0; n < waitChecks; n++ {
		if c.Ready() {
			return
		}
	}
	p.blocked.Store(state)
	if running.Load() == 1 {
		for n := 0; n < waitYields && !c.Ready(); n++ {
			runtime.Gosched()
		}
	}
	// Raise the flag, then look again: whoever failed the run or made c
	// ready before seeing the flag will not ring. If the flag is gone
	// already, a token is on its way and has to be taken.
	for !c.Ready() {
		b.asleep.Store(true)
		p.w.CheckFailed()
		if !c.Ready() || !b.asleep.CompareAndSwap(true, false) {
			<-b.wake
			p.w.CheckFailed()
		}
	}
	p.blocked.Store(stateNone)
}

// Send delivers payload to dst under tag: a mailbox put for co-located
// ranks, the transport's business otherwise. bytes feeds the traffic
// counters, which every backend reports identically for the same
// program, and the modelled clock: the sender pays Overhead, the message
// arrives Latency + bytes × ByteTime later.
func (p *Proc) Send(dst, tag int, payload any, bytes int) {
	p.send(dst, tag, Message{Tag: tag, Payload: payload}, bytes)
}

// SendRaw is Send for an unboxed slice header. Co-located ranks get the
// header zero-copy.
func (p *Proc) SendRaw(dst, tag int, h pcomm.RawSlice, bytes int) {
	p.send(dst, tag, Message{Tag: tag, Raw: h, IsRaw: true}, bytes)
}

func (p *Proc) send(dst, tag int, m Message, bytes int) {
	w := p.w
	if dst < 0 || dst >= w.p {
		panic(fmt.Sprintf("%s: Send to invalid %s %d", w.prefix, w.noun, dst))
	}
	p.stats.MsgsSent++
	p.stats.BytesSent += int64(bytes)
	if c := p.cost; c != nil {
		p.now += c.Overhead
		m.Arrival = p.now + c.Latency + float64(bytes)*c.ByteTime
	}
	if p.tr != nil {
		p.tr.Instant("machine", "send", p.Time(),
			trace.I("dst", dst), trace.I("tag", tag), trace.I("bytes", bytes))
	}
	if dst < w.lo || dst >= w.hi {
		w.t.Ship(p, dst, m)
		return
	}
	w.boxes[(dst-w.lo)*w.p+p.id].put(m)
}

// Recv blocks until a message with the given tag from src is available
// and returns its payload. The modelled clock pays Overhead and then
// waits, if it must, for the message's arrival.
func (p *Proc) Recv(src, tag int) any {
	payload, _ := p.recv(src, tag, false)
	return payload
}

// RecvRaw is Recv for a message sent with SendRaw.
func (p *Proc) RecvRaw(src, tag int) pcomm.RawSlice {
	_, h := p.recv(src, tag, true)
	return h
}

// recv takes the next message from src under tag; raw says which form
// the caller receives, and a message sent in the other is a program error
// that names the fix.
//
//pilut:hotpath
func (p *Proc) recv(src, tag int, raw bool) (any, pcomm.RawSlice) {
	w := p.w
	if src < 0 || src >= w.p {
		panic(fmt.Sprintf("%s: Recv from invalid %s %d", w.prefix, w.noun, src))
	}
	t0 := p.traceTime()
	b := &w.boxes[(p.id-w.lo)*w.p+src]
	m, ok := takeByTagFrom(&b.stash, tag, 0)
	for !ok {
		n := len(b.stash) // nothing stashed below n matches
		b.drain()
		if m, ok = takeByTagFrom(&b.stash, tag, n); !ok {
			p.Wait(stateRecv|uint64(src)<<8|uint64(tag)<<24, &b.bell, b)
		}
	}
	if m.IsRaw && !raw {
		panic(fmt.Sprintf("%s: Recv(src=%d, tag=%d) matched a raw slice message; receive it with pcomm.RecvSlice", w.prefix, src, tag))
	}
	if raw && !m.IsRaw {
		panic(fmt.Sprintf("%s: RecvSlice(src=%d, tag=%d) matched a boxed message; receive it with Recv", w.prefix, src, tag))
	}
	if c := p.cost; c != nil {
		p.now += c.Overhead
		if m.Arrival > p.now {
			p.now = m.Arrival
		}
	}
	if p.tr != nil {
		p.tr.Span("machine", "recv", t0, p.Time(),
			trace.I("src", src), trace.I("tag", tag))
	}
	return m.Payload, m.Raw
}

// traceTime is Time when a tracer is attached and zero otherwise: the
// start of a span nobody will record costs no clock read.
func (p *Proc) traceTime() float64 {
	if p.tr == nil {
		return 0
	}
	return p.Time()
}

// enter counts the collective the rank is entering and, on the modelled
// clock, records its entry time in the collective's parity set.
//
//pilut:hotpath
func (p *Proc) enter() {
	p.stats.Collectives++
	if p.cost != nil {
		p.w.clocks[p.stats.Collectives&1][p.id] = p.now
	}
}

// leave closes a collective of bytes per rank that every rank has
// entered: the modelled clock moves to the latest entry time plus the
// collective's cost — log P message steps — and the trace span opened at
// t0 = traceTime() ends.
//
//pilut:hotpath
func (p *Proc) leave(op Op, t0 float64, bytes int) {
	if c := p.cost; c != nil {
		maxT := math.Inf(-1)
		for _, t := range p.w.clocks[p.stats.Collectives&1] {
			if t > maxT {
				maxT = t
			}
		}
		switch op {
		case OpBarrier:
			p.now = maxT + 2*p.w.logP*c.Latency
		case OpAllGather:
			// Recursive doubling moves ~P × bytes per rank in total.
			p.now = maxT + p.w.logP*c.Latency + float64(p.w.p*bytes)*c.ByteTime
		default:
			p.now = maxT + p.w.logP*(c.Latency+float64(bytes)*c.ByteTime)
		}
	}
	if p.tr != nil {
		p.tr.Span("machine", op.String(), t0, p.Time(), trace.I("bytes", bytes))
	}
}

// Barrier synchronizes all ranks.
//
//pilut:hotpath
func (p *Proc) Barrier() {
	t0 := p.traceTime()
	p.enter()
	p.w.t.Gather(p, OpBarrier, pcomm.RawSlice{})
	p.leave(OpBarrier, t0, 0)
}

// AllReduceFloat64 combines one float64 per rank with op, through the
// rank-order pcomm.Fold every backend shares.
//
//pilut:hotpath
func (p *Proc) AllReduceFloat64(v float64, op pcomm.ReduceOp) float64 {
	t0 := p.traceTime()
	p.enter()
	out := pcomm.Fold(p.w.t.GatherFloat64(p, v), op)
	p.leave(OpAllReduceF64, t0, 8)
	return out
}

// AllReduceInt combines one int per rank with op.
//
//pilut:hotpath
func (p *Proc) AllReduceInt(v int, op pcomm.ReduceOp) int {
	t0 := p.traceTime()
	p.enter()
	out := pcomm.Fold(p.w.t.GatherInt(p, v), op)
	p.leave(OpAllReduceInt, t0, 8)
	return out
}

// AllGatherRaw deposits one slice header per rank and returns them
// indexed by rank: the transport's view, valid until the rank's next
// collective (pcomm.AllGatherSlice copies the headers out at once).
func (p *Proc) AllGatherRaw(h pcomm.RawSlice, bytes int) []pcomm.RawSlice {
	t0 := p.traceTime()
	p.enter()
	hs := p.w.t.Gather(p, OpAllGather, h)
	p.leave(OpAllGather, t0, bytes)
	return hs
}

var _ pcomm.Comm = (*Proc)(nil)
var _ pcomm.World = (*World)(nil)
