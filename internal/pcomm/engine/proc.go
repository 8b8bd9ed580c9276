package engine

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/pcomm"
	"repro/internal/trace"
)

// Proc is one locally hosted rank's communicator handle, confined to the
// goroutine Run handed it to.
type Proc struct {
	id    int
	w     *World
	tr    *trace.ProcTracer
	stats pcomm.Stats
	// blocked publishes the packed wait state (see renderBlocked) for the
	// watchdog.
	blocked atomic.Uint64
}

// ID returns this rank.
func (p *Proc) ID() int { return p.id }

// P returns the world size.
func (p *Proc) P() int { return p.w.p }

// Time returns wall-clock seconds since Run started.
func (p *Proc) Time() float64 { return time.Since(p.w.start).Seconds() }

// Work accounts flops; a wall-clock backend spends actual time instead of
// advancing a model clock.
func (p *Proc) Work(flops float64) { p.stats.Flops += flops }

// Sleep is a no-op: modelled non-flop local work takes its actual time
// here.
func (p *Proc) Sleep(dt float64) {}

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

// Wait is the one way a rank blocks: it returns once c is ready, having
// looked a few times, then across a bounded run of scheduler yields —
// state (stateRecv, Waiting) published for the watchdog dump from the
// first yield on — and at last asleep on b. If the run fails meanwhile,
// the rank unwinds instead of returning.
//
//pilut:hotpath
func (p *Proc) Wait(state uint64, b *Bell, c interface{ Ready() bool }) {
	for n := 0; n < waitChecks; n++ {
		if c.Ready() {
			return
		}
	}
	p.blocked.Store(state)
	for n := 0; n < waitYields && !c.Ready(); n++ {
		runtime.Gosched()
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
// counters (the cost model vocabulary is kept so every backend reports
// identical MsgsSent/BytesSent for the same program).
func (p *Proc) Send(dst, tag int, payload any, bytes int) {
	p.send(dst, tag, Message{Tag: tag, Payload: payload}, bytes)
}

// SendRaw implements the pcomm.RawComm zero-boxing fast path. Co-located
// ranks get the header zero-copy.
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
// and returns its payload.
func (p *Proc) Recv(src, tag int) any {
	_, payload, isRaw := p.RecvRaw(src, tag)
	if isRaw {
		panic(fmt.Sprintf("%s: Recv(src=%d, tag=%d) matched a raw slice message; receive it with pcomm.RecvSlice", p.w.prefix, src, tag))
	}
	return payload
}

// RecvRaw implements the pcomm.RawComm zero-boxing fast path.
func (p *Proc) RecvRaw(src, tag int) (pcomm.RawSlice, any, bool) {
	t0 := p.traceTime()
	m := p.recvMessage(src, tag)
	if p.tr != nil {
		p.tr.Span("machine", "recv", t0, p.Time(),
			trace.I("src", src), trace.I("tag", tag))
	}
	return m.Raw, m.Payload, m.IsRaw
}

//pilut:hotpath
func (p *Proc) recvMessage(src, tag int) Message {
	w := p.w
	if src < 0 || src >= w.p {
		panic(fmt.Sprintf("%s: Recv from invalid %s %d", w.prefix, w.noun, src))
	}
	b := &w.boxes[(p.id-w.lo)*w.p+src]
	if m, ok := takeByTagFrom(&b.stash, tag, 0); ok {
		return m
	}
	for {
		n := len(b.stash) // nothing stashed below n matches
		b.drain()
		if m, ok := takeByTagFrom(&b.stash, tag, n); ok {
			return m
		}
		p.Wait(stateRecv|uint64(src)<<8|uint64(tag)<<24, &b.bell, b)
	}
}

// traceTime is Time when a tracer is attached and zero otherwise: the
// start of a span nobody will record costs no clock read.
func (p *Proc) traceTime() float64 {
	if p.tr == nil {
		return 0
	}
	return p.Time()
}

// span closes a collective's trace span opened at t0 = traceTime().
func (p *Proc) span(op Op, t0 float64, bytes int) {
	if p.tr != nil {
		p.tr.Span("machine", op.String(), t0, p.Time(), trace.I("bytes", bytes))
	}
}

// Barrier synchronizes all ranks.
//
//pilut:hotpath
func (p *Proc) Barrier() {
	t0 := p.traceTime()
	p.stats.Collectives++
	p.w.t.Gather(p, OpBarrier, nil)
	p.span(OpBarrier, t0, 0)
}

// AllReduceFloat64 combines one float64 per rank with op, through the
// rank-order pcomm.Fold every backend shares.
//
//pilut:hotpath
func (p *Proc) AllReduceFloat64(v float64, op pcomm.ReduceOp) float64 {
	t0 := p.traceTime()
	p.stats.Collectives++
	out := pcomm.Fold(p.w.t.GatherFloat64(p, v), op)
	p.span(OpAllReduceF64, t0, 8)
	return out
}

// AllReduceInt combines one int per rank with op.
//
//pilut:hotpath
func (p *Proc) AllReduceInt(v int, op pcomm.ReduceOp) int {
	t0 := p.traceTime()
	p.stats.Collectives++
	out := pcomm.Fold(p.w.t.GatherInt(p, v), op)
	p.span(OpAllReduceInt, t0, 8)
	return out
}

// AllGather deposits one value per rank and returns the slice indexed by
// rank. The result is per-call storage: the transport's view is only
// valid until the rank's next collective.
func (p *Proc) AllGather(v any, bytes int) []any {
	t0 := p.traceTime()
	p.stats.Collectives++
	vals := append([]any(nil), p.w.t.Gather(p, OpAllGather, v)...)
	p.span(OpAllGather, t0, bytes)
	return vals
}

var _ pcomm.Comm = (*Proc)(nil)
var _ pcomm.RawComm = (*Proc)(nil)
var _ pcomm.World = (*World)(nil)
