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

// How long a rank looks for its condition before it parks. A parked
// goroutine costs its waker a futex wake when its P has gone to sleep,
// and with more ranks than Ps that is what every message used to pay;
// a rank that yields instead lets the runnable ranks have the P first
// and sees a message from the rank on another P within a scheduler
// round trip. Yield, not spin: a spinning rank would hold the P the
// sender needs. waitChecks immediate re-checks come first because with a
// P per rank the answer is usually a cache miss away and a yield costs
// more than the hand-off it saves; waitYields bounds what an idle P burns
// (≈ 30 µs) before the rank parks after all. Measurements: DESIGN.md §10.
const (
	waitChecks = 8
	waitYields = 100
)

// Waiter is what a rank blocks on: a mailbox, a collective's barrier.
type Waiter interface {
	// Ready reports, without blocking, whether the wait is over.
	Ready() bool
	// Sleep blocks until Ready may have changed — through p.Park, or a
	// select of its own that honours the run's failure the same way.
	Sleep(p *Proc)
}

// Wait is the one way a rank blocks: it returns once c is ready, or has
// slept. Before it lets c sleep the rank re-checks it across a bounded
// run of scheduler yields, with state (stateRecv, Waiting) published for
// the watchdog dump from the first yield on. A run that fails while the
// rank yields is noticed in the sleep that follows.
//
//pilut:hotpath
func (p *Proc) Wait(state uint64, c Waiter) {
	for n := 0; n < waitChecks; n++ {
		if c.Ready() {
			return
		}
	}
	p.blocked.Store(state)
	for n := 0; n < waitYields; n++ {
		runtime.Gosched()
		if c.Ready() {
			p.blocked.Store(stateNone)
			return
		}
	}
	c.Sleep(p)
	p.blocked.Store(stateNone)
}

// Park sleeps until ch is closed or sent to, for use in a Waiter's
// Sleep. If the run fails first, the rank unwinds instead of returning.
//
//pilut:hotpath
func (p *Proc) Park(ch <-chan struct{}) {
	select {
	case <-ch:
	case <-p.w.failCh:
		p.w.CheckFailed()
	}
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
	stash := &b.stash
	if m, ok := takeByTagFrom(stash, tag, 0); ok {
		return m
	}
	// Nothing stashed below n matches; the drain, and a sleep that took a
	// message off the channel itself, both append at or above it.
	n := len(*stash)
	for {
		b.drainInto(stash)
		if m, ok := takeByTagFrom(stash, tag, n); ok {
			return m
		}
		n = len(*stash)
		p.Wait(stateRecv|uint64(src)<<8|uint64(tag)<<24, b)
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
