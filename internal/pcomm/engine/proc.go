package engine

import (
	"fmt"
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
	// stash holds messages drained from a mailbox while looking for a
	// different tag, in arrival order, indexed by src. Owned by this
	// rank's goroutine.
	stash [][]Message
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

// Park blocks the rank until ch is closed or sent to, publishing state
// (Waiting, Leaving) for the watchdog dump meanwhile. If the run fails
// first, the rank unwinds instead of returning.
//
//pilut:hotpath
func (p *Proc) Park(ch <-chan struct{}, state uint64) {
	p.blocked.Store(state)
	defer p.blocked.Store(stateNone)
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
	t0 := p.Time()
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
	stash := &p.stash[src]
	if m, ok := takeByTagFrom(stash, tag, 0); ok {
		return m
	}
	b := &w.boxes[(p.id-w.lo)*w.p+src]
	for {
		n := len(*stash)
		b.drainInto(stash)
		if m, ok := takeByTagFrom(stash, tag, n); ok {
			return m
		}
		p.blocked.Store(stateRecv | uint64(src)<<8 | uint64(tag)<<24)
		select {
		case m := <-b.ch:
			p.blocked.Store(stateNone)
			// m is newer than everything stashed, so if it matches it is
			// the FIFO-correct next message of this tag.
			if m.Tag == tag {
				return m
			}
			*stash = append(*stash, m) //pilutlint:ok hotalloc stash grows to the peak out-of-order depth once, then is reused
		case <-b.wake:
			p.blocked.Store(stateNone)
		case <-w.failCh:
			p.blocked.Store(stateNone)
			w.CheckFailed()
		}
	}
}

// span closes a collective's trace span opened at t0.
func (p *Proc) span(op Op, t0 float64, bytes int) {
	if p.tr != nil {
		p.tr.Span("machine", op.String(), t0, p.Time(), trace.I("bytes", bytes))
	}
}

// Barrier synchronizes all ranks.
//
//pilut:hotpath
func (p *Proc) Barrier() {
	t0 := p.Time()
	p.stats.Collectives++
	p.w.t.Gather(p, OpBarrier, nil)
	p.w.t.Release(p, OpBarrier)
	p.span(OpBarrier, t0, 0)
}

// AllReduceFloat64 combines one float64 per rank with op, through the
// rank-order pcomm.Fold every backend shares.
//
//pilut:hotpath
func (p *Proc) AllReduceFloat64(v float64, op pcomm.ReduceOp) float64 {
	t0 := p.Time()
	p.stats.Collectives++
	out := pcomm.Fold(p.w.t.GatherFloat64(p, v), op)
	p.w.t.Release(p, OpAllReduceF64)
	p.span(OpAllReduceF64, t0, 8)
	return out
}

// AllReduceInt combines one int per rank with op.
//
//pilut:hotpath
func (p *Proc) AllReduceInt(v int, op pcomm.ReduceOp) int {
	t0 := p.Time()
	p.stats.Collectives++
	out := pcomm.Fold(p.w.t.GatherInt(p, v), op)
	p.w.t.Release(p, OpAllReduceInt)
	p.span(OpAllReduceInt, t0, 8)
	return out
}

// AllGather deposits one value per rank and returns the slice indexed by
// rank. The result is per-call storage: the transport's view is only
// valid until Release.
func (p *Proc) AllGather(v any, bytes int) []any {
	t0 := p.Time()
	p.stats.Collectives++
	vals := append([]any(nil), p.w.t.Gather(p, OpAllGather, v)...)
	p.w.t.Release(p, OpAllGather)
	p.span(OpAllGather, t0, bytes)
	return vals
}

var _ pcomm.Comm = (*Proc)(nil)
var _ pcomm.RawComm = (*Proc)(nil)
var _ pcomm.World = (*World)(nil)
