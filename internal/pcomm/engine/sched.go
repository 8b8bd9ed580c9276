//go:build go1.23

package engine

import (
	"iter"
	"runtime/debug"
)

// drive runs body(rank) for every rank of a modelled world as coroutines
// on the calling goroutine, one at a time. It resumes the runnable rank
// with the least modelled clock, the lower rank on a tie, until every
// rank has returned. A rank is runnable before it starts and, once
// parked, when its condition holds or the run has failed (so that it
// unwinds). No runnable rank while some are unfinished is a deadlock,
// recorded at once.
func (w *World) drive(body func(rank int)) {
	next := make([]func() (struct{}, bool), len(w.procs))
	for left := len(w.procs); left > 0; {
		i := w.runnable()
		if i < 0 {
			w.deadlock(0)
			continue
		}
		if next[i] == nil {
			next[i] = w.coroutine(w.procs[i], body)
		}
		if _, more := next[i](); !more {
			w.procs[i].done = true
			left--
		}
	}
}

// coroutine makes p's body a coroutine that recovers its own panic, so the
// root-cause stack names the culprit's frames.
func (w *World) coroutine(p *Proc, body func(rank int)) func() (struct{}, bool) {
	next, _ := iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			// A rank unwinding from a failed run is a casualty, not a cause.
			if r := recover(); r != nil && !w.hasFailed() {
				w.Fail(p.id, r, string(debug.Stack()))
			}
		}()
		body(p.id)
	})
	return next
}

// runnable returns the rank to resume next, or -1 when none can proceed.
// With a pick hook set, the hook chooses among the runnable ranks.
func (w *World) runnable() int {
	failed := w.hasFailed()
	best := -1
	var ready []int
	for i, p := range w.procs {
		if p.done || !(failed || p.cond == nil || p.cond.Ready()) {
			continue
		}
		if w.pick != nil {
			ready = append(ready, i)
		} else if best < 0 || p.now < w.procs[best].now {
			best = i
		}
	}
	if len(ready) > 0 {
		return w.pick(ready)
	}
	return best
}

// park is Wait on the modelled clock: it publishes the blocked state,
// parks on c and hands the baton back to the driver, which resumes the
// rank once c holds, or once the run has failed and the rank unwinds.
//
//pilut:hotpath
func (p *Proc) park(state uint64, c interface{ Ready() bool }) {
	p.blocked.Store(state)
	p.publishClock()
	p.cond = c
	p.yield(struct{}{})
	p.w.CheckFailed()
	p.blocked.Store(stateNone)
}
