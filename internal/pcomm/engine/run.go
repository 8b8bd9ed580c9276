package engine

import (
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/pcomm"
	"repro/internal/trace"
)

// The run lifecycle: the single-use flag, the pre-Run settings, the
// spawn-and-recover loop, the first-failure-wins record, the watchdog
// timer and the *pcomm.RunError a failed run panics with.

// procAbort wraps the root panic so that secondary ranks woken by a
// failure unwind without overwriting the root cause.
type procAbort struct{ cause any }

// failure is the first-failure-wins record of a run.
type failure struct {
	rank  int // root-cause rank, -1 when none (deadlock, transport)
	cause any
	stack string // panicking goroutine's stack, "" when none
	dump  string // blocked-state table at failure time
}

// SetWatchdog arms a per-Run timeout. If the run has not completed after
// d, it fails with a *pcomm.DeadlockError carrying the blocked-state
// dump. A rank spinning in pure local compute cannot be interrupted — the
// watchdog catches communication deadlocks, which always park in Recv or
// a collective. A modelled world finds those exactly (drive) and needs it
// only to report a rank computing forever. Must be called before Run;
// d ≤ 0 disables the watchdog.
func (w *World) SetWatchdog(d time.Duration) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.started {
		panic(w.name + ": SetWatchdog must be called before Run")
	}
	w.watchdog = d
}

// SetRecorder attaches a trace recorder covering at least P ranks. Must
// be called before Run; nil (the default) keeps tracing off.
func (w *World) SetRecorder(r *trace.Recorder) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.started {
		panic(w.name + ": SetRecorder after Run")
	}
	if r != nil && r.NumProcs() < w.p {
		panic(fmt.Sprintf("%s: recorder covers %d processors, the run has %d", w.name, r.NumProcs(), w.p))
	}
	w.rec = r
}

// Run executes f on every locally hosted rank and returns the
// transport's Result once all have finished: concurrently, a goroutine
// per rank, on the wall clock; as coroutines on one driver goroutine on
// the modelled clock (sched.go). If a rank panics, every blocked rank is
// woken and Run panics with a *pcomm.RunError.
func (w *World) Run(f func(pcomm.Comm)) (res pcomm.Result) {
	w.begin()
	for _, p := range w.procs {
		p.tr = w.rec.Proc(p.id)
	}
	w.start = time.Now()
	body := func(rank int) {
		p := w.procs[rank-w.lo]
		f(p)
		p.stats.Time = p.Time()
		p.publishClock()
	}
	finish := func() {
		local := make([]pcomm.Stats, len(w.procs))
		for i, p := range w.procs {
			local[i] = p.stats
		}
		res = w.t.Finish(local)
	}
	if w.cost != nil {
		w.supervise(0, 1, func(int) { w.drive(body) }, finish)
		return res
	}
	running.Add(1)
	defer running.Add(-1)
	w.supervise(w.lo, w.hi, body, finish)
	return res
}

// begin marks the run started: mailboxes, rendezvous buffers and failure
// state belong to one generation of ranks, so a second Run is an
// explicit panic, not silent corruption.
func (w *World) begin() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.started {
		panic(w.name + ": Run called twice on the same world; a world is single-use — create a new one per run")
	}
	w.started = true
}

// Fail records a failure with its rank (-1 when no single rank is to
// blame) and stack, snapshots the blocked-state dump, and wakes the run.
// Only the first failure wins.
func (w *World) Fail(rank int, cause any, stack string) {
	if w.hasFailed() {
		return
	}
	dump := w.dump()
	if stack != "" {
		dump += fmt.Sprintf("\nroot-cause stack (rank %d):\n%s", rank, stack)
	}
	w.record(&failure{rank, cause, stack, dump})
}

// deadlock records that no rank can proceed: found at once by the
// modelled driver (timeout 0), or by the watchdog after timeout.
func (w *World) deadlock(timeout time.Duration) {
	dump := w.dump()
	w.record(&failure{-1, &pcomm.DeadlockError{Backend: w.name, Timeout: timeout, Dump: dump}, "", dump})
}

// record installs f unless a failure is recorded already, then wakes the
// ranks asleep on a mailbox so they unwind, and lets the transport do the
// same for those asleep in a collective.
func (w *World) record(f *failure) {
	if !w.fail.CompareAndSwap(nil, f) {
		return
	}
	close(w.failCh)
	for i := range w.boxes {
		w.boxes[i].bell.Ring()
	}
	w.t.Abort(f.rank, f.cause)
}

func (w *World) hasFailed() bool { return w.fail.Load() != nil }

// Failed is closed once the run has failed; blocking operations select
// on it beside whatever they wait for.
func (w *World) Failed() <-chan struct{} { return w.failCh }

// CheckFailed unwinds the calling rank if the run has failed. The panic
// value marks it as a secondary casualty, not a new root cause.
func (w *World) CheckFailed() {
	if f := w.fail.Load(); f != nil {
		panic(procAbort{f.cause})
	}
}

// supervise runs body(rank) for every rank in [lo, hi) on its own
// goroutine under the armed watchdog, then finish (still under the
// watchdog), and panics with a *pcomm.RunError if the run failed at any
// point.
func (w *World) supervise(lo, hi int, body func(rank int), finish func()) {
	if wd := w.watchdog; wd > 0 {
		done := make(chan struct{})
		defer close(done)
		go func() {
			t := time.NewTimer(wd)
			defer t.Stop()
			select {
			case <-done:
			case <-t.C:
				w.deadlock(wd)
			}
		}()
	}
	var wg sync.WaitGroup
	wg.Add(hi - lo)
	for rank := lo; rank < hi; rank++ {
		go func(rank int) {
			defer wg.Done()
			defer func() {
				r := recover()
				if _, secondary := r.(procAbort); r == nil || secondary {
					return
				}
				// debug.Stack() inside a deferred recover still sees the
				// panicking frames: defers run before the stack unwinds,
				// so the trace names the real culprit.
				w.Fail(rank, r, string(debug.Stack()))
			}()
			body(rank)
		}(rank)
	}
	wg.Wait()
	finish()
	if f := w.fail.Load(); f != nil {
		panic(&pcomm.RunError{Backend: w.name, Rank: f.rank, Cause: f.cause, Stack: f.stack, Dump: f.dump})
	}
}
