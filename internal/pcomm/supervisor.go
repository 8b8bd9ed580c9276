package pcomm

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/trace"
)

// DeadlockError is the failure a watchdog-armed Run panics with when the
// timeout expires: the SPMD program made no forward progress (typically a
// Recv with no matching Send, or processors entering collectives in
// different orders on a path the collective-mismatch check cannot see).
// Dump holds the backend's per-processor blocked-state report, turning a
// silent hang into an actionable message.
type DeadlockError struct {
	Backend string // "machine", "realcomm" or "netcomm": the Error() prefix
	Timeout time.Duration
	Dump    string
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("%s: watchdog: run still blocked after %v\n%s", e.Backend, e.Timeout, e.Dump)
}

// procAbort wraps the root panic so that secondary processors woken by a
// failure unwind without overwriting the root cause.
type procAbort struct{ cause any }

// failure is the first-failure-wins record of a run.
type failure struct {
	rank  int // root-cause rank, -1 when none (watchdog, transport)
	cause any
	stack string // panicking goroutine's stack, "" when none
	dump  string // blocked-state table at failure time
}

// Supervisor is the run lifecycle every backend shares: the single-use
// flag, the pre-Run settings, the spawn-and-recover loop, the
// first-failure-wins record, the watchdog timer and the *RunError a
// failed run panics with. A backend supplies only what differs: how to
// render its blocked-state dump and how a failure reaches its parked
// processors.
type Supervisor struct {
	backend, prefix, noun string
	p                     int
	dump                  func() string
	onFail                func(rank int, cause any)

	mu       sync.Mutex
	started  bool
	watchdog time.Duration
	rec      *trace.Recorder

	fail   atomic.Pointer[failure]
	failCh chan struct{}
}

// NewSupervisor creates the supervisor of one p-processor run. backend
// is the RunError.Backend name; prefix leads the backend's panic messages
// and its DeadlockError; noun is what its dump calls a processor ("proc",
// "rank"). dump renders the blocked-state table; it is called without any
// supervisor lock held. onFail runs once, after the failure is recorded
// and Failed() is closed, to wake processors parked where the channel
// cannot reach and to tell other processes.
func NewSupervisor(backend, prefix, noun string, p int, dump func() string, onFail func(rank int, cause any)) *Supervisor {
	return &Supervisor{backend: backend, prefix: prefix, noun: noun, p: p,
		dump: dump, onFail: onFail, failCh: make(chan struct{})}
}

// SetWatchdog arms a per-Run timeout. If the run has not completed after
// d, it fails with a *DeadlockError carrying the blocked-state dump. A
// processor spinning in pure local compute cannot be interrupted — the
// watchdog catches communication deadlocks, which always park in Recv or
// a collective. Must be called before Run; d ≤ 0 disables the watchdog.
func (s *Supervisor) SetWatchdog(d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		panic(s.prefix + ": SetWatchdog must be called before Run")
	}
	s.watchdog = d
}

// SetRecorder attaches a trace recorder covering at least P processors.
// Must be called before Run; nil (the default) keeps tracing off.
func (s *Supervisor) SetRecorder(r *trace.Recorder) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		panic(s.prefix + ": SetRecorder after Run")
	}
	if r != nil && r.NumProcs() < s.p {
		panic(fmt.Sprintf("%s: recorder covers %d processors, the run has %d", s.prefix, r.NumProcs(), s.p))
	}
	s.rec = r
}

// Start marks the run started — mailboxes, rendezvous buffers and failure
// state belong to one generation of processors, so a second Run is an
// explicit panic, not silent corruption — and returns the recorder.
func (s *Supervisor) Start() *trace.Recorder {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		panic(s.prefix + ": Run called twice on the same world; a world is single-use — create a new one per run")
	}
	s.started = true
	return s.rec
}

// Fail records a failure with its rank (-1 when no single processor is
// to blame) and stack, snapshots the blocked-state dump, and wakes the
// run. Only the first failure wins; Fail reports whether this call did.
func (s *Supervisor) Fail(rank int, cause any, stack string) bool {
	if s.fail.Load() != nil {
		return false
	}
	dump := s.dump()
	if stack != "" {
		dump += fmt.Sprintf("\nroot-cause stack (%s %d):\n%s", s.noun, rank, stack)
	}
	return s.record(&failure{rank, cause, stack, dump})
}

func (s *Supervisor) record(f *failure) bool {
	if !s.fail.CompareAndSwap(nil, f) {
		return false
	}
	close(s.failCh)
	s.onFail(f.rank, f.cause)
	return true
}

// Failed is closed once the run has failed; blocking operations select
// on it beside whatever they wait for.
func (s *Supervisor) Failed() <-chan struct{} { return s.failCh }

// CheckFailed unwinds the calling processor if the run has failed. The
// panic value marks it as a secondary casualty, not a new root cause.
func (s *Supervisor) CheckFailed() {
	if f := s.fail.Load(); f != nil {
		panic(procAbort{f.cause})
	}
}

// Supervise runs body(rank) for every rank in [lo, hi) on its own
// goroutine under the armed watchdog, then finish (still under the
// watchdog; nil for none), and panics with a *RunError if the run
// failed at any point.
func (s *Supervisor) Supervise(lo, hi int, body func(rank int), finish func()) {
	if wd := s.watchdog; wd > 0 {
		done := make(chan struct{})
		defer close(done)
		go func() {
			t := time.NewTimer(wd)
			defer t.Stop()
			select {
			case <-done:
			case <-t.C:
				dump := s.dump()
				s.record(&failure{-1, &DeadlockError{Backend: s.prefix, Timeout: wd, Dump: dump}, "", dump})
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
				s.Fail(rank, r, string(debug.Stack()))
			}()
			body(rank)
		}(rank)
	}
	wg.Wait()
	if finish != nil {
		finish()
	}
	if f := s.fail.Load(); f != nil {
		panic(&RunError{Backend: s.backend, Rank: f.rank, Cause: f.cause, Stack: f.stack, Dump: f.dump})
	}
}
