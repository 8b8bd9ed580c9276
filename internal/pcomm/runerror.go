package pcomm

import (
	"fmt"
	"strings"
	"time"
)

// RunError is the structured failure a World.Run panics with when an SPMD
// run cannot complete: a processor panicked (its own bug, an injected
// fault, or a numerical breakdown signalled by panicking with an error),
// or the watchdog declared the run deadlocked. It converts what used to
// be a bare re-panic of the root cause into something a supervisor — the
// solver service, a test harness — can catch with Guard, inspect, and
// contain to one request instead of one process.
type RunError struct {
	// Backend names the world that failed ("modelled", "real" or
	// "netcomm").
	Backend string
	// Rank is the virtual processor whose panic was the root cause, or
	// -1 when no single processor is to blame (watchdog deadlock).
	Rank int
	// Cause is the root panic value. Secondary panics from sibling
	// processors woken by the failure never overwrite it.
	Cause any
	// Stack is the panicking goroutine's stack trace, captured inside
	// the deferred recover while the panicking frames were still intact.
	// Empty for watchdog failures, which have no panicking goroutine.
	Stack string
	// Dump is the per-processor blocked-state table at failure time:
	// what every other rank was parked on when the run died.
	Dump string
}

func (e *RunError) Error() string {
	var b strings.Builder
	if e.Rank >= 0 {
		fmt.Fprintf(&b, "%s: processor %d failed: %v", e.Backend, e.Rank, e.Cause)
	} else {
		fmt.Fprintf(&b, "%s: run failed: %v", e.Backend, e.Cause)
	}
	return b.String()
}

// Unwrap exposes an error-typed Cause to errors.Is/As, so callers can
// match domain failures (core.BreakdownError, fault.InjectedPanic,
// deadlock errors) through the RunError wrapper.
func (e *RunError) Unwrap() error {
	if err, ok := e.Cause.(error); ok {
		return err
	}
	return nil
}

// Guard runs f on w and converts a failed run into an error instead of a
// propagating panic. Every backend panics with *RunError on processor
// panics and watchdog deadlocks, so err is almost always a *RunError;
// any other panic escaping Run (programmer errors such as reusing a
// single-use world) is wrapped in one with Rank -1 so the caller still
// gets an error rather than a crash.
func Guard(w World, f func(Comm)) (res Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			if re, ok := r.(*RunError); ok {
				err = re
				return
			}
			err = &RunError{Rank: -1, Cause: r}
		}
	}()
	res = w.Run(f)
	return res, nil
}

// DeadlockError is the failure a Run panics with when the SPMD program
// makes no forward progress (typically a Recv with no matching Send, or
// processors entering collectives in different orders on a path the
// collective-mismatch check cannot see): found exactly by a scheduler
// that sees no processor able to proceed (Timeout zero), or by an armed
// watchdog when its timeout expires. Dump holds the backend's
// per-processor blocked-state report, turning a silent hang into an
// actionable message.
type DeadlockError struct {
	Backend string // the failing world's RunError.Backend: the Error() prefix
	Timeout time.Duration
	Dump    string
}

func (e *DeadlockError) Error() string {
	if e.Timeout == 0 {
		return fmt.Sprintf("%s: deadlock: no processor can proceed\n%s", e.Backend, e.Dump)
	}
	return fmt.Sprintf("%s: watchdog: run still blocked after %v\n%s", e.Backend, e.Timeout, e.Dump)
}
