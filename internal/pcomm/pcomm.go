// Package pcomm defines the communicator abstraction the SPMD algorithm
// stack (dist, mis, core, krylov, experiments, service) is written
// against. A Comm is one virtual processor's handle inside a World.Run;
// a World is a P-processor execution backend.
//
// Three backends implement the abstraction:
//
//   - the modelled machine (internal/machine, wrapped by
//     internal/pcomm/modelled): the paper's simulated Cray T3D with
//     LogP-style virtual clocks. Time() is modelled seconds.
//   - the shared-memory backend (internal/pcomm/realcomm) and the
//     multi-process socket backend (internal/pcomm/netcomm): transports
//     under the one wall-clock engine (internal/pcomm/engine), which owns
//     the mailboxes, the processor handle and the collectives. Time() is
//     wall-clock seconds since Run started.
//
// All three run under the same Supervisor and reduce through the same
// Fold, and are bit-compatible in the Dong & Cooperman sense
// (arXiv:0803.0048): an SPMD program that follows the repo's SPMD
// invariants (see internal/analysis) produces bitwise-identical
// floating-point results on each, because every collective combines
// contributions in processor-rank order. Only the clocks differ.
package pcomm

import (
	"time"

	"repro/internal/trace"
)

// ReduceOp selects the combining operator of an AllReduce.
type ReduceOp int

// Reduction operators.
const (
	OpSum ReduceOp = iota
	OpMax
	OpMin
)

// Stats accumulates per-processor activity. On the modelled backend Time
// and Busy are virtual (modelled) seconds; on the real backend Time is
// wall-clock seconds and Busy is not tracked (zero). The message and
// flop counters are backend-independent: both backends count the same
// program the same way.
type Stats struct {
	Flops       float64
	MsgsSent    int64
	BytesSent   int64
	Collectives int64
	Time        float64 // final clock (modelled or wall-clock seconds)
	// Busy is the clock time spent computing (Work/Sleep); Time − Busy is
	// communication, synchronization and idling — the overhead the paper's
	// scalability analysis is about. Modelled backend only.
	Busy float64
}

// Result summarizes a completed Run.
type Result struct {
	Elapsed float64 // max clock over processors (modelled or wall seconds)
	PerProc []Stats
}

// NewResult assembles a Result from the per-processor stats: Elapsed is
// the largest final clock.
func NewResult(perProc []Stats) Result {
	res := Result{PerProc: perProc}
	for _, st := range perProc {
		if st.Time > res.Elapsed {
			res.Elapsed = st.Time
		}
	}
	return res
}

// TotalFlops sums the flop counts of all processors.
func (r Result) TotalFlops() float64 {
	var s float64
	for _, st := range r.PerProc {
		s += st.Flops
	}
	return s
}

// TotalBytes sums the bytes sent by all processors.
func (r Result) TotalBytes() int64 {
	var s int64
	for _, st := range r.PerProc {
		s += st.BytesSent
	}
	return s
}

// OverheadFraction reports the share of processor-time spent on
// communication, synchronization and idling: 1 − Σbusy / (P × makespan).
// Meaningful on the modelled backend only (the real backend does not
// track Busy).
func (r Result) OverheadFraction() float64 {
	if r.Elapsed == 0 {
		return 0
	}
	var busy float64
	for _, st := range r.PerProc {
		busy += st.Busy
	}
	return 1 - busy/(r.Elapsed*float64(len(r.PerProc)))
}

// Comm is one virtual processor's communicator: everything the SPMD
// algorithm stack may do that touches another processor or the clock.
// A Comm must only be used from the goroutine Run handed it to (the
// procescape analyzer enforces this), and payloads handed to Send and
// AllGather must not alias memory the sender retains (sendalias).
type Comm interface {
	// ID returns this processor's rank in [0, P).
	ID() int
	// P returns the number of processors in the run.
	P() int
	// Time returns the processor's current clock in seconds: modelled
	// seconds on the simulator, wall-clock seconds since Run on the real
	// backend.
	Time() float64
	// Work accounts flops of local computation; the modelled backend also
	// advances the virtual clock by flops × FlopTime.
	Work(flops float64)
	// Sleep models non-flop local work (copying, sorting) of dt seconds;
	// a no-op on the real backend, where such work takes its actual time.
	Sleep(dt float64)
	// Stats returns a snapshot of the processor's counters.
	Stats() Stats
	// Tracer returns the processor's trace sink, nil when tracing is off.
	Tracer() *trace.ProcTracer

	// Send delivers payload to processor dst under tag. bytes is the wire
	// size for the cost model and the traffic counters (use the BytesOf*
	// helpers; the bytesarg analyzer enforces this). Sends are
	// asynchronous and unbounded; matching is FIFO per (src, dst, tag).
	Send(dst, tag int, payload any, bytes int)
	// Recv blocks until a message with the given tag from src is
	// available and returns its payload.
	Recv(src, tag int) any

	// Barrier synchronizes all processors.
	Barrier()
	// AllReduceFloat64 combines one float64 per processor with op; all
	// processors receive the result. Both backends fold contributions in
	// rank order, so the result is bitwise identical across backends.
	AllReduceFloat64(v float64, op ReduceOp) float64
	// AllReduceInt combines one int per processor with op.
	AllReduceInt(v int, op ReduceOp) int
	// AllGather deposits one value per processor and returns the slice
	// indexed by processor rank. bytes is the per-processor payload size.
	AllGather(v any, bytes int) []any
}

// World is a P-processor execution backend. A World is single-use:
// create one per parallel run.
type World interface {
	// NumProcs returns P.
	NumProcs() int
	// Run executes f on every processor concurrently and returns once all
	// have finished. If any processor panics, all blocked processors are
	// woken and Run panics with a *RunError carrying the failing rank,
	// root cause, stack trace and blocked-state dump; catch it with
	// Guard to contain the failure to this run.
	Run(f func(Comm)) Result
	// SetWatchdog arms a per-Run deadlock timeout. Must be called before
	// Run; d ≤ 0 disables the watchdog.
	SetWatchdog(d time.Duration)
	// SetRecorder attaches a trace recorder covering at least P
	// processors. Must be called before Run; nil keeps tracing off.
	SetRecorder(r *trace.Recorder)
}

// AllGatherInts gathers one []int per processor.
func AllGatherInts(c Comm, xs []int) [][]int { return AllGatherSlice(c, xs) }

// AllGatherFloats gathers one []float64 per processor.
func AllGatherFloats(c Comm, xs []float64) [][]float64 { return AllGatherSlice(c, xs) }
