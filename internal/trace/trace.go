// Package trace is a zero-dependency event and span recorder keyed on the
// virtual clocks of the simulated machine. It gives every phase of the
// reproduction — interior factorization, per-level interface elimination,
// MIS rounds, Krylov iterations, service batches — a place to record what
// happened and when, in *modelled* time, without perturbing the LogP cost
// model: recording never touches a processor's clock, and the nil-recorder
// fast path makes every call site a single pointer comparison when tracing
// is off.
//
// Each virtual processor owns a private ProcTracer and appends to it from
// its own goroutine, so recording takes no locks during a run; the Recorder
// merges the per-processor buffers into one deterministic event sequence
// after the machine run completes. Exports are the Chrome trace-event JSON
// format (see chrome.go), loadable in Perfetto or chrome://tracing.
package trace

import "sort"

// Kind discriminates the event shapes of the Chrome trace-event format we
// use: complete spans ("X") and instants ("i").
type Kind uint8

// Event kinds.
const (
	KindSpan Kind = iota
	KindInstant
)

// Arg is one key/value annotation on an event. Numeric values are held as
// float64 (Chrome renders them natively); string values are tagged.
type Arg struct {
	Key   string
	Num   float64
	Str   string
	IsStr bool
}

// F annotates an event with a float64 value.
func F(key string, v float64) Arg { return Arg{Key: key, Num: v} }

// I annotates an event with an integer value.
func I(key string, v int) Arg { return Arg{Key: key, Num: float64(v)} }

// S annotates an event with a string value.
func S(key, v string) Arg { return Arg{Key: key, Str: v, IsStr: true} }

// Event is one recorded trace event. Ts and Dur are virtual seconds (the
// machine's modelled clock), not wall time.
type Event struct {
	Kind Kind
	Cat  string
	Name string
	Proc int
	Ts   float64
	Dur  float64 // spans only
	Args []Arg
	Seq  uint64 // per-processor program order, for a stable merge
}

// ProcTracer is one virtual processor's private event buffer. A nil
// ProcTracer is valid and records nothing — every method begins with a nil
// check, so call sites need no guards for correctness. Hot paths should
// still test Enabled() before building variadic args, so that a disabled
// recorder costs one branch and zero allocations.
type ProcTracer struct {
	proc   int
	seq    uint64
	events []Event
}

// Enabled reports whether events are being recorded.
func (t *ProcTracer) Enabled() bool { return t != nil }

// Span records a completed span covering [start, end] in virtual seconds.
func (t *ProcTracer) Span(cat, name string, start, end float64, args ...Arg) {
	if t == nil {
		return
	}
	t.events = append(t.events, Event{
		Kind: KindSpan, Cat: cat, Name: name, Proc: t.proc,
		Ts: start, Dur: end - start, Args: args, Seq: t.seq,
	})
	t.seq++
}

// Instant records a point event at ts virtual seconds.
func (t *ProcTracer) Instant(cat, name string, ts float64, args ...Arg) {
	if t == nil {
		return
	}
	t.events = append(t.events, Event{
		Kind: KindInstant, Cat: cat, Name: name, Proc: t.proc,
		Ts: ts, Args: args, Seq: t.seq,
	})
	t.seq++
}

// Recorder collects the events of one machine run. Create one per run with
// NewRecorder and attach it before the run starts; read it only after the
// run completes (the per-processor buffers are written concurrently while
// processors execute).
type Recorder struct {
	procs []*ProcTracer
}

// NewRecorder returns a recorder for nprocs virtual processors.
func NewRecorder(nprocs int) *Recorder {
	r := &Recorder{procs: make([]*ProcTracer, nprocs)}
	for i := range r.procs {
		r.procs[i] = &ProcTracer{proc: i}
	}
	return r
}

// Proc returns processor id's tracer. A nil Recorder (tracing off) returns
// a nil ProcTracer, which records nothing.
func (r *Recorder) Proc(id int) *ProcTracer {
	if r == nil || id < 0 || id >= len(r.procs) {
		return nil
	}
	return r.procs[id]
}

// NumProcs reports how many processors the recorder covers.
func (r *Recorder) NumProcs() int {
	if r == nil {
		return 0
	}
	return len(r.procs)
}

// Events merges every processor's buffer into one sequence ordered by
// (Ts, Proc, Seq). The ordering is fully determined by the virtual clocks
// and per-processor program order, so two identical runs produce identical
// sequences — the determinism tests rely on this.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	total := 0
	for _, pt := range r.procs {
		total += len(pt.events)
	}
	out := make([]Event, 0, total)
	for _, pt := range r.procs {
		out = append(out, pt.events...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := &out[i], &out[j]
		if a.Ts != b.Ts {
			return a.Ts < b.Ts
		}
		if a.Proc != b.Proc {
			return a.Proc < b.Proc
		}
		return a.Seq < b.Seq
	})
	return out
}
