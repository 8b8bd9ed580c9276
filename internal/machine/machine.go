// Package machine simulates the distributed-memory message-passing computer
// the paper runs on (a Cray T3D). P virtual processors execute SPMD Go code
// as goroutines; all inter-processor data flow goes through explicit
// Send/Recv and collectives, exactly as an MPI program would be structured.
//
// Each virtual processor carries a virtual clock advanced by a LogP-style
// cost model: computation advances the local clock by flops × FlopTime;
// a message arrives at senderTime + Latency + bytes × ByteTime, and the
// receiver's clock jumps to at least the arrival time; collectives cost a
// logarithmic number of message steps. The modelled elapsed time of a run
// is the maximum clock over processors — the makespan of the communication
// DAG — which reproduces the *scaling shape* a real distributed machine
// exhibits even though the host has far fewer physical cores.
package machine

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/pcomm"
	"repro/internal/trace"
)

// CostModel holds the machine constants of the LogP-style clock.
type CostModel struct {
	FlopTime float64 // seconds per floating-point operation
	Latency  float64 // seconds per point-to-point message (wire + software)
	ByteTime float64 // seconds per payload byte
	Overhead float64 // CPU seconds charged to each end per message
}

// T3D returns constants approximating the paper's Cray T3D: 150 MHz Alpha
// EV4 processors sustaining ~15 Mflop/s on sparse kernels, a few µs of
// message latency (the T3D's remote-store network was unusually fast for
// its era — "a small latency" in the paper's words), and ~150 MB/s links.
func T3D() CostModel {
	return CostModel{
		FlopTime: 1.0 / 15e6,
		Latency:  5e-6,
		ByteTime: 1.0 / 150e6,
		Overhead: 1e-6,
	}
}

// Workstation returns constants for a cluster of T3D-class nodes on a
// commodity Ethernet-class network: identical processors, two orders of
// magnitude more latency, an order of magnitude less bandwidth. Only the
// network differs from T3D(), isolating the effect the paper's conclusion
// is about — ILUT*'s synchronization savings matter most on slow networks.
func Workstation() CostModel {
	return CostModel{
		FlopTime: 1.0 / 15e6,
		Latency:  500e-6,
		ByteTime: 1.0 / 10e6,
		Overhead: 10e-6,
	}
}

// Zero returns a cost model in which time never advances; useful for tests
// that only care about data movement semantics.
func Zero() CostModel { return CostModel{} }

type message struct {
	tag     int
	payload any
	arrival float64
}

// Machine is a P-processor virtual machine. A Machine is single-use:
// create one per parallel run — Run panics if called a second time, since
// mailboxes, rendezvous buffers and failure state would otherwise leak
// from one generation of processors into the next.
type Machine struct {
	P    int
	Cost CostModel

	// sup is the run lifecycle shared with the wall-clock backends:
	// single-use flag, watchdog, first-failure record, *pcomm.RunError.
	sup *pcomm.Supervisor

	mu   sync.Mutex
	cond *sync.Cond
	mail []msgQueue // index src*P + dst

	rvOp     string
	rvCount  int
	rvGen    int64
	rvVals   []any
	rvTimes  []float64
	rvResult *rvResult

	procs []*Proc // the run's processors, for the watchdog dump
}

// msgQueue is one (src, dst) mailbox. Each mailbox carries its own
// condition variable (on the machine mutex) so a Send wakes only the one
// processor that can possibly consume the message, not every parked
// processor in the machine — the previous global cond.Broadcast cost
// O(P²) spurious wakeups per exchange phase at large P.
type msgQueue struct {
	q    []message
	cond *sync.Cond
}

type rvResult struct {
	vals    []any
	maxTime float64
}

// New creates a machine with P processors and the given cost model.
func New(p int, cost CostModel) *Machine {
	if p < 1 {
		panic("machine: need at least one processor")
	}
	m := &Machine{P: p, Cost: cost, mail: make([]msgQueue, p*p)}
	m.sup = pcomm.NewSupervisor("modelled", "machine", "proc", p, m.dump, m.wakeAll)
	m.cond = sync.NewCond(&m.mu)
	for i := range m.mail {
		m.mail[i].cond = sync.NewCond(&m.mu)
	}
	m.rvVals = make([]any, p)
	m.rvTimes = make([]float64, p)
	return m
}

// NumProcs returns P; part of the pcomm.World surface.
func (m *Machine) NumProcs() int { return m.P }

// Proc is the handle a virtual processor uses inside Run. It must only be
// used from the goroutine it was handed to: never capture a *Proc in a go
// statement, store it in a package-level variable, or pass it through a
// channel (the procescape analyzer enforces this).
type Proc struct {
	id int
	m  *Machine

	now   float64
	stats pcomm.Stats
	tr    *trace.ProcTracer // nil when tracing is off
	// fbuf and ibuf are the scratch an AllReduce unboxes the rendezvous'
	// values into for the shared rank-order pcomm.Fold.
	fbuf []float64
	ibuf []int

	// blocked describes what the processor is waiting on, for the
	// watchdog's deadlock dump. Guarded by m.mu; the clock field is the
	// last virtual time observed at a machine operation, which is safe to
	// read while the owning goroutine is blocked or between operations.
	blocked blockedState
}

// blockedState records why a processor is parked inside the machine.
type blockedState struct {
	kind  string // "" (running), "send", "recv", "collective"
	src   int    // recv: source processor
	dst   int    // send: destination processor
	tag   int    // send/recv: message tag
	op    string // collective: operation name
	clock float64
}

// Run executes f on every processor concurrently and returns once all have
// finished. If any processor panics, the panic value is captured, all
// blocked processors are woken with the same failure, and Run panics with
// a *pcomm.RunError carrying the failing rank, its stack trace, the root
// panic value, and a blocked-state dump of the other processors. Run may
// be called at most once per Machine.
func (m *Machine) Run(f func(*Proc)) pcomm.Result {
	rec := m.sup.Start()
	procs := make([]*Proc, m.P)
	for i := range procs {
		procs[i] = &Proc{id: i, m: m, tr: rec.Proc(i)}
	}
	m.mu.Lock()
	m.procs = procs
	m.mu.Unlock()
	m.sup.Supervise(0, m.P, func(rank int) { f(procs[rank]) }, nil)
	stats := make([]pcomm.Stats, m.P)
	for i, p := range procs {
		p.stats.Time = p.now
		stats[i] = p.stats
	}
	return pcomm.NewResult(stats)
}

// wakeAll is the supervisor's failure hook: it wakes every parked
// processor — collective waiters on the machine cond and receivers on
// their per-mailbox conds — so a failure (or the watchdog) reaches
// processors wherever they are blocked.
func (m *Machine) wakeAll(int, any) {
	m.mu.Lock()
	m.cond.Broadcast()
	for i := range m.mail {
		m.mail[i].cond.Broadcast()
	}
	m.mu.Unlock()
}

// SetRecorder attaches a trace recorder to the machine. It must be called
// before Run; the recorder must have been created for at least P
// processors. A nil recorder (the default) keeps tracing strictly off:
// every record site reduces to one nil pointer comparison and the virtual
// clocks are never touched either way, so the LogP cost model is
// identical with and without tracing.
func (m *Machine) SetRecorder(r *trace.Recorder) { m.sup.SetRecorder(r) }

// ID returns this processor's rank in [0, P).
func (p *Proc) ID() int { return p.id }

// P returns the number of processors in the run.
func (p *Proc) P() int { return p.m.P }

// Time returns the processor's current virtual clock in modelled seconds.
func (p *Proc) Time() float64 { return p.now }

// Tracer returns the processor's trace sink, nil when tracing is off. The
// returned value is safe to call either way; hot paths should guard with
// Enabled() to skip argument construction when tracing is off.
func (p *Proc) Tracer() *trace.ProcTracer { return p.tr }

// Machine returns the machine this processor belongs to.
func (p *Proc) Machine() *Machine { return p.m }

// Stats returns a snapshot of the processor's counters.
func (p *Proc) Stats() pcomm.Stats {
	s := p.stats
	s.Time = p.now
	return s
}

// Work advances the virtual clock by flops floating-point operations.
func (p *Proc) Work(flops float64) {
	p.stats.Flops += flops
	dt := flops * p.m.Cost.FlopTime
	p.now += dt
	p.stats.Busy += dt
}

// Sleep advances the virtual clock by dt modelled seconds without counting
// flops; used to model non-flop local work (copying, sorting).
func (p *Proc) Sleep(dt float64) {
	p.now += dt
	p.stats.Busy += dt
}

// Send delivers payload to processor dst under the given tag. bytes is the
// payload size used by the cost model (use BytesOf* helpers). Sends are
// asynchronous and unbounded; matching is FIFO per (src, dst, tag).
func (p *Proc) Send(dst, tag int, payload any, bytes int) {
	m := p.m
	if dst < 0 || dst >= m.P {
		panic(fmt.Sprintf("machine: Send to invalid processor %d", dst))
	}
	p.stats.MsgsSent++
	p.stats.BytesSent += int64(bytes)
	p.now += m.Cost.Overhead
	arrival := p.now + m.Cost.Latency + float64(bytes)*m.Cost.ByteTime
	if p.tr != nil {
		p.tr.Instant("machine", "send", p.now,
			trace.I("dst", dst), trace.I("tag", tag), trace.I("bytes", bytes))
	}
	m.mu.Lock()
	p.blocked = blockedState{kind: "send", dst: dst, tag: tag, clock: p.now}
	box := p.id*m.P + dst
	m.mail[box].q = append(m.mail[box].q, message{tag: tag, payload: payload, arrival: arrival})
	m.mail[box].cond.Signal()
	p.blocked = blockedState{clock: p.now}
	m.mu.Unlock()
}

// Recv blocks until a message with the given tag from src is available and
// returns its payload, advancing the clock to at least the arrival time.
func (p *Proc) Recv(src, tag int) any {
	m := p.m
	if src < 0 || src >= m.P {
		panic(fmt.Sprintf("machine: Recv from invalid processor %d", src))
	}
	t0 := p.now
	msg := p.takeMessage(src, tag)
	p.now += m.Cost.Overhead
	if msg.arrival > p.now {
		p.now = msg.arrival
	}
	if p.tr != nil {
		p.tr.Span("machine", "recv", t0, p.now,
			trace.I("src", src), trace.I("tag", tag))
	}
	return msg.payload
}

// takeMessage blocks until the mailbox holds a message with the given tag
// and removes it. The machine mutex is held with defer so that a failure
// panic cannot leak the lock. While parked, the processor's blocked state
// names the (src, tag) it is waiting on for the watchdog dump.
func (p *Proc) takeMessage(src, tag int) message {
	m := p.m
	box := src*m.P + p.id
	m.mu.Lock()
	defer m.mu.Unlock()
	p.blocked = blockedState{kind: "recv", src: src, tag: tag, clock: p.now}
	defer func() { p.blocked = blockedState{clock: p.blocked.clock} }()
	for {
		m.sup.CheckFailed()
		q := m.mail[box].q
		for i := range q {
			if q[i].tag == tag {
				msg := q[i]
				m.mail[box].q = append(q[:i], q[i+1:]...)
				return msg
			}
		}
		m.mail[box].cond.Wait()
	}
}

// collect is the rendezvous underlying every collective: all P processors
// deposit a value; everyone receives the full value slice and the maximum
// clock at entry. op names the collective for cross-call mismatch checks.
func (p *Proc) collect(op string, val any) ([]any, float64) {
	m := p.m
	p.stats.Collectives++
	m.mu.Lock()
	defer m.mu.Unlock()
	p.blocked = blockedState{kind: "collective", op: op, clock: p.now}
	defer func() { p.blocked = blockedState{clock: p.blocked.clock} }()
	m.sup.CheckFailed()
	if m.rvCount == 0 {
		m.rvOp = op
	} else if m.rvOp != op {
		panic(fmt.Sprintf("machine: collective mismatch: %q vs %q", m.rvOp, op))
	}
	m.rvVals[p.id] = val
	m.rvTimes[p.id] = p.now
	m.rvCount++
	myGen := m.rvGen
	if m.rvCount == m.P {
		maxT := math.Inf(-1)
		for _, t := range m.rvTimes {
			if t > maxT {
				maxT = t
			}
		}
		vals := append([]any(nil), m.rvVals...)
		m.rvResult = &rvResult{vals: vals, maxTime: maxT}
		m.rvCount = 0
		m.rvGen++
		m.cond.Broadcast()
		return vals, maxT
	}
	for m.rvGen == myGen {
		m.sup.CheckFailed()
		m.cond.Wait()
	}
	return m.rvResult.vals, m.rvResult.maxTime
}

// logP returns ceil(log2 P), at least 1.
func (p *Proc) logP() float64 {
	l := math.Ceil(math.Log2(float64(p.m.P)))
	if l < 1 {
		l = 1
	}
	return l
}

// traceCollective records a collective's span from the entry clock t0 to
// the processor's post-collective clock.
func (p *Proc) traceCollective(op string, t0 float64, bytes int) {
	if p.tr != nil {
		p.tr.Span("machine", op, t0, p.now, trace.I("bytes", bytes))
	}
}

// Barrier synchronizes all processors: everyone leaves with the same clock,
// max-over-procs plus a logarithmic synchronization cost.
func (p *Proc) Barrier() {
	t0 := p.now
	_, maxT := p.collect("barrier", nil)
	p.now = maxT + 2*p.logP()*p.m.Cost.Latency
	p.traceCollective("barrier", t0, 0)
}

// AllReduceFloat64 combines one float64 per processor with op; all
// processors receive the result.
func (p *Proc) AllReduceFloat64(v float64, op pcomm.ReduceOp) float64 {
	t0 := p.now
	vals, maxT := p.collect("allreduce_f64", v)
	p.now = maxT + p.collectiveCost(8)
	p.traceCollective("allreduce_f64", t0, 8)
	p.fbuf = pcomm.Unbox(p.fbuf, vals)
	return pcomm.Fold(p.fbuf, op)
}

// AllReduceInt combines one int per processor with op.
func (p *Proc) AllReduceInt(v int, op pcomm.ReduceOp) int {
	t0 := p.now
	vals, maxT := p.collect("allreduce_int", v)
	p.now = maxT + p.collectiveCost(8)
	p.traceCollective("allreduce_int", t0, 8)
	p.ibuf = pcomm.Unbox(p.ibuf, vals)
	return pcomm.Fold(p.ibuf, op)
}

// AllGather deposits one value per processor and returns the slice indexed
// by processor ID. bytes is the per-processor payload size for the cost
// model.
func (p *Proc) AllGather(v any, bytes int) []any {
	t0 := p.now
	vals, maxT := p.collect("allgather", v)
	// Recursive-doubling allgather moves ~P×bytes per processor total.
	p.now = maxT + p.logP()*p.m.Cost.Latency + float64(p.m.P*bytes)*p.m.Cost.ByteTime
	p.traceCollective("allgather", t0, bytes)
	return vals
}

// collectiveCost models an allreduce-style exchange of b bytes.
func (p *Proc) collectiveCost(b int) float64 {
	return p.logP() * (p.m.Cost.Latency + float64(b)*p.m.Cost.ByteTime)
}
