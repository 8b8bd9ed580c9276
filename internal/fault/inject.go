package fault

import (
	"math/rand"
	"time"

	"repro/internal/pcomm"
	"repro/internal/trace"
)

// World wraps w so every communicator it hands out injects s's faults.
// A nil or disabled spec returns w unchanged, so production paths can
// call this unconditionally.
func (s *Spec) World(w pcomm.World) pcomm.World {
	if !s.Enabled() {
		return w
	}
	return &world{inner: w, spec: s}
}

type world struct {
	inner pcomm.World
	spec  *Spec
}

func (w *world) NumProcs() int                 { return w.inner.NumProcs() }
func (w *world) SetWatchdog(d time.Duration)   { w.inner.SetWatchdog(d) }
func (w *world) SetRecorder(r *trace.Recorder) { w.inner.SetRecorder(r) }

// Run injects the spec into every rank. When the run dies, the
// *pcomm.RunError's dump gains a report of the destructive faults that
// fired — including which transport each drop severed — so a chaos
// failure is diagnosable from the error alone.
func (w *world) Run(f func(pcomm.Comm)) pcomm.Result {
	defer func() {
		if r := recover(); r != nil {
			if re, ok := r.(*pcomm.RunError); ok {
				if report := w.spec.armedReport(); report != "" {
					if re.Dump != "" {
						re.Dump += "\n"
					}
					re.Dump += report
				}
			}
			panic(r)
		}
	}()
	return w.inner.Run(func(c pcomm.Comm) { f(w.spec.wrap(c)) })
}

// wrap builds the per-processor injector. The RNG is seeded from
// (Seed, rank) only, so each rank's fault schedule is a pure function of
// the spec and its own operation sequence — independent of goroutine
// interleaving, hence reproducible.
func (s *Spec) wrap(c pcomm.Comm) pcomm.Comm {
	return &injector{
		Comm: c,
		spec: s,
		rng:  rand.New(rand.NewSource(s.Seed ^ (int64(c.ID()+1) * 0x5DEECE66D))),
	}
}

// injector wraps a Comm; the embedded interface passes the local-only
// methods (ID, P, Time, Work, Sleep, Stats, Tracer) straight through,
// and every communication method — boxed and raw alike, since embedding
// would otherwise promote the raw ones past the schedule — runs the
// fault schedule first: raw sends count toward drop=, raw ops toward
// panic=.
type injector struct {
	pcomm.Comm
	spec *Spec
	rng  *rand.Rand
	ops  int // communicator operations so far, for panic=RANK@NTH
	sent int // sends so far, for drop=RANK@NTH
}

// beforeOp advances the per-rank operation count and fires panic and
// delay faults due at this operation.
func (in *injector) beforeOp(op string) {
	in.ops++
	s := in.spec
	if s.PanicNth > 0 && s.PanicRank == in.ID() && in.ops == s.PanicNth && s.firePanic() {
		s.record(in.ID(), in.ops, "panic", op)
		panic(&InjectedPanic{Rank: in.ID(), Op: in.ops, At: op})
	}
	if s.DelayProb > 0 && in.rng.Float64() < s.DelayProb {
		dt := s.DelayMean * in.rng.ExpFloat64()
		s.record(in.ID(), in.ops, "delay", op)
		// Sleep advances the modelled virtual clock; the wall sleep (a
		// no-op amount on the simulator's scale, capped so huge modelled
		// delays stay testable) perturbs real-backend timing. Neither
		// touches a floating-point value: collectives fold in rank
		// order whenever processors arrive, so results stay bitwise
		// identical under delay-only specs.
		in.Comm.Sleep(dt)
		time.Sleep(min(time.Duration(dt*float64(time.Second)), time.Millisecond))
	}
}

// dropThis reports whether this send is the spec's dropped one. On a
// backend with a real transport (netcomm), the drop also severs the
// connection toward dst — exercising the receiver's half-close handling
// and the sender's redial path — and records which transport it cut; on
// in-memory backends the message is swallowed with nothing to sever.
func (in *injector) dropThis(dst int) bool {
	s := in.spec
	in.sent++
	if s.DropNth > 0 && s.DropRank == in.ID() && in.sent == s.DropNth && s.fireDrop() {
		detail := ""
		if td, ok := in.Comm.(pcomm.TransportDropper); ok {
			detail = td.DropTransport(dst)
		}
		s.recordDetail(in.ID(), in.ops, "drop", "send", detail)
		return true
	}
	return false
}

func (in *injector) Send(dst, tag int, payload any, bytes int) {
	in.beforeOp("send")
	if in.dropThis(dst) {
		return
	}
	in.Comm.Send(dst, tag, payload, bytes)
}

func (in *injector) Recv(src, tag int) any {
	in.beforeOp("recv")
	return in.Comm.Recv(src, tag)
}

func (in *injector) Barrier() {
	in.beforeOp("barrier")
	in.Comm.Barrier()
}

func (in *injector) AllReduceFloat64(v float64, op pcomm.ReduceOp) float64 {
	in.beforeOp("allreduce_float64")
	return in.Comm.AllReduceFloat64(v, op)
}

func (in *injector) AllReduceInt(v int, op pcomm.ReduceOp) int {
	in.beforeOp("allreduce_int")
	return in.Comm.AllReduceInt(v, op)
}

func (in *injector) AllGatherRaw(h pcomm.RawSlice) []pcomm.RawSlice {
	in.beforeOp("allgather")
	return in.Comm.AllGatherRaw(h)
}

func (in *injector) SendRaw(dst, tag int, h pcomm.RawSlice) {
	in.beforeOp("send")
	if in.dropThis(dst) {
		return
	}
	in.Comm.SendRaw(dst, tag, h)
}

func (in *injector) RecvRaw(src, tag int) pcomm.RawSlice {
	in.beforeOp("recv")
	return in.Comm.RecvRaw(src, tag)
}
