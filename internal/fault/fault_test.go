// Chaos tests for the fault-injection layer itself: determinism of the
// injected schedule, bitwise inertness of delay-only specs, and the
// containment contract (injected panics and drops surface as structured
// *pcomm.RunError values, never as process death or leaked goroutines)
// on both communication backends.
package fault_test

import (
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/ilu"
	"repro/internal/machine"
	"repro/internal/matgen"
	"repro/internal/partition"
	"repro/internal/pcomm"
	"repro/internal/pcomm/backend"
	"repro/internal/sparse"
)

func TestParseRoundTrip(t *testing.T) {
	cases := []string{
		"seed=7,delay=0.25@0.001",
		"seed=3,drop=1@4",
		"panic=2@9,pivot=1e-320",
		"seed=11,delay=0.1,drop=0@2,panic=1@5,pivot=1e-300",
		"killpeer=750",
		"seed=4,delay=0.1,killpeer=1500",
	}
	for _, text := range cases {
		s, err := fault.Parse(text)
		if err != nil {
			t.Fatalf("Parse(%q): %v", text, err)
		}
		s2, err := fault.Parse(s.String())
		if err != nil {
			t.Fatalf("Parse(String(%q)=%q): %v", text, s.String(), err)
		}
		if s.String() != s2.String() {
			t.Errorf("round trip of %q: %q != %q", text, s.String(), s2.String())
		}
	}
	for _, bad := range []string{
		"delay=2",      // probability out of range
		"drop=1",       // missing @NTH
		"panic=-1@3",   // negative rank
		"panic=1@0",    // nth must be ≥1
		"pivot=x",      // not a float
		"bogus=1",      // unknown clause
		"delay=0.5@-1", // negative mean
		"seed",         // not key=value
		"killpeer=0",   // must be ≥1 ms
		"killpeer=x",   // not an integer
	} {
		if _, err := fault.Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted a malformed spec", bad)
		}
	}
}

// TestKillPeerAfter pins the daemon-level contract: killpeer is invisible
// to the communication layer (Enabled stays false on a killpeer-only
// spec, so no fault world is wrapped) and KillPeerAfter converts the
// clause to a timer delay only when armed.
func TestKillPeerAfter(t *testing.T) {
	var nilSpec *fault.Spec
	if d, ok := nilSpec.KillPeerAfter(); ok || d != 0 {
		t.Fatalf("nil spec: KillPeerAfter = %v, %v; want 0, false", d, ok)
	}
	s, err := fault.Parse("killpeer=250")
	if err != nil {
		t.Fatal(err)
	}
	if s.Enabled() {
		t.Error("killpeer-only spec reports Enabled; the comm layer would wrap a fault world for nothing")
	}
	d, ok := s.KillPeerAfter()
	if !ok || d != 250*time.Millisecond {
		t.Errorf("KillPeerAfter = %v, %v; want 250ms, true", d, ok)
	}
	s2, err := fault.Parse("seed=7,delay=0.2")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.KillPeerAfter(); ok {
		t.Error("spec without killpeer reports an armed kill timer")
	}
}

// backends lists the communication backends every containment property
// must hold on.
var backends = []string{backend.Modelled, backend.Real}

func world(t *testing.T, kind string, p int) pcomm.World {
	t.Helper()
	w, err := backend.New(kind, p, machine.Zero())
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// factorAndSolveBits runs the parallel factorization of a small grid
// under spec (nil for the clean baseline) and returns the bit patterns
// of the gathered L and U values.
func factorAndSolveBits(t *testing.T, kind string, spec *fault.Spec) ([]uint64, []uint64) {
	t.Helper()
	const P = 4
	a := matgen.Grid2D(12, 12)
	g := graph.FromMatrix(a)
	part := partition.KWay(g, P, partition.Options{Seed: 5})
	lay, err := dist.NewLayout(a.N, P, part)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := core.NewPlan(a, lay)
	if err != nil {
		t.Fatal(err)
	}
	pcs := make([]*core.ProcPrecond, P)
	w := spec.World(world(t, kind, P))
	w.Run(func(p pcomm.Comm) {
		pcs[p.ID()] = core.Factor(p, plan, core.Options{
			Params: ilu.Params{M: 8, Tau: 1e-4, K: 2}, Seed: 7,
		})
	})
	f, _, err := core.GatherFactors(pcs)
	if err != nil {
		t.Fatal(err)
	}
	bits := func(c *sparse.CSR) []uint64 {
		out := make([]uint64, len(c.Vals))
		for i, v := range c.Vals {
			out[i] = math.Float64bits(v)
		}
		return out
	}
	return bits(f.L), bits(f.U)
}

// TestDelayFaultsAreBitwiseInert is the core safety property of the
// chaos lane: delays reorder arrival times but collectives fold in rank
// order, so a delay-only spec must leave every factor value bitwise
// unchanged against the fault-free baseline on both backends.
func TestDelayFaultsAreBitwiseInert(t *testing.T) {
	for _, kind := range backends {
		cleanL, cleanU := factorAndSolveBits(t, kind, nil)
		spec, err := fault.Parse("seed=42,delay=0.3@1e-5")
		if err != nil {
			t.Fatal(err)
		}
		delayL, delayU := factorAndSolveBits(t, kind, spec)
		if len(spec.Events()) == 0 {
			t.Fatalf("%s: delay spec injected nothing; test is vacuous", kind)
		}
		for i := range cleanL {
			if cleanL[i] != delayL[i] {
				t.Fatalf("%s: L[%d] changed under delay-only faults", kind, i)
			}
		}
		for i := range cleanU {
			if cleanU[i] != delayU[i] {
				t.Fatalf("%s: U[%d] changed under delay-only faults", kind, i)
			}
		}
	}
}

// TestSameSeedSameSchedule: the injected event schedule is a pure
// function of (spec, rank, op sequence) — two runs of the same program
// under fresh specs with the same seed inject identical faults, on
// either backend.
func TestSameSeedSameSchedule(t *testing.T) {
	for _, kind := range backends {
		run := func() []fault.Event {
			spec, err := fault.Parse("seed=9,delay=0.4@1e-6")
			if err != nil {
				t.Fatal(err)
			}
			factorAndSolveBits(t, kind, spec)
			return spec.Events()
		}
		ev1, ev2 := run(), run()
		if len(ev1) == 0 {
			t.Fatalf("%s: no events injected; test is vacuous", kind)
		}
		if len(ev1) != len(ev2) {
			t.Fatalf("%s: event counts differ: %d vs %d", kind, len(ev1), len(ev2))
		}
		for i := range ev1 {
			if ev1[i] != ev2[i] {
				t.Fatalf("%s: event %d differs: %+v vs %+v", kind, i, ev1[i], ev2[i])
			}
		}
	}
}

// TestInjectedPanicSurfacesAsRunError: a panic fault kills one rank
// mid-protocol; the world must unwind every sibling and report a
// structured *pcomm.RunError naming the rank, wrapping the
// *fault.InjectedPanic, with the injection site in the stack.
func TestInjectedPanicSurfacesAsRunError(t *testing.T) {
	for _, kind := range backends {
		spec, err := fault.Parse("seed=1,panic=1@3")
		if err != nil {
			t.Fatal(err)
		}
		w := spec.World(world(t, kind, 4))
		_, runErr := pcomm.Guard(w, func(p pcomm.Comm) {
			for i := 0; i < 5; i++ {
				p.Barrier()
			}
		})
		if runErr == nil {
			t.Fatalf("%s: injected panic did not fail the run", kind)
		}
		var re *pcomm.RunError
		if !errors.As(runErr, &re) {
			t.Fatalf("%s: error is %T, want *pcomm.RunError", kind, runErr)
		}
		if re.Rank != 1 {
			t.Errorf("%s: failing rank = %d, want 1", kind, re.Rank)
		}
		var ip *fault.InjectedPanic
		if !errors.As(runErr, &ip) || ip.Rank != 1 || ip.Op != 3 {
			t.Errorf("%s: cause = %#v, want InjectedPanic{Rank:1, Op:3}", kind, re.Cause)
		}
		if !strings.Contains(re.Stack, "beforeOp") {
			t.Errorf("%s: root-cause stack does not show the injection site:\n%s", kind, re.Stack)
		}
	}
}

// TestDroppedSendTripsWatchdog: swallowing one message blocks its
// receiver forever; the watchdog must convert that hang into a
// *pcomm.DeadlockError (via RunError) instead of hanging the process.
func TestDroppedSendTripsWatchdog(t *testing.T) {
	for _, kind := range backends {
		spec, err := fault.Parse("seed=1,drop=0@1")
		if err != nil {
			t.Fatal(err)
		}
		w := spec.World(world(t, kind, 2))
		w.SetWatchdog(500 * time.Millisecond)
		_, runErr := pcomm.Guard(w, func(p pcomm.Comm) {
			if p.ID() == 0 {
				p.Send(1, 7, 3.14, 8)
			} else {
				p.Recv(0, 7)
			}
		})
		if runErr == nil {
			t.Fatalf("%s: dropped send did not fail the run", kind)
		}
		var de *pcomm.DeadlockError
		if !errors.As(runErr, &de) {
			t.Fatalf("%s: error %v (%T) does not wrap a DeadlockError", kind, runErr, runErr)
		}
		var re *pcomm.RunError
		if !errors.As(runErr, &re) {
			t.Fatalf("%s: error is not a *pcomm.RunError", kind)
		}
		if re.Dump == "" {
			t.Errorf("%s: deadlock RunError carries no state dump", kind)
		}
	}
}

// TestNoGoroutineLeakAcrossFaults sweeps seeds over panic and drop
// faults on both backends and checks the goroutine count settles back:
// faults may kill runs, never leak their processor goroutines.
func TestNoGoroutineLeakAcrossFaults(t *testing.T) {
	before := runtime.NumGoroutine()
	for _, kind := range backends {
		for seed := int64(1); seed <= 3; seed++ {
			for _, text := range []string{"panic=0@2", "panic=2@4", "drop=1@1"} {
				spec, err := fault.Parse(text)
				if err != nil {
					t.Fatal(err)
				}
				spec.Seed = seed
				w := spec.World(world(t, kind, 4))
				w.SetWatchdog(300 * time.Millisecond)
				if _, runErr := pcomm.Guard(w, func(p pcomm.Comm) {
					for i := 0; i < 4; i++ {
						p.Barrier()
					}
					if p.ID() == 1 {
						p.Send(0, 1, 1.0, 8)
					}
					if p.ID() == 0 {
						p.Recv(1, 1)
					}
				}); runErr == nil {
					t.Fatalf("%s %s seed=%d: fault injected nothing", kind, text, seed)
				}
			}
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if g := runtime.NumGoroutine(); g <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: before=%d now=%d", before, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}
