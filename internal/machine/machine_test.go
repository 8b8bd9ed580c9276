// The cost models' clock as the modelled backend applies it: these run
// on modelled.New, the engine's modelled clock over realcomm's transport.
package machine_test

import (
	"math"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/machine"
	"repro/internal/pcomm"
	"repro/internal/pcomm/modelled"
)

func TestClockAdvancesOnWork(t *testing.T) {
	cost := machine.CostModel{FlopTime: 1e-6}
	m := modelled.New(1, cost)
	res := m.Run(func(p pcomm.Comm) {
		p.Work(1000)
	})
	if math.Abs(res.Elapsed-1e-3) > 1e-12 {
		t.Fatalf("elapsed = %v, want 1e-3", res.Elapsed)
	}
	if res.PerProc[0].Flops != 1000 {
		t.Fatalf("flops = %v", res.PerProc[0].Flops)
	}
}

func TestMessageTimestampPropagation(t *testing.T) {
	cost := machine.CostModel{FlopTime: 1e-6, Latency: 1e-3, ByteTime: 1e-6}
	m := modelled.New(2, cost)
	var recvTime float64
	m.Run(func(p pcomm.Comm) {
		if p.ID() == 0 {
			p.Work(5000) // clock = 5ms
			p.Send(1, 0, nil, 1000)
		} else {
			p.Recv(0, 0)
			recvTime = p.Time()
		}
	})
	// Receiver idle until 5ms + 1ms latency + 1ms transfer = 7ms.
	want := 0.007
	if math.Abs(recvTime-want) > 1e-9 {
		t.Fatalf("recv clock = %v, want %v", recvTime, want)
	}
}

func TestRecvDoesNotRewindClock(t *testing.T) {
	cost := machine.CostModel{FlopTime: 1e-6, Latency: 1e-6}
	m := modelled.New(2, cost)
	var recvTime float64
	m.Run(func(p pcomm.Comm) {
		if p.ID() == 0 {
			p.Send(1, 0, nil, 0) // arrives early
		} else {
			p.Work(1e6) // 1 second of local work first
			p.Recv(0, 0)
			recvTime = p.Time()
		}
	})
	if recvTime < 1.0 {
		t.Fatalf("clock rewound to %v", recvTime)
	}
}

func TestBarrierSynchronizesClocks(t *testing.T) {
	cost := machine.CostModel{FlopTime: 1e-6, Latency: 1e-6}
	m := modelled.New(4, cost)
	times := make([]float64, 4)
	m.Run(func(p pcomm.Comm) {
		p.Work(float64(p.ID()) * 1000) // uneven work
		p.Barrier()
		times[p.ID()] = p.Time()
	})
	for i := 1; i < 4; i++ {
		if times[i] != times[0] {
			t.Fatalf("clocks differ after barrier: %v", times)
		}
	}
	if times[0] < 3e-3 {
		t.Fatalf("barrier time %v below slowest processor", times[0])
	}
}

func TestElapsedIsMax(t *testing.T) {
	cost := machine.CostModel{FlopTime: 1e-6}
	m := modelled.New(3, cost)
	res := m.Run(func(p pcomm.Comm) {
		p.Work(float64(p.ID()) * 1e6)
	})
	if math.Abs(res.Elapsed-2.0) > 1e-9 {
		t.Fatalf("Elapsed = %v, want 2.0", res.Elapsed)
	}
}

func TestManyProcessorsStress(t *testing.T) {
	m := modelled.New(64, machine.Zero())
	var total int64
	m.Run(func(p pcomm.Comm) {
		// Ring exchange.
		next := (p.ID() + 1) % 64
		prev := (p.ID() + 63) % 64
		p.Send(next, 5, p.ID(), 8)
		v := p.Recv(prev, 5).(int)
		atomic.AddInt64(&total, int64(v))
		p.Barrier()
	})
	if total != 64*63/2 {
		t.Fatalf("ring total = %d", total)
	}
}

// Property: virtual clocks are non-decreasing through any sequence of
// operations, and barrier leaves all clocks equal.
func TestClockMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		if seed < 0 {
			seed = -(seed + 1)
		}
		p := int(seed%4) + 2
		m := modelled.New(p, machine.T3D())
		ok := int32(1)
		m.Run(func(pr pcomm.Comm) {
			last := pr.Time()
			check := func() {
				if pr.Time() < last {
					atomic.StoreInt32(&ok, 0)
				}
				last = pr.Time()
			}
			pr.Work(float64((seed%100)+1) * 10)
			check()
			pr.Send((pr.ID()+1)%p, 1, nil, int(seed%1000))
			check()
			pr.Recv((pr.ID()+p-1)%p, 1)
			check()
			pr.Barrier()
			check()
			pr.AllReduceFloat64(1, pcomm.OpSum)
			check()
		})
		return ok == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestT3DConstantsSane(t *testing.T) {
	c := machine.T3D()
	if c.FlopTime <= 0 || c.Latency <= 0 || c.ByteTime <= 0 {
		t.Fatal("T3D constants must be positive")
	}
	w := machine.Workstation()
	if w.Latency <= c.Latency {
		t.Error("workstation network should be slower than T3D")
	}
}

func TestSleepAdvancesClock(t *testing.T) {
	m := modelled.New(1, machine.Zero())
	res := m.Run(func(p pcomm.Comm) {
		p.Sleep(0.25)
	})
	if res.Elapsed != 0.25 {
		t.Fatalf("Elapsed = %v, want 0.25", res.Elapsed)
	}
}

func TestProcStatsSnapshot(t *testing.T) {
	m := modelled.New(1, machine.CostModel{FlopTime: 1})
	m.Run(func(p pcomm.Comm) {
		p.Work(3)
		s := p.Stats()
		if s.Flops != 3 || s.Time != 3 {
			panic("stats snapshot wrong")
		}
	})
}

func TestTotalFlopsAndResult(t *testing.T) {
	m := modelled.New(2, machine.CostModel{FlopTime: 1e-9})
	res := m.Run(func(p pcomm.Comm) {
		p.Work(100)
	})
	if res.TotalFlops() != 200 {
		t.Fatalf("TotalFlops = %v", res.TotalFlops())
	}
}

func TestBusyAndOverheadAccounting(t *testing.T) {
	cost := machine.CostModel{FlopTime: 1e-3, Latency: 1e-3}
	m := modelled.New(2, cost)
	res := m.Run(func(p pcomm.Comm) {
		if p.ID() == 0 {
			p.Work(10) // 10 ms busy
			p.Send(1, 0, nil, 0)
		} else {
			p.Recv(0, 0) // idles ~11 ms
		}
	})
	if res.PerProc[0].Busy <= 0 {
		t.Fatal("no busy time recorded")
	}
	of := res.OverheadFraction()
	if of <= 0 || of >= 1 {
		t.Fatalf("overhead fraction %v out of (0,1)", of)
	}
	// Proc 1 did no work: overhead ≥ 50% of processor-time minus proc 0's
	// send overhead share.
	if of < 0.4 {
		t.Fatalf("overhead fraction %v implausibly low", of)
	}
}
