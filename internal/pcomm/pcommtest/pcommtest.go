// Package pcommtest builds worlds for tests. New honors $PILUT_BACKEND
// so the whole tier-1 suite can run against any backend — the modelled
// simulator, the shared-memory realcomm, or a netcomm process group
// ("netcomm:spawn=2" re-executes the test binary and spreads each
// world's ranks across OS processes) — and $PILUT_FAULTS so the chaos
// lane can replay the entire suite under deterministic fault injection
// (delay-only specs keep every numerical assertion valid — see
// internal/fault). Tests that assert modelled virtual-time numbers
// should call machine.New directly instead.
package pcommtest

import (
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/pcomm"
	"repro/internal/pcomm/backend"
	"repro/internal/pcomm/netcomm"
)

// Backend reports the backend kind tests run under ("modelled" unless
// $PILUT_BACKEND says otherwise). Netcomm kinds are full specs.
func Backend() string {
	if k := os.Getenv(backend.EnvVar); k != "" {
		return k
	}
	return backend.Modelled
}

// Netcomm reports whether tests run over the multi-process backend.
// Tests whose harness cannot span OS processes (anything driving a
// service request stream, which only exists in one process) skip under
// it.
func Netcomm() bool {
	return netcomm.IsSpec(Backend())
}

// New creates a world with p processors using the backend selected by
// $PILUT_BACKEND, failing the test on an unknown kind. cost applies to
// the modelled backend only. When $PILUT_FAULTS is set, the world is
// wrapped in the fault-injection layer with a fresh spec per call so
// one-shot faults rearm for every test.
func New(t testing.TB, p int, cost machine.CostModel) pcomm.World {
	t.Helper()
	w, err := backend.FromEnv(p, cost)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := fault.FromEnv()
	if err != nil {
		t.Fatal(err)
	}
	return spec.World(w)
}

// QuiesceAllocs readies the runtime for a window in which a test counts
// mallocs: it collects garbage, then restocks the scheduler's sudog
// caches, whose central one the collection emptied. A goroutine that
// sleeps takes a sudog from its P and, woken from another P, returns it
// there; a P that runs dry refills from the central cache, and with that
// empty each refill is a malloc of the runtime's, not of the code under
// test. Blocking more goroutines at once than the per-P caches hold,
// then releasing them, leaves every cache full.
func QuiesceAllocs() {
	runtime.GC()
	sleepers := 256 * runtime.GOMAXPROCS(0) // a P's cache holds 128
	gate := make(chan struct{})
	var blocked, done sync.WaitGroup
	blocked.Add(sleepers)
	done.Add(sleepers)
	for i := 0; i < sleepers; i++ {
		go func() {
			defer done.Done()
			blocked.Done()
			<-gate
		}()
	}
	blocked.Wait()
	time.Sleep(time.Millisecond) // the last few reach their receive
	close(gate)
	done.Wait()
}
