package machine_test

import (
	"strings"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/pcomm"
	"repro/internal/pcomm/modelled"
)

// The contract shared with the other backends (root cause, single use,
// mismatch, watchdog) is pcommtest.Conformance; this pins what the
// modelled world's dump adds: each processor's virtual clock and the
// arrival count of the collective in progress.
func TestWatchdogCollectiveDeadlockDump(t *testing.T) {
	m := modelled.New(3, machine.T3D())
	m.SetWatchdog(50 * time.Millisecond)
	defer func() {
		r := recover()
		re, ok := r.(*pcomm.RunError)
		if !ok {
			t.Fatalf("expected *pcomm.RunError, got %v", r)
		}
		de, ok := re.Cause.(*pcomm.DeadlockError)
		if !ok {
			t.Fatalf("expected *DeadlockError cause, got %v", re.Cause)
		}
		for _, want := range []string{
			`proc 0: waiting in collective "barrier" at t=1.000e-03`,
			"proc 2: blocked in Recv(src=0, tag=1) at t=0.000e+00",
			"collective 0: 2 of 3 arrived",
		} {
			if !strings.Contains(de.Dump, want) {
				t.Errorf("dump missing %q:\n%s", want, de.Dump)
			}
		}
		if !strings.HasPrefix(de.Error(), "machine: watchdog: run still blocked after 50ms\nP=3 processors:") {
			t.Errorf("Error() lost the machine wording: %s", de.Error())
		}
	}()
	m.Run(func(p pcomm.Comm) {
		// Proc 2 waits for a message that never comes while the others
		// enter the barrier: a one-sided collective, the static form of
		// which the collective analyzer flags.
		if p.ID() == 2 {
			p.Recv(0, 1)
		} else {
			p.Work(15e3) // 1 ms on the T3D
			p.Barrier()
		}
	})
}
