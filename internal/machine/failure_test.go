package machine

import (
	"strings"
	"testing"
	"time"

	"repro/internal/pcomm"
)

// The contract shared with the other backends (root cause, single use,
// mismatch, watchdog) is pcommtest.Conformance; this pins the machine's
// own dump format: arrival counts and last-seen virtual clocks.
func TestWatchdogCollectiveDeadlockDump(t *testing.T) {
	m := New(3, Zero())
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
		if !strings.Contains(de.Dump, `waiting in collective "barrier" (2 of 3 arrived)`) {
			t.Errorf("dump missing collective wait:\n%s", de.Dump)
		}
		if !strings.Contains(de.Dump, "proc 2: blocked in Recv(src=0, tag=1) at t=") {
			t.Errorf("dump missing recv wait:\n%s", de.Dump)
		}
		if !strings.HasPrefix(de.Error(), "machine: watchdog: run still blocked after 50ms\nP=3 processors:") {
			t.Errorf("Error() lost the machine wording: %s", de.Error())
		}
	}()
	m.Run(func(p *Proc) {
		// Proc 2 waits for a message that never comes while the others
		// enter the barrier: a one-sided collective, the static form of
		// which the collective analyzer flags.
		if p.ID() == 2 {
			p.Recv(0, 1)
		} else {
			p.Barrier()
		}
	})
}
