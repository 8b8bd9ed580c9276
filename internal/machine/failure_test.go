package machine_test

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/pcomm"
	"repro/internal/pcomm/modelled"
)

// oneSided runs three modelled processors of which 0 and 1 compute 1 ms on
// the T3D and enter a barrier while 2 runs rank2, and returns the
// *pcomm.DeadlockError the run fails with.
func oneSided(t *testing.T, watchdog time.Duration, rank2 func(pcomm.Comm)) *pcomm.DeadlockError {
	t.Helper()
	m := modelled.New(3, machine.T3D())
	m.SetWatchdog(watchdog)
	_, err := pcomm.Guard(m, func(p pcomm.Comm) {
		if p.ID() == 2 {
			rank2(p)
		} else {
			p.Work(15e3) // 1 ms on the T3D
			p.Barrier()
		}
	})
	var re *pcomm.RunError
	var de *pcomm.DeadlockError
	if !errors.As(err, &re) || !errors.As(err, &de) {
		t.Fatalf("err = %v, want a *pcomm.RunError caused by a *pcomm.DeadlockError", err)
	}
	if re.Rank != -1 {
		t.Errorf("deadlock blames proc %d, want -1 (no single culprit)", re.Rank)
	}
	return de
}

func wantDump(t *testing.T, de *pcomm.DeadlockError, lines ...string) {
	t.Helper()
	for _, want := range lines {
		if !strings.Contains(de.Dump, want) {
			t.Errorf("dump missing %q:\n%s", want, de.Dump)
		}
	}
}

// The contract shared with the other backends (root cause, single use,
// mismatch, watchdog) is pcommtest.Conformance; this pins what the
// modelled world's dump adds — each processor's virtual clock and the
// arrival count of the collective in progress — and how its deadlocks
// are found. Proc 2 waits for a message that never comes while the others
// enter the barrier: a one-sided collective, the static form of which the
// collective analyzer flags. No processor can proceed, and the scheduler
// says so at once, armed watchdog or not.
func TestWatchdogCollectiveDeadlockDump(t *testing.T) {
	for _, watchdog := range []time.Duration{time.Minute, 0} {
		start := time.Now()
		de := oneSided(t, watchdog, func(p pcomm.Comm) { p.Recv(0, 1) })
		if d := time.Since(start); d > 10*time.Second {
			t.Errorf("watchdog %v: the deadlock took %v to find", watchdog, d)
		}
		wantDump(t, de,
			`rank 0: waiting in collective "barrier" at t=1.000e-03`,
			"rank 2: blocked in Recv(src=0, tag=1) at t=0.000e+00",
			"collective 0: 2 of 3 arrived")
		if !strings.HasPrefix(de.Error(), "modelled: deadlock: no processor can proceed\nP=3 processors:") {
			t.Errorf("watchdog %v: Error() lost the modelled wording: %s", watchdog, de.Error())
		}
	}
}

// What the watchdog still catches on a modelled world is a processor that
// computes forever: the others are parked, this one never reaches the
// communicator.
func TestWatchdogCatchesAComputingProc(t *testing.T) {
	de := oneSided(t, 50*time.Millisecond, func(p pcomm.Comm) {
		time.Sleep(300 * time.Millisecond)
		p.Barrier()
	})
	wantDump(t, de,
		`rank 0: waiting in collective "barrier" at t=1.000e-03`,
		"rank 2: not blocked in the communicator (computing or finished) at t=0.000e+00")
	if !strings.HasPrefix(de.Error(), "modelled: watchdog: run still blocked after 50ms\nP=3 processors:") {
		t.Errorf("Error() lost the watchdog wording: %s", de.Error())
	}
}
