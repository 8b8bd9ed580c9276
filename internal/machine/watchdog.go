package machine

import (
	"fmt"
	"strings"
	"time"
)

// SetWatchdog arms a per-Run timeout. If the run has not completed after
// d, every processor blocked inside the machine is woken with a
// *pcomm.DeadlockError carrying a state dump — what each virtual processor
// was blocked on and its last observed virtual clock — and Run panics
// with it. Must be called before Run; d ≤ 0 disables the watchdog.
func (m *Machine) SetWatchdog(d time.Duration) { m.sup.SetWatchdog(d) }

// dump renders every processor's blocked state. It holds m.mu, so the
// blocked fields are stable; clocks are the last values observed at a
// machine operation (a running processor's true clock is private to its
// goroutine).
func (m *Machine) dump() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var b strings.Builder
	fmt.Fprintf(&b, "P=%d processors:\n", m.P)
	for _, p := range m.procs {
		switch p.blocked.kind {
		case "send":
			fmt.Fprintf(&b, "  proc %d: in Send(dst=%d, tag=%d) at t=%.3e\n",
				p.id, p.blocked.dst, p.blocked.tag, p.blocked.clock)
		case "recv":
			fmt.Fprintf(&b, "  proc %d: blocked in Recv(src=%d, tag=%d) at t=%.3e\n",
				p.id, p.blocked.src, p.blocked.tag, p.blocked.clock)
		case "collective":
			fmt.Fprintf(&b, "  proc %d: waiting in collective %q (%d of %d arrived) at t=%.3e\n",
				p.id, p.blocked.op, m.rvCount, m.P, p.blocked.clock)
		default:
			fmt.Fprintf(&b, "  proc %d: not blocked in the machine (computing or finished; last seen at t=%.3e)\n",
				p.id, p.blocked.clock)
		}
	}
	return strings.TrimRight(b.String(), "\n")
}
