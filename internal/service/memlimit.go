package service

import (
	"runtime/debug"
	"sync"
)

// heapAllowance is what the runtime memory limit grants beyond the bytes
// the tiers hold: the garbage of in-flight requests, runs and batches,
// and the runtime's own non-heap memory (stacks, spans, GC metadata).
// With the limit at held + heapAllowance the collector runs when garbage
// reaches the allowance, instead of when it equals the live heap as
// GOGC = 100 alone would let it (DESIGN.md §8, "the heap follows the
// tiers").
const heapAllowance = 40 << 20

// accountant is the one process-wide count of the bytes that every live
// Server's three tiers hold, and the only code that sets the runtime
// memory limit. Each tier reports its changes to it (lru.acct); New opens
// a server's account and Shutdown takes the server's bytes back out.
// While a server lives, the limit is held + heapAllowance, never above
// the limit the first server found (an operator's GOMEMLIMIT, or the
// runtime's unlimited default); once the last server has shut down, that
// starting limit is restored. With no server open it sets nothing, so
// importing the package changes no setting.
type accountant struct {
	mu      sync.Mutex
	servers int
	held    int64 // bytes the open servers' tiers hold
	start   int64 // the limit found when the first server opened
	limit   int64 // the limit last set
}

// tiers is the process's accountant.
var tiers accountant

// open registers a server whose tiers are still empty.
func (a *accountant) open() {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.servers == 0 {
		a.start = debug.SetMemoryLimit(-1)
		a.limit = a.start
	}
	a.servers++
	a.setLocked()
}

// add counts delta more bytes held. A nil accountant counts nothing: a
// tier outside any server, or one whose server has shut down.
func (a *accountant) add(delta int64) {
	if a == nil || delta == 0 {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.held += delta
	a.setLocked()
}

// close takes a shut-down server's held bytes back out; the last server
// to close restores the starting limit.
func (a *accountant) close(held int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.held -= held
	a.servers--
	if a.servers == 0 {
		a.set(a.start)
		return
	}
	a.setLocked()
}

// setLocked sets the limit from the count. Caller holds a.mu.
func (a *accountant) setLocked() {
	a.set(min(a.held+heapAllowance, a.start))
}

func (a *accountant) set(limit int64) {
	if limit != a.limit {
		debug.SetMemoryLimit(limit)
		a.limit = limit
	}
}

// snapshot reports the bytes held and the limit set from them.
func (a *accountant) snapshot() (held, limit int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.held, a.limit
}
