package core

import (
	"sync"

	"repro/internal/ilu"
)

// The factorization scratch pool: a mutex-guarded free list rather than a
// sync.Pool, deliberately (DESIGN.md §13). A sync.Pool may drop its
// contents at any GC and keeps per-P shards we can neither enumerate nor
// poison; the free list retains scratches across factorizations — the
// whole point of amortizing their high-water-mark growth — and gives the
// scratch-poisoning property tests a hook that reaches every pooled
// scratch deterministically. The factorization driver takes one scratch
// per call, whichever row rule it runs under, so the list's size tracks
// the peak number of concurrent factorizations (one per in-process rank),
// capped to keep a burst from pinning memory.
const maxPooledScratches = 64

var scratchPool struct {
	mu   sync.Mutex
	free []*ilu.Scratch
}

// getScratch returns a pooled scratch grown to cover n positions, or a
// fresh one when the pool is empty.
func getScratch(n int) *ilu.Scratch {
	scratchPool.mu.Lock()
	var s *ilu.Scratch
	if k := len(scratchPool.free); k > 0 {
		s = scratchPool.free[k-1]
		scratchPool.free[k-1] = nil
		scratchPool.free = scratchPool.free[:k-1]
	}
	scratchPool.mu.Unlock()
	if s == nil {
		return ilu.NewScratch(n)
	}
	s.Grow(n)
	return s
}

// putScratch returns a scratch to the pool. It sanitizes unconditionally
// — a factorization can leave mid-kernel state behind when it panics
// (breakdown detection, fault injection) — and detaches the output arena:
// the ProcPrecond has copied its rows into the flat sweeps, but pivot rows
// travel by reference on the in-process backends and a slower rank may
// still be reading them.
func putScratch(s *ilu.Scratch) {
	s.Sanitize()
	s.DetachOutputs()
	scratchPool.mu.Lock()
	if len(scratchPool.free) < maxPooledScratches {
		scratchPool.free = append(scratchPool.free, s)
	}
	scratchPool.mu.Unlock()
}

// PoisonPooledScratches overwrites the reusable spare capacity of every
// pooled scratch with NaN/sentinel garbage (and panics if any pooled
// scratch still holds live state). The scratch-poisoning property tests
// call it between factorizations: if any kernel reads state it should
// have written first, the poison surfaces as a bitwise run-to-run
// difference instead of a silent wrong-but-plausible factor.
func PoisonPooledScratches() {
	scratchPool.mu.Lock()
	defer scratchPool.mu.Unlock()
	for _, s := range scratchPool.free {
		s.Poison()
	}
}
