package core

import (
	"sync"

	"repro/internal/ilu"
	"repro/internal/mis"
)

// factorScratch is everything one processor's factorization reuses from
// the one before it: the row kernels' scratch, the independent-set
// workspace, and the dense tables the level loop and the final renumbering
// use where a map would be (DESIGN.md §13).
type factorScratch struct {
	rows *ilu.Scratch
	mis  mis.Workspace

	// idOf[g], for an interface unknown g (an original id), is 1 + an
	// elimination id relative to the user's base — the level's first id
	// while a level runs, 0 during renumbering — and 0 for an unknown
	// that has none; set lists the non-zero entries, the table being
	// cleared through that list.
	idOf []int32
	set  []int32
	// pivots[k] is the pivot row of elimination id (level start + k)
	// while a level runs: mine or pushed to me, nil if not visible here.
	pivots []*ilu.URow
}

// clearIDs returns idOf to all zeros.
func (fs *factorScratch) clearIDs() {
	for _, g := range fs.set {
		fs.idOf[g] = 0
	}
	fs.set = fs.set[:0]
}

// setID records id (relative, see idOf) for original id g.
func (fs *factorScratch) setID(g, id int) {
	fs.idOf[g] = int32(id + 1)
	fs.set = append(fs.set, int32(g))
}

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
	free []*factorScratch
}

// getScratch returns a pooled scratch for a matrix of order n — working
// row over the 2n combined indices, id table over the n original ones —
// or a fresh one when the pool is empty.
func getScratch(n int) *factorScratch {
	scratchPool.mu.Lock()
	var fs *factorScratch
	if k := len(scratchPool.free); k > 0 {
		fs = scratchPool.free[k-1]
		scratchPool.free[k-1] = nil
		scratchPool.free = scratchPool.free[:k-1]
	}
	scratchPool.mu.Unlock()
	if fs == nil {
		return &factorScratch{rows: ilu.NewScratch(2 * n), idOf: make([]int32, n)}
	}
	fs.rows.Grow(2 * n)
	if len(fs.idOf) < n {
		fs.idOf = make([]int32, n)
	}
	return fs
}

// putScratch returns a scratch to the pool. It sanitizes unconditionally
// — a factorization can leave mid-kernel or mid-level state behind when
// it panics (breakdown detection, fault injection) — and detaches the
// output arena: the ProcPrecond has copied its rows into the flat sweeps,
// but pivot rows travel by reference on the in-process backends and a
// slower rank may still be reading them. For the same reason the pivot
// table forgets the rows it pointed at.
func putScratch(fs *factorScratch) {
	fs.rows.Sanitize()
	fs.rows.DetachOutputs()
	fs.mis.Reset()
	fs.clearIDs()
	clear(fs.pivots[:cap(fs.pivots)])
	scratchPool.mu.Lock()
	if len(scratchPool.free) < maxPooledScratches {
		scratchPool.free = append(scratchPool.free, fs)
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
	for _, fs := range scratchPool.free {
		fs.rows.Poison()
		fs.mis.Poison()
		for _, id := range fs.idOf {
			if id != 0 {
				panic("core: pooled factorScratch not clean: an id survived the factorization")
			}
		}
		set := fs.set[:cap(fs.set)]
		for k := range set {
			set[k] = -0x5A5A5A5A
		}
	}
}
