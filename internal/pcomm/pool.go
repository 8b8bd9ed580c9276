package pcomm

import "sync"

// SlicePool is a mutex-guarded free list of message buffers. Like the
// core scratch pool (DESIGN.md §13) it is a free list rather than a
// sync.Pool on purpose: buffers survive GC so steady-state exchanges
// stay allocation-free, and tests can reason about exactly which buffers
// exist. The intended protocol is ownership transfer: the sender Gets a
// buffer, fills it, and SendSlices it — relinquishing it — and the
// receiver RecvSlices it, copies the payload out and Puts the transport
// buffer back. Both in-process backends deliver the
// sender's buffer zero-copy, so the protocol must only be used where the
// sender genuinely lets go (the sendalias analyzer's rule, made load-
// bearing).
type SlicePool[T any] struct {
	mu    sync.Mutex
	free  [][]T
	limit int // free-list cap beyond minPooledSlices, see Reserve
}

// minPooledSlices is the free list's cap until a caller reserves more;
// beyond the cap, Put drops the buffer for the GC. The cap bounds pinned
// memory after a burst — one ghost exchange needs at most one buffer in
// flight per (neighbor, direction).
const minPooledSlices = 64

// Reserve tells the pool that n buffers may be in circulation at once,
// raising the free list's cap to hold them all when they come back
// (never lowering it). A protocol that keeps more than one message per
// neighbour in flight — the triangular sweeps' exchange plan — reserves
// its plan's worth when the plan is built; without that, every buffer
// past the cap would be dropped and allocated again on each round.
func (p *SlicePool[T]) Reserve(n int) {
	p.mu.Lock()
	p.limit = max(p.limit, n)
	p.mu.Unlock()
}

// Get returns a length-n buffer: a pooled one when any has the capacity,
// a fresh allocation otherwise. Contents are unspecified — callers
// overwrite every element.
//
//pilut:hotpath
func (p *SlicePool[T]) Get(n int) []T {
	p.mu.Lock()
	for k := len(p.free) - 1; k >= 0; k-- {
		if cap(p.free[k]) >= n {
			b := p.free[k]
			last := len(p.free) - 1
			p.free[k] = p.free[last]
			p.free[last] = nil
			p.free = p.free[:last]
			p.mu.Unlock()
			return b[:n]
		}
	}
	p.mu.Unlock()
	return make([]T, n) //pilutlint:ok hotalloc cold path: pool empty or all buffers too small; steady state always hits the list
}

// Put returns a buffer to the pool. Zero-capacity buffers are dropped
// (nothing to reuse), as is everything past the pool cap.
//
//pilut:hotpath
func (p *SlicePool[T]) Put(b []T) {
	if cap(b) == 0 {
		return
	}
	p.mu.Lock()
	if len(p.free) < max(minPooledSlices, p.limit) {
		p.free = append(p.free, b[:0]) //pilutlint:ok hotalloc free list grows to the pool cap once, then appends reuse its backing array
	}
	p.mu.Unlock()
}

// Process-wide buffer pools for the common message element types. Shared
// across worlds deliberately: ownership transfer moves a buffer from a
// sending rank to a receiving rank, and a single pool is where both ends
// meet regardless of which world they belong to.
var (
	// Floats pools []float64 message buffers (ghost exchanges, vectors).
	Floats SlicePool[float64]
	// Ints pools []int message buffers (index exchanges).
	Ints SlicePool[int]
	// Bools pools []bool message buffers (per-vertex flags).
	Bools SlicePool[bool]
)
