package service

import (
	"container/list"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/krylov"
	"repro/internal/sparse"
)

// matrixStore holds submitted matrices by fingerprint. Matrices are
// cheap relative to factorizations and are never evicted: an evicted
// factorization can therefore always be rebuilt from its matrix without
// resubmission.
type matrixStore struct {
	byKey map[string]*sparse.CSR
}

func newMatrixStore() *matrixStore {
	return &matrixStore{byKey: make(map[string]*sparse.CSR)}
}

// put stores a (returning its content key and whether it was already
// known). Caller holds the server lock.
func (s *matrixStore) put(a *sparse.CSR) (string, bool) {
	key := sparse.Fingerprint(a)
	if _, ok := s.byKey[key]; ok {
		return key, true
	}
	s.byKey[key] = a
	return key, false
}

func (s *matrixStore) get(key string) (*sparse.CSR, bool) {
	a, ok := s.byKey[key]
	return a, ok
}

func (s *matrixStore) len() int { return len(s.byKey) }

// precPiece is one virtual processor's preconditioner piece: anything
// krylov can apply that also reports its memory footprint for the cache
// byte budget. core.ProcPrecond (the normal and ladder-retry rungs) and
// core.BlockJacobi (the final fallback rung) both satisfy it.
type precPiece interface {
	krylov.DistPreconditioner
	SizeBytes() int64
}

// entry is one cached factorization: the elimination plan plus every
// virtual processor's preconditioner piece and ghost-exchange plan, all
// built in a single machine run. Entries are immutable once published;
// the per-processor solve scratch is allocated per batch, so concurrent
// batches of *different* matrices may share nothing, and the dispatcher
// guarantees at most one batch per matrix at a time.
type entry struct {
	key  string
	a    *sparse.CSR
	lay  *dist.Layout
	pcs  []precPiece
	mats []*dist.Matrix

	bytes         int64
	levels        int
	factorSeconds float64 // modelled machine seconds of the factorization

	// degraded marks an entry built by a recovery-ladder rung rather
	// than the configured factorization; ladderStep names the rung
	// ("shift", "relaxed", "blockjacobi"). Solves through a degraded
	// entry carry the flag in their SolveResult.
	degraded   bool
	ladderStep string

	// symbolicHit marks an entry whose build reused a cached symbolic
	// analysis — only the numeric refactorization ran. Solves through it
	// carry the flag in their SolveResult.
	symbolicHit bool

	// origin records how the entry got here (originLocal, originPeer,
	// originReplica); a view change claims peer-imported keys this
	// daemon now owns as takeovers.
	origin string
}

// symEntry is one cached symbolic analysis: the pattern-only half of a
// factorization (partition, layout, interior/interface classification,
// interior numbering) plus the per-processor ghost-exchange templates
// built under it. Everything here is a pure function of the sparsity
// pattern, so the entry is keyed by sparse.PatternFingerprint and serves
// every matrix of a sequence that shares the pattern: a value-only change
// skips graph construction, partitioning, layout and the ghost-plan
// setup exchange, leaving just the numeric refactorization. The mats
// templates alias the full entry built alongside them (both are immutable
// after setup), so the marginal memory of a symbolic entry is the
// analysis arrays plus the layout.
type symEntry struct {
	sym  *core.Symbolic
	mats []*dist.Matrix // per-proc templates; CloneFor rebinds values
}

// symbolicBudget is the byte budget of the symbolic tier.
const symbolicBudget = 64 << 20

// lru is a string-keyed LRU with a byte budget. The server keeps two: the
// factor cache (full entries by matrix fingerprint) and the symbolic tier
// (analyses by pattern fingerprint). They are deliberately separate
// instances: a full entry is worth keeping only for an exact value match,
// while an analysis stays useful for the whole lifetime of a pattern —
// evicting one must not evict the other. All methods require the server
// lock (the cache has no lock of its own); the expensive builds happen
// outside it.
type lru[V any] struct {
	budget int64
	bytes  int64
	items  map[string]*lruItem[V]
	order  *list.List // of *lruItem[V]; front = most recently used

	hits, misses, evictions int64
}

type lruItem[V any] struct {
	key   string
	val   V
	bytes int64
	elem  *list.Element
}

func newLRU[V any](budget int64) *lru[V] {
	return &lru[V]{budget: budget, items: make(map[string]*lruItem[V]), order: list.New()}
}

// lookup returns the value under key, promoting it to most-recently-used,
// and records a hit or miss.
func (c *lru[V]) lookup(key string) (V, bool) {
	v, ok := c.peek(key)
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return v, ok
}

// peek is lookup without the hit/miss accounting, for resolution paths
// that already counted the top-level lookup (or, like peer serves,
// should not perturb the local counters at all).
func (c *lru[V]) peek(key string) (v V, ok bool) {
	it, ok := c.items[key]
	if !ok {
		return v, false
	}
	c.order.MoveToFront(it.elem)
	return it.val, true
}

// insert publishes v under key, replacing what was there, and evicts
// least-recently-used items until the budget is met again. The newcomer
// itself is never evicted (a single oversized item is allowed to live
// alone). Evicted values stay valid for whoever still holds them; they
// just stop being findable, so the next request for that key rebuilds.
func (c *lru[V]) insert(key string, v V, bytes int64) {
	c.remove(key)
	it := &lruItem[V]{key: key, val: v, bytes: bytes}
	it.elem = c.order.PushFront(it)
	c.items[key] = it
	c.bytes += bytes
	for c.bytes > c.budget && c.order.Len() > 1 {
		c.remove(c.order.Back().Value.(*lruItem[V]).key)
		c.evictions++
	}
}

// remove drops key if present; not an eviction.
func (c *lru[V]) remove(key string) {
	it, ok := c.items[key]
	if !ok {
		return
	}
	c.order.Remove(it.elem)
	delete(c.items, key)
	c.bytes -= it.bytes
}
