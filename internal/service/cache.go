package service

import (
	"container/list"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/sparse"
)

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
	pcs  []*core.ProcPrecond
	mats []*dist.Matrix
	// planBytes is what the plan the pieces keep alive holds that nothing
	// else counts: all of a "shift" or "blockjacobi" rung's own plan, and
	// of the analysis's plan only its row norms — its matrix is the
	// entry's and its classification sits in the symbolic tier.
	planBytes int64

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
	// daemon now owns as takeovers, counting each entry once (claimed,
	// under the server lock).
	origin  string
	claimed bool
}

// symEntry is one cached symbolic analysis: the pattern-only half of a
// factorization (partition, layout, interior/interface classification,
// interior numbering) plus the per-processor ghost-exchange templates
// built under it. Everything here is a pure function of the sparsity
// pattern, so the entry is keyed by sparse.PatternFingerprint and serves
// every matrix of a sequence that shares the pattern: a value-only change
// skips graph construction, partitioning, layout and the ghost-plan
// setup exchange, leaving just the numeric refactorization. The mats
// templates are pattern-only (dist.Matrix.Template): they share the
// exchange plans of the entry built alongside them (both are immutable
// after setup) but keep neither its matrix nor its ghost buffers. The
// analysis still aliases the RowPtr and Cols of the first matrix of its
// pattern (counted in Symbolic.SizeBytes); that matrix's values and
// ghost buffers are not kept.
type symEntry struct {
	sym  *core.Symbolic
	mats []*dist.Matrix // per-proc templates; CloneFor rebinds values
}

// sizeBytes is what a symbolic entry keeps alive: the analysis with the
// pattern it aliases, and the templates.
func (se *symEntry) sizeBytes() int64 {
	b := se.sym.SizeBytes()
	for _, m := range se.mats {
		b += m.SizeBytes()
	}
	return b
}

// The byte budgets of the symbolic tier and of the matrix tier. A
// daemon's cached state is bounded by their sum plus Config.CacheBytes
// (or by one item alone, should it exceed its tier's budget).
const (
	symbolicBudget = 64 << 20
	matrixBudget   = 32 << 20
)

// lru is a string-keyed LRU with a byte budget. The server keeps three:
// the matrix tier (submitted matrices by fingerprint), the factor cache
// (full entries by matrix fingerprint) and the symbolic tier (analyses by
// pattern fingerprint). They are deliberately separate instances: a full
// entry is worth keeping only for an exact value match, while an analysis
// stays useful for the whole lifetime of a pattern, and a matrix only
// until its factor is cached or its client stops using it — evicting one
// must not evict another. All methods require the server lock (the cache
// has no lock of its own); the expensive builds happen outside it. Every
// change to bytes is reported to acct, the process's accountant, while
// the server lives (nil outside one).
type lru[V any] struct {
	budget int64
	bytes  int64
	items  map[string]*lruItem[V]
	order  *list.List // of *lruItem[V]; front = most recently used
	acct   *accountant

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
	before := c.bytes
	c.drop(key)
	it := &lruItem[V]{key: key, val: v, bytes: bytes}
	it.elem = c.order.PushFront(it)
	c.items[key] = it
	c.bytes += bytes
	for c.bytes > c.budget && c.order.Len() > 1 {
		c.drop(c.order.Back().Value.(*lruItem[V]).key)
		c.evictions++
	}
	c.acct.add(c.bytes - before)
}

// remove drops key if present; not an eviction.
func (c *lru[V]) remove(key string) {
	before := c.bytes
	c.drop(key)
	c.acct.add(c.bytes - before)
}

// drop is remove without the report to the accountant, for insert, which
// reports its whole change once.
func (c *lru[V]) drop(key string) {
	it, ok := c.items[key]
	if !ok {
		return
	}
	c.order.Remove(it.elem)
	delete(c.items, key)
	c.bytes -= it.bytes
}
