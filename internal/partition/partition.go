// Package partition implements a from-scratch multilevel k-way graph
// partitioner in the style the paper relies on (Karypis & Kumar's
// multilevel scheme, reference [6] of the paper): heavy-edge-matching
// coarsening, greedy graph-growing initial bisection, Fiduccia–Mattheyses
// boundary refinement during uncoarsening, and recursive bisection to k
// parts. It replaces the ParMETIS dependency of the original system.
package partition

import (
	"fmt"
	"math/rand"

	"repro/internal/graph"
)

// Options control the partitioner.
type Options struct {
	// Seed drives every random choice; runs are reproducible. Default 1.
	Seed int64
}

// The partitioner's fixed parameters.
const (
	// ubfactor is the allowed imbalance: a bisection's side may miss its
	// target weight by (ubfactor − 1) × the graph's total weight.
	ubfactor = 1.05
	// coarsenTo stops coarsening once the graph has at most this many
	// vertices.
	coarsenTo = 80
	// nIter is the number of FM refinement passes per level.
	nIter = 6
	// nInitTries is the number of greedy-growing attempts for the initial
	// bisection of the coarsest graph.
	nInitTries = 8
)

// KWay partitions g into nparts parts by multilevel recursive bisection
// and returns the part assignment (values in [0, nparts)).
func KWay(g *graph.Graph, nparts int, opt Options) []int {
	if nparts < 1 {
		panic("partition: nparts must be ≥ 1")
	}
	seed := opt.Seed
	if seed == 0 {
		seed = 1
	}
	part := make([]int, g.NVtx)
	if nparts == 1 {
		return part
	}
	rng := rand.New(rand.NewSource(seed))
	ws := newWorkspace(g)
	vtxMap := ws.alloc(g.NVtx) // identity mapping at the top level
	for i := range vtxMap {
		vtxMap[i] = i
	}
	ws.recursiveBisect(g, vtxMap, nparts, 0, part, rng)
	return part
}

// RandomKWay assigns vertices to parts uniformly at random (balanced by
// round-robin of a shuffled order). Baseline for the partition-quality
// ablation.
func RandomKWay(g *graph.Graph, nparts int, seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	order := rng.Perm(g.NVtx)
	part := make([]int, g.NVtx)
	for k, v := range order {
		part[v] = k % nparts
	}
	return part
}

// workspace is every slice one KWay call needs besides its result, made
// by a single allocation and reused across coarsening levels, FM passes,
// initial-bisection tries and the recursion.
type workspace struct {
	// Per-vertex scratch, each as long as the top-level graph has
	// vertices; no subgraph or coarse graph has more. A name says who
	// uses the slice first; later borrowers say so where they borrow.
	match, order, stamp, slot []int // coarsen
	ed, id                    []int // FM: edge weight to the other / the own side
	moves                     []int // FM: vertices moved in this pass, in order
	heap                      gainHeap

	// stack holds what outlives the call that makes it — the coarse
	// graphs and maps of a hierarchy, side vectors, subgraphs — and is
	// released in LIFO order by resetting top.
	stack []int
	top   int
}

// stackGraphs sizes the stack in units of the top-level graph's own
// arrays: one for the subgraphs along a recursion path, the rest for the
// deepest hierarchy, whose coarse adjacency arrays are reserved at their
// parents' size. Regular meshes use 3; the most over the matgen zoo is
// 4.4 (random sparse patterns, whose edges coarsen slowest).
const stackGraphs = 6

func newWorkspace(g *graph.Graph) *workspace {
	n := g.NVtx
	all := make([]int, 10*n+stackGraphs*(2*n+1+2*len(g.Adj)))
	take := func() []int {
		s := all[:n:n]
		all = all[n:]
		return s
	}
	ws := &workspace{
		match: take(), order: take(), stamp: take(), slot: take(),
		ed: take(), id: take(), moves: take(),
		heap: gainHeap{vtx: take(), gain: take(), pos: take()},
	}
	for i := range ws.heap.pos {
		ws.heap.pos[i] = absent
	}
	ws.stack = all
	return ws
}

// alloc returns n zeroed ints from the stack, like make. A hierarchy
// deeper than the stack was sized for (matching that keeps stalling just
// under the 95 % cut-off) spills to the heap rather than fail.
func (ws *workspace) alloc(n int) []int {
	if ws.top+n > len(ws.stack) {
		return make([]int, n)
	}
	s := ws.stack[ws.top : ws.top+n : ws.top+n]
	ws.top += n
	clear(s)
	return s
}

// recursiveBisect partitions the subgraph g (whose vertex v corresponds to
// original vertex vtxMap[v]) into nparts parts numbered starting at
// firstPart, writing assignments into the global part array.
func (ws *workspace) recursiveBisect(g *graph.Graph, vtxMap []int, nparts, firstPart int, part []int, rng *rand.Rand) {
	// More parts than vertices leaves some parts empty: a subgraph of at
	// most one vertex cannot be bisected further.
	if nparts == 1 || g.NVtx <= 1 {
		for _, orig := range vtxMap {
			part[orig] = firstPart
		}
		return
	}
	k0 := (nparts + 1) / 2
	total := g.TotalVWgt()
	target0 := int(float64(total) * float64(k0) / float64(nparts))

	mark := ws.top
	side := ws.alloc(g.NVtx)
	ws.multilevelBisect(g, side, target0, rng)
	for which, k := range [2]int{k0, nparts - k0} {
		m := ws.top
		sub, orig := ws.subgraph(g, side, which, vtxMap)
		ws.recursiveBisect(sub, orig, k, firstPart+which*k0, part, rng)
		ws.top = m
	}
	ws.top = mark
}

// subgraph extracts the vertices of g with side[v] == which, returning the
// induced subgraph and, composed through vtxMap, the mapping from subgraph
// vertex → original vertex.
func (ws *workspace) subgraph(g *graph.Graph, side []int, which int, vtxMap []int) (*graph.Graph, []int) {
	newID := ws.match[:g.NVtx] // borrowed: no coarsening is in flight
	ns := 0
	for v := 0; v < g.NVtx; v++ {
		if side[v] == which {
			newID[v] = ns
			ns++
		} else {
			newID[v] = -1
		}
	}
	s := &graph.Graph{NVtx: ns, Xadj: ws.alloc(ns + 1), VWgt: ws.alloc(ns)}
	orig := ws.alloc(ns)
	for v := 0; v < g.NVtx; v++ {
		i := newID[v]
		if i < 0 {
			continue
		}
		orig[i] = vtxMap[v]
		s.VWgt[i] = g.VWgt[v]
		deg := 0
		for _, u := range g.Neighbors(v) {
			if newID[u] >= 0 {
				deg++
			}
		}
		s.Xadj[i+1] = s.Xadj[i] + deg
	}
	s.Adj = ws.alloc(s.Xadj[ns])
	s.AdjWgt = ws.alloc(s.Xadj[ns])
	p := 0
	for v := 0; v < g.NVtx; v++ {
		if newID[v] < 0 {
			continue
		}
		wgt := g.EdgeWeights(v)
		for k, u := range g.Neighbors(v) {
			if newID[u] >= 0 {
				s.Adj[p] = newID[u]
				s.AdjWgt[p] = wgt[k]
				p++
			}
		}
	}
	return s, orig
}

// level holds one rung of the multilevel hierarchy.
type level struct {
	g    *graph.Graph
	cmap []int // fine vertex → coarse vertex in the next level
}

// multilevelBisect bisects g so that side 0 weighs approximately target0,
// writing the 0/1 assignment to side.
func (ws *workspace) multilevelBisect(g *graph.Graph, side []int, target0 int, rng *rand.Rand) {
	mark := ws.top
	// Coarsening phase.
	var levels []level
	cur := g
	for cur.NVtx > coarsenTo {
		m := ws.top
		coarse, cmap := ws.coarsen(cur, rng)
		if coarse.NVtx >= cur.NVtx*95/100 {
			// Matching stalled (e.g. star graphs); stop coarsening.
			ws.top = m
			break
		}
		levels = append(levels, level{g: cur, cmap: cmap})
		cur = coarse
	}

	// sideOf is where the bisection of a level's graph goes: the caller's
	// slice for g itself, the stack for the coarse graphs.
	sideOf := func(lg *graph.Graph) []int {
		if lg == g {
			return side
		}
		return ws.alloc(lg.NVtx)
	}

	// Initial bisection on the coarsest graph.
	cs := sideOf(cur)
	ws.initialBisect(cur, cs, target0, rng)
	ws.fmRefine(cur, cs, target0)

	// Uncoarsening with refinement.
	for li := len(levels) - 1; li >= 0; li-- {
		fine := levels[li]
		fs := sideOf(fine.g)
		for v := range fs {
			fs[v] = cs[fine.cmap[v]]
		}
		cs = fs
		ws.fmRefine(fine.g, cs, target0)
	}
	ws.top = mark
}

// permInto fills m with the permutation rng.Perm(len(m)) would return,
// drawing the same numbers in the same order.
func permInto(rng *rand.Rand, m []int) []int {
	for i := range m {
		j := rng.Intn(i + 1)
		m[i] = m[j]
		m[j] = i
	}
	return m
}

// coarsen performs one level of heavy-edge matching and graph contraction.
func (ws *workspace) coarsen(g *graph.Graph, rng *rand.Rand) (*graph.Graph, []int) {
	n := g.NVtx
	match := ws.match[:n]
	for i := range match {
		match[i] = -1
	}
	cmap := ws.alloc(n)
	nc := 0
	for _, v := range permInto(rng, ws.order[:n]) {
		if match[v] != -1 {
			continue
		}
		best, bestW := v, -1 // unmatched vertices pair with themselves
		adj := g.Neighbors(v)
		wgt := g.EdgeWeights(v)
		for k, u := range adj {
			if match[u] == -1 && wgt[k] > bestW {
				best, bestW = u, wgt[k]
			}
		}
		match[v], match[best] = best, v
		cmap[v], cmap[best] = nc, nc
		nc++
	}

	// The coarse adjacency cannot outgrow the fine one; its true length
	// is known only after contraction.
	coarse := &graph.Graph{NVtx: nc, Xadj: ws.alloc(nc + 1), VWgt: ws.alloc(nc),
		Adj: ws.alloc(len(g.Adj)), AdjWgt: ws.alloc(len(g.Adj))}
	first := ws.order[:nc] // borrowed: the permutation is spent
	m := contract(g, coarse, cmap, match, first, ws.stamp[:nc], ws.slot[:nc])
	coarse.Adj, coarse.AdjWgt = coarse.Adj[:m], coarse.AdjWgt[:m]
	return coarse, cmap
}

// contract fills coarse with the contraction of g along match, merging
// the adjacency lists of each matched pair (lower-numbered vertex first)
// with a stamped workspace, and returns the coarse adjacency length.
//
//pilut:hotpath
func contract(g, coarse *graph.Graph, cmap, match, first, stamp, slot []int) int {
	for v := 0; v < g.NVtx; v++ {
		coarse.VWgt[cmap[v]] += g.VWgt[v]
		if match[v] >= v {
			first[cmap[v]] = v
		}
	}
	for i := range stamp {
		stamp[i] = -1
	}
	cadj, cwgt := coarse.Adj, coarse.AdjWgt
	m := 0
	for c := range first {
		for v := first[c]; ; v = match[v] {
			adj := g.Neighbors(v)
			wgt := g.EdgeWeights(v)
			for k, u := range adj {
				cu := cmap[u]
				if cu == c {
					continue // internal edge of the contracted pair
				}
				if stamp[cu] != c {
					stamp[cu] = c
					slot[cu] = m
					cadj[m] = cu
					cwgt[m] = wgt[k]
					m++
				} else {
					cwgt[slot[cu]] += wgt[k]
				}
			}
			if v != first[c] || match[v] == v {
				break
			}
		}
		coarse.Xadj[c+1] = m
	}
	return m
}

// initialBisect produces a starting bisection of the coarsest graph by
// greedy graph growing: grow a BFS region from a random seed until side 0
// reaches its target weight; repeat several times and keep the smallest
// refined cut in best.
func (ws *workspace) initialBisect(g *graph.Graph, best []int, target0 int, rng *rand.Rand) {
	mark := ws.top
	side := ws.alloc(g.NVtx)
	// Borrowed: coarsening is over by the time the coarsest graph is cut.
	queue, seen := ws.match[:g.NVtx], ws.order[:g.NVtx]
	bestCut := -1
	for try := 0; try < nInitTries; try++ {
		for i := range side {
			side[i] = 1
		}
		clear(seen)
		w0 := 0
		start := rng.Intn(g.NVtx)
		queue[0], seen[start] = start, 1
		for head, tail := 0, 1; head < tail && w0 < target0; head++ {
			v := queue[head]
			side[v] = 0
			w0 += g.VWgt[v]
			for _, u := range g.Neighbors(v) {
				if seen[u] == 0 {
					seen[u] = 1
					queue[tail] = u
					tail++
				}
			}
		}
		// If the BFS ran out of vertices (disconnected graph), fill from
		// arbitrary remaining vertices.
		for v := 0; v < g.NVtx && w0 < target0; v++ {
			if side[v] == 1 {
				side[v] = 0
				w0 += g.VWgt[v]
			}
		}
		ws.fmRefine(g, side, target0)
		cut := g.EdgeCut(side)
		if bestCut < 0 || cut < bestCut {
			bestCut = cut
			copy(best, side)
		}
	}
	ws.top = mark
}

// fmRefine runs Fiduccia–Mattheyses boundary refinement passes on a
// bisection in place, respecting the balance tolerance ubfactor.
func (ws *workspace) fmRefine(g *graph.Graph, side []int, target0 int) {
	total := g.TotalVWgt()
	maxVW := 1
	for _, w := range g.VWgt {
		if w > maxVW {
			maxVW = w
		}
	}
	// Allowed deviation from the target split.
	dev := int(float64(total) * (ubfactor - 1))
	if dev < maxVW {
		dev = maxVW
	}
	lo0, hi0 := target0-dev, target0+dev
	// Never allow a side to empty out, no matter how small the graph.
	if lo0 < 1 {
		lo0 = 1
	}
	if hi0 > total-1 {
		hi0 = total - 1
	}

	// The one sweep over the edges: the passes keep ed and id current
	// move by move, rollbacks included.
	ed, id := ws.ed[:g.NVtx], ws.id[:g.NVtx]
	for v := range ed {
		ed[v], id[v] = 0, 0
		wgt := g.EdgeWeights(v)
		for k, u := range g.Neighbors(v) {
			if side[u] != side[v] {
				ed[v] += wgt[k]
			} else {
				id[v] += wgt[k]
			}
		}
	}
	for pass := 0; pass < nIter; pass++ {
		if !ws.fmPass(g, side, lo0, hi0) {
			break
		}
	}
}

// fmStallLimit bounds an FM pass: it ends once this many consecutive moves
// have failed to produce a new best prefix. Far more generous than
// METIS's min(max(n/100, 15), 100), which measurably costs cut here
// (DESIGN.md §13.1); letting every pass drain the queue costs four times
// the partitioning time for under 1 % of cut.
func fmStallLimit(n int) int { return max(100, n/10) }

// fmPass performs a single FM pass: tentatively move the best-gain
// boundary vertices one at a time (each vertex at most once) until the
// queue empties or the moves stall, then roll back to the best prefix
// observed. Reports whether the cut improved.
//
//pilut:hotpath
func (ws *workspace) fmPass(g *graph.Graph, side []int, lo0, hi0 int) bool {
	n := g.NVtx
	ed, id, h := ws.ed[:n], ws.id[:n], &ws.heap
	w0 := 0
	for v := 0; v < n; v++ {
		if side[v] == 0 {
			w0 += g.VWgt[v]
		}
		// Seed the queue with boundary vertices only; moving interior
		// vertices first never helps and bloats the pass.
		if ed[v] > 0 {
			h.set(v, ed[v]-id[v])
		}
	}

	moves, nmoves := ws.moves, 0
	cutDelta := 0
	bestDelta := 0
	bestPrefix := 0
	balancedAtBest := w0 >= lo0 && w0 <= hi0

	limit := fmStallLimit(n)
	for h.n > 0 && nmoves-bestPrefix < limit {
		v, gv := h.pop()
		// Balance check for moving v to the other side.
		nw0 := w0
		if side[v] == 0 {
			nw0 -= g.VWgt[v]
		} else {
			nw0 += g.VWgt[v]
		}
		if nw0 < lo0-g.VWgt[v] || nw0 > hi0+g.VWgt[v] {
			continue // hopelessly unbalancing; skip this vertex
		}
		h.pos[v] = locked
		w0 = nw0
		cutDelta -= gv
		moves[nmoves] = v
		nmoves++
		flip(g, side, ed, id, v)
		for _, u := range g.Neighbors(v) {
			if h.pos[u] != locked {
				h.set(u, ed[u]-id[u])
			}
		}
		balanced := w0 >= lo0 && w0 <= hi0
		if (balanced && !balancedAtBest) || (balanced == balancedAtBest && cutDelta < bestDelta) {
			bestDelta = cutDelta
			bestPrefix = nmoves
			balancedAtBest = balanced
		}
	}

	// Roll back moves after the best prefix, then leave the queue empty
	// and every vertex unlocked for the next pass.
	for i := nmoves - 1; i >= bestPrefix; i-- {
		flip(g, side, ed, id, moves[i])
	}
	for _, v := range moves[:nmoves] {
		h.pos[v] = absent
	}
	h.reset()
	return bestDelta < 0
}

// flip moves v to the other side and brings ed and id of v and of its
// neighbours up to date.
//
//pilut:hotpath
func flip(g *graph.Graph, side, ed, id []int, v int) {
	side[v] ^= 1
	ed[v], id[v] = id[v], ed[v]
	wgt := g.EdgeWeights(v)
	for k, u := range g.Neighbors(v) {
		if side[u] == side[v] {
			ed[u] -= wgt[k]
			id[u] += wgt[k]
		} else {
			ed[u] += wgt[k]
			id[u] -= wgt[k]
		}
	}
}

// Validate checks that part is a proper nparts-way assignment of g and
// returns the cut and part weights. Used by tests and the CLI.
func Validate(g *graph.Graph, part []int, nparts int) (cut int, weights []int, err error) {
	if len(part) != g.NVtx {
		return 0, nil, fmt.Errorf("partition: assignment length %d for %d vertices", len(part), g.NVtx)
	}
	for v, p := range part {
		if p < 0 || p >= nparts {
			return 0, nil, fmt.Errorf("partition: vertex %d assigned to invalid part %d", v, p)
		}
	}
	return g.EdgeCut(part), g.PartWeights(part, nparts), nil
}

// gainHeap is an indexed binary max-heap of vertices keyed by gain. A
// vertex is in it at most once — set re-keys an entry in place — so it
// never holds more entries than the graph has vertices and never a stale
// one. Its pop order is a pure function of the sequence of calls.
type gainHeap struct {
	vtx, gain []int // entries in heap order; n of them are live
	pos       []int // vertex → index in vtx, or absent, or locked
	n         int
}

// Values of gainHeap.pos for a vertex that has no entry.
const (
	absent = -1 // may be inserted
	locked = -2 // moved in this FM pass; owned by fmPass, not by the heap
)

func (h *gainHeap) place(i, v, g int) {
	h.vtx[i], h.gain[i], h.pos[v] = v, g, i
}

// set inserts v with gain g, or re-keys it if it is already queued.
//
//pilut:hotpath
func (h *gainHeap) set(v, g int) {
	i := h.pos[v]
	if i < 0 {
		i = h.n
		h.n++
	} else if g < h.gain[i] {
		h.siftDown(i, v, g)
		return
	}
	for i > 0 {
		p := (i - 1) / 2
		if h.gain[p] >= g {
			break
		}
		h.place(i, h.vtx[p], h.gain[p])
		i = p
	}
	h.place(i, v, g)
}

// pop removes and returns the vertex of largest gain, with that gain.
//
//pilut:hotpath
func (h *gainHeap) pop() (int, int) {
	v, g := h.vtx[0], h.gain[0]
	h.pos[v] = absent
	h.n--
	if h.n > 0 {
		h.siftDown(0, h.vtx[h.n], h.gain[h.n])
	}
	return v, g
}

// siftDown settles (v, g) into the hole at index i.
//
//pilut:hotpath
func (h *gainHeap) siftDown(i, v, g int) {
	for {
		m := 2*i + 1
		if m >= h.n {
			break
		}
		if r := m + 1; r < h.n && h.gain[r] > h.gain[m] {
			m = r
		}
		if h.gain[m] <= g {
			break
		}
		h.place(i, h.vtx[m], h.gain[m])
		i = m
	}
	h.place(i, v, g)
}

// reset empties the heap.
func (h *gainHeap) reset() {
	for _, v := range h.vtx[:h.n] {
		h.pos[v] = absent
	}
	h.n = 0
}
