// Package graph provides the undirected weighted graph substrate used by
// the partitioner and the independent-set algorithms: adjacency structure
// derived from a sparse matrix, edge cuts, boundary detection and connected
// components.
package graph

import (
	"fmt"

	"repro/internal/sparse"
)

// Graph is an undirected graph in adjacency (CSR-like) form. Vertex i's
// neighbours occupy Adj[Xadj[i]:Xadj[i+1]], with matching edge weights in
// AdjWgt. Vertex weights live in VWgt. Self-loops are never stored.
type Graph struct {
	NVtx   int
	Xadj   []int
	Adj    []int
	AdjWgt []int
	VWgt   []int
}

// FromMatrix builds the adjacency graph of a square sparse matrix: an edge
// {i, j} exists when a_ij or a_ji is stored (i ≠ j). All vertex and edge
// weights are 1. This is the graph the paper partitions.
//
// The build is pattern-only and linear in nnz(A): the pattern of Aᵀ is
// bucketed by count/scatter (its rows come out ascending because the rows
// of A are scanned in order), then row i of A and row i of Aᵀ — both
// ascending — are merged straight into the adjacency arrays.
func FromMatrix(a *sparse.CSR) *Graph {
	if a.N != a.M {
		panic("graph: FromMatrix requires a square matrix")
	}
	n := a.N
	// tptr is shifted by one during the scatter so that it ends up as the
	// row pointer of Aᵀ without a second cursor array.
	tptr := make([]int, n+2)
	for _, j := range a.Cols {
		tptr[j+2]++
	}
	for j := 0; j < n; j++ {
		tptr[j+2] += tptr[j+1]
	}
	tcols := make([]int, len(a.Cols))
	for i := 0; i < n; i++ {
		for _, j := range a.Cols[a.RowPtr[i]:a.RowPtr[i+1]] {
			tcols[tptr[j+1]] = i
			tptr[j+1]++
		}
	}

	g := &Graph{NVtx: n, Xadj: make([]int, n+1), VWgt: make([]int, n)}
	for i := 0; i < n; i++ {
		g.VWgt[i] = 1
		g.Xadj[i+1] = g.Xadj[i] + unionRow(nil, a.Cols[a.RowPtr[i]:a.RowPtr[i+1]], tcols[tptr[i]:tptr[i+1]], i)
	}
	g.Adj = make([]int, g.Xadj[n])
	g.AdjWgt = make([]int, g.Xadj[n])
	for i := 0; i < n; i++ {
		unionRow(g.Adj[g.Xadj[i]:g.Xadj[i+1]], a.Cols[a.RowPtr[i]:a.RowPtr[i+1]], tcols[tptr[i]:tptr[i+1]], i)
	}
	for k := range g.AdjWgt {
		g.AdjWgt[k] = 1
	}
	return g
}

// unionRow merges the ascending lists x and y, leaving out skip and
// repeated entries, and reports the size of the union. It writes the union
// to dst unless dst is nil (the counting pass).
func unionRow(dst, x, y []int, skip int) int {
	n, prev := 0, skip
	for p, q := 0, 0; p < len(x) || q < len(y); {
		var j int
		if q == len(y) || (p < len(x) && x[p] <= y[q]) {
			j = x[p]
			p++
		} else {
			j = y[q]
			q++
		}
		if j == skip || j == prev {
			continue
		}
		prev = j
		if dst != nil {
			dst[n] = j
		}
		n++
	}
	return n
}

// NEdges reports the number of undirected edges.
func (g *Graph) NEdges() int { return len(g.Adj) / 2 }

// Neighbors returns the neighbour slice of v (aliases graph storage).
func (g *Graph) Neighbors(v int) []int { return g.Adj[g.Xadj[v]:g.Xadj[v+1]] }

// EdgeWeights returns the edge-weight slice of v (aliases graph storage).
func (g *Graph) EdgeWeights(v int) []int { return g.AdjWgt[g.Xadj[v]:g.Xadj[v+1]] }

// TotalVWgt reports the sum of all vertex weights.
func (g *Graph) TotalVWgt() int {
	s := 0
	for _, w := range g.VWgt {
		s += w
	}
	return s
}

// EdgeCut returns the total weight of edges whose endpoints lie in
// different parts under the given assignment.
func (g *Graph) EdgeCut(part []int) int {
	if len(part) != g.NVtx {
		panic(fmt.Sprintf("graph: EdgeCut: partition length %d for %d vertices", len(part), g.NVtx))
	}
	cut := 0
	for v := 0; v < g.NVtx; v++ {
		for k := g.Xadj[v]; k < g.Xadj[v+1]; k++ {
			if part[g.Adj[k]] != part[v] {
				cut += g.AdjWgt[k]
			}
		}
	}
	return cut / 2
}

// Boundary returns, for each vertex, whether it has a neighbour in a
// different part. These are the paper's interface nodes.
func (g *Graph) Boundary(part []int) []bool {
	b := make([]bool, g.NVtx)
	for v := 0; v < g.NVtx; v++ {
		for k := g.Xadj[v]; k < g.Xadj[v+1]; k++ {
			if part[g.Adj[k]] != part[v] {
				b[v] = true
				break
			}
		}
	}
	return b
}

// PartWeights returns the total vertex weight of each of nparts parts.
func (g *Graph) PartWeights(part []int, nparts int) []int {
	w := make([]int, nparts)
	for v, p := range part {
		w[p] += g.VWgt[v]
	}
	return w
}

// Validate checks structural invariants: sorted-free adjacency within
// bounds, symmetric edges with matching weights, no self loops. Returns an
// error describing the first violation.
func (g *Graph) Validate() error {
	if len(g.Xadj) != g.NVtx+1 {
		return fmt.Errorf("graph: xadj length %d for %d vertices", len(g.Xadj), g.NVtx)
	}
	type edge struct{ u, v int }
	weights := make(map[edge]int)
	for v := 0; v < g.NVtx; v++ {
		for k := g.Xadj[v]; k < g.Xadj[v+1]; k++ {
			u := g.Adj[k]
			if u < 0 || u >= g.NVtx {
				return fmt.Errorf("graph: vertex %d has neighbour %d out of range", v, u)
			}
			if u == v {
				return fmt.Errorf("graph: self loop at %d", v)
			}
			weights[edge{v, u}] = g.AdjWgt[k]
		}
	}
	for e, w := range weights {
		w2, ok := weights[edge{e.v, e.u}]
		if !ok {
			return fmt.Errorf("graph: edge (%d,%d) has no reverse", e.u, e.v)
		}
		if w != w2 {
			return fmt.Errorf("graph: edge (%d,%d) weight %d != reverse %d", e.u, e.v, w, w2)
		}
	}
	return nil
}
