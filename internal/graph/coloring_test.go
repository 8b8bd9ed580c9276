package graph

import (
	"testing"

	"repro/internal/matgen"
)

func TestGreedyColoringValid(t *testing.T) {
	g := FromMatrix(matgen.Torso(6, 6, 6, 4))
	color, nc := g.GreedyColoring(nil)
	if !g.ValidateColoring(color) {
		t.Fatal("invalid coloring")
	}
	if nc < 2 {
		t.Fatalf("suspicious color count %d", nc)
	}
	// Max color index consistent with count.
	for _, c := range color {
		if c < 0 || c >= nc {
			t.Fatalf("color %d out of range [0,%d)", c, nc)
		}
	}
}

func TestGreedyColoringBipartiteGrid(t *testing.T) {
	// 5-point grids are bipartite: natural-order greedy gives 2 colors.
	g := FromMatrix(matgen.Grid2D(6, 7))
	color, nc := g.GreedyColoring(nil)
	if nc != 2 {
		t.Fatalf("grid coloring used %d colors, want 2", nc)
	}
	if !g.ValidateColoring(color) {
		t.Fatal("invalid coloring")
	}
}

func TestValidateColoringDetectsConflict(t *testing.T) {
	g := FromMatrix(matgen.Grid2D(2, 2))
	bad := make([]int, g.NVtx) // all same color on a connected graph
	if g.ValidateColoring(bad) {
		t.Fatal("conflict not detected")
	}
}
