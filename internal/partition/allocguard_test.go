//go:build !race

package partition

import (
	"runtime"
	"testing"

	"repro/internal/graph"
	"repro/internal/matgen"
)

// Alloc-regression guard for the cold path: one KWay call takes its whole
// working set in one workspace, about 0.7 KB per vertex on the torso
// matrix (the version that allocated per level, pass and try took 4.2 KB).
// Excluded under the race detector, whose instrumentation allocates.
func TestKWayAllocBytesPerVertex(t *testing.T) {
	g := graph.FromMatrix(matgen.Torso(20, 20, 20, 1))
	KWay(g, 4, Options{Seed: 1})
	var m1, m2 runtime.MemStats
	runtime.ReadMemStats(&m1)
	KWay(g, 4, Options{Seed: 1})
	runtime.ReadMemStats(&m2)
	perVertex := float64(m2.TotalAlloc-m1.TotalAlloc) / float64(g.NVtx)
	if perVertex > 1536 {
		t.Errorf("KWay allocated %.0f bytes per vertex, budget 1536", perVertex)
	}
}
