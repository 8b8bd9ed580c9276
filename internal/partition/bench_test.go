package partition

import (
	"fmt"
	"testing"

	"repro/internal/graph"
	"repro/internal/matgen"
)

var benchPart []int

// BenchmarkKWay times the partitioner on the scoreboard's cold-path
// matrices (bench/README.md): cold_torso, cold_grid and the peer_fetch /
// serve_churn pattern family.
func BenchmarkKWay(b *testing.B) {
	for _, c := range []struct {
		name string
		g    *graph.Graph
	}{
		{"Torso20", graph.FromMatrix(matgen.Torso(20, 20, 20, 1))},
		{"Grid128", graph.FromMatrix(matgen.Grid2D(128, 128))},
		{"Grid63x65", graph.FromMatrix(matgen.Grid2D(63, 65))},
	} {
		for _, k := range []int{4, 16} {
			b.Run(fmt.Sprintf("%s/k=%d", c.name, k), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					benchPart = KWay(c.g, k, Options{Seed: 1})
				}
			})
		}
	}
}
