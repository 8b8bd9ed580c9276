// Real-backend wall-clock benchmark, and the sample summary the report
// tests (netcomm, speedup) share. The modelled-vs-real comparison itself
// is on the scoreboard: pcomm.real.* / pcomm.modelled.* and
// core.factor_ms in bench/.
package repro_test

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/ilu"
	"repro/internal/matgen"
	"repro/internal/partition"
	"repro/internal/pcomm"
	"repro/internal/pcomm/realcomm"
)

type backendDist struct {
	MeanMs float64 `json:"mean_ms"`
	MinMs  float64 `json:"min_ms"`
	MaxMs  float64 `json:"max_ms"`
}

func summarizeMs(samples []float64) backendDist {
	d := backendDist{MinMs: samples[0], MaxMs: samples[0]}
	for _, v := range samples {
		d.MeanMs += v
		if v < d.MinMs {
			d.MinMs = v
		}
		if v > d.MaxMs {
			d.MaxMs = v
		}
	}
	d.MeanMs /= float64(len(samples))
	return d
}

// BenchmarkRealFactorGOMAXPROCS runs the same p=16 real-backend
// factorization under a sweep of GOMAXPROCS values. A single-number
// backend comparison hides how much of the real backend's win comes
// from hardware parallelism versus cheaper orchestration: on a one-core
// host (or gomaxprocs=1) the sweep's points coincide and the blind spot
// is explicit in the output, while on a multicore host the curve shows
// the scaling the speedup report enforces.
func BenchmarkRealFactorGOMAXPROCS(b *testing.B) {
	if netcommWorker() {
		b.Skip("netcomm worker process")
	}
	const P = 16
	a := matgen.Torso(16, 16, 16, 1)
	g := graph.FromMatrix(a)
	part := partition.KWay(g, P, partition.Options{Seed: 1})
	lay, err := dist.NewLayout(a.N, P, part)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := core.NewPlan(a, lay)
	if err != nil {
		b.Fatal(err)
	}
	opt := core.Options{Params: ilu.Params{M: 10, Tau: 1e-4, K: 2}, Seed: 1}
	for _, gmp := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("gomaxprocs=%d", gmp), func(b *testing.B) {
			prev := runtime.GOMAXPROCS(gmp)
			defer runtime.GOMAXPROCS(prev)
			for i := 0; i < b.N; i++ {
				w := realcomm.New(P)
				w.Run(func(p pcomm.Comm) {
					core.Factor(p, plan, opt)
				})
			}
		})
	}
}
