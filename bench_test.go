// Wall-clock benchmarks of the kernels the solver is built from: the
// serial references, the partitioner, the MIS, the comm engine's blocking
// points, the distributed matvec and the factorization itself. They time
// the machine they run on. The paper's tables are modelled T3D seconds,
// which no benchmark loop measures: cmd/experiments prints them, and the
// golden test of internal/experiments pins a reduced run byte for byte.
package repro_test

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/ilu"
	"repro/internal/krylov"
	"repro/internal/machine"
	"repro/internal/matgen"
	"repro/internal/mis"
	"repro/internal/partition"
	"repro/internal/pcomm"
	"repro/internal/pcomm/modelled"
	"repro/internal/pcomm/realcomm"
	"repro/internal/sparse"
)

// BenchmarkSerialILUT measures the sequential factorization kernel, the
// baseline every parallel number is compared against.
func BenchmarkSerialILUT(b *testing.B) {
	a := matgen.Grid2D(64, 64)
	for _, tc := range []struct {
		name string
		p    ilu.Params
	}{
		{"m5_t1e-2", ilu.Params{M: 5, Tau: 1e-2}},
		{"m10_t1e-4", ilu.Params{M: 10, Tau: 1e-4}},
		{"m20_t1e-6", ilu.Params{M: 20, Tau: 1e-6}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := ilu.ILUT(a, tc.p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSerialILU0 measures the static-pattern baseline.
func BenchmarkSerialILU0(b *testing.B) {
	a := matgen.Grid2D(64, 64)
	for i := 0; i < b.N; i++ {
		if _, _, err := ilu.ILU0(a); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPartitioner measures the multilevel k-way partitioner.
func BenchmarkPartitioner(b *testing.B) {
	g := graph.FromMatrix(matgen.Grid2D(128, 128))
	for _, k := range []int{16, 64} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			var cut int
			for i := 0; i < b.N; i++ {
				part := partition.KWay(g, k, partition.Options{Seed: int64(i + 1)})
				cut = g.EdgeCut(part)
			}
			b.ReportMetric(float64(cut), "edge-cut")
		})
	}
}

// BenchmarkMIS measures the Luby independent-set kernel: the serial form,
// and the distributed one the way the interface phase drives it — on the
// real backend at p = 4, one workspace per rank, level after level on the
// vertices the earlier levels left, until none is left.
func BenchmarkMIS(b *testing.B) {
	a := matgen.Grid2D(100, 100)
	g := graph.FromMatrix(a)
	adj := make([][]int, g.NVtx)
	for v := 0; v < g.NVtx; v++ {
		adj[v] = g.Neighbors(v)
	}
	b.Run("serial", func(b *testing.B) {
		var size int
		for i := 0; i < b.N; i++ {
			sel := mis.Serial(adj, nil, mis.DefaultRounds, int64(i+1))
			size = 0
			for _, s := range sel {
				if s {
					size++
				}
			}
		}
		b.ReportMetric(float64(size), "set-size")
	})
	b.Run("distributed-levels", func(b *testing.B) {
		const P = 4
		plan, err := core.Prepare(a, P, 1)
		if err != nil {
			b.Fatal(err)
		}
		part := plan.Lay.PartOf
		owner := func(v int) int { return part[v] }
		var levels int
		for i := 0; i < b.N; i++ {
			gone := make([]bool, g.NVtx) // written between barriers only
			realcomm.New(P).Run(func(p pcomm.Comm) {
				var ws mis.Workspace
				var owned []int
				for v := 0; v < g.NVtx; v++ {
					if part[v] == p.ID() {
						owned = append(owned, v)
					}
				}
				for level := 0; ; level++ {
					local := make([][]int, len(owned))
					for k, v := range owned {
						for _, u := range adj[v] {
							if !gone[u] {
								local[k] = append(local[k], u)
							}
						}
					}
					p.Barrier()
					sel, globalActive := ws.Plan(p, owned, local, nil, owner, mis.DefaultRounds, int64(i+1)+int64(level)*7919)
					if globalActive == 0 {
						if p.ID() == 0 {
							levels = level
						}
						return
					}
					rest := owned[:0]
					for k, v := range owned {
						if sel[k] {
							gone[v] = true
						} else {
							rest = append(rest, v)
						}
					}
					owned = rest
					p.Barrier()
				}
			})
		}
		b.ReportMetric(float64(levels), "levels")
	})
}

// BenchmarkMISPlan is one Workspace.Plan call as a threshold level makes
// it — real backend, p = 4, everything active, five rounds — on the
// interface graph of the cold_torso matrix: the vertices with an edge
// into another processor's block, and the edges among them. The set-up
// all-gather and the rounds' neighbour exchanges are most of it.
func BenchmarkMISPlan(b *testing.B) {
	b.Run("torso20/p4", func(b *testing.B) {
		const P = 4
		a := matgen.Torso(20, 20, 20, 1)
		g := graph.FromMatrix(a)
		plan, err := core.Prepare(a, P, 1)
		if err != nil {
			b.Fatal(err)
		}
		part := plan.Lay.PartOf
		owner := func(v int) int { return part[v] }
		iface := make([]bool, g.NVtx)
		for v := range iface {
			for _, u := range g.Neighbors(v) {
				iface[v] = iface[v] || part[u] != part[v]
			}
		}
		owned, adj := make([][]int, P), make([][][]int, P)
		for v := 0; v < g.NVtx; v++ {
			if !iface[v] {
				continue
			}
			var nbrs []int
			for _, u := range g.Neighbors(v) {
				if iface[u] {
					nbrs = append(nbrs, u)
				}
			}
			owned[part[v]] = append(owned[part[v]], v)
			adj[part[v]] = append(adj[part[v]], nbrs)
		}
		b.ResetTimer()
		realcomm.New(P).Run(func(p pcomm.Comm) {
			var ws mis.Workspace
			for i := 0; i < b.N; i++ {
				ws.Plan(p, owned[p.ID()], adj[p.ID()], nil, owner, mis.DefaultRounds, int64(i+1))
			}
		})
	})
}

// BenchmarkEngineWait times the engine's blocking points at p = 4: a
// round trip between rank pairs, an all-reduce and an all-gather, each
// b.N times inside one run — on the real backend, and under modelled/ on
// the modelled T3D, whose ranks are coroutines handing one baton around.
// Run it with -cpu 2 for the oversubscribed case the scoreboard lives in
// (four ranks on two Ps), where how a rank waits is most of what a call
// costs. The 2x cases run two such worlds at once, as a daemon's two
// workers do, where a rank that yields would hand the Ps to the other
// world.
func BenchmarkEngineWait(b *testing.B) {
	const tag = 7
	for _, c := range []struct {
		name string
		call func(p pcomm.Comm, i int)
	}{
		{"pingpong", func(p pcomm.Comm, i int) {
			peer := p.ID() ^ 1
			if p.ID() < peer {
				p.Send(peer, tag, i, pcomm.BytesOfInts(1))
				p.Recv(peer, tag)
			} else {
				p.Recv(peer, tag)
				p.Send(peer, tag, i, pcomm.BytesOfInts(1))
			}
		}},
		{"allreduce", func(p pcomm.Comm, i int) { p.AllReduceFloat64(float64(p.ID()), pcomm.OpSum) }},
		{"allgather", func(p pcomm.Comm, i int) { pcomm.AllGatherSlice(p, []int{i}) }},
	} {
		for _, backend := range []struct {
			prefix string
			world  func() pcomm.World
		}{
			{"", func() pcomm.World { return realcomm.New(4) }},
			{"modelled/", func() pcomm.World { return modelled.New(4, machine.T3D()) }},
		} {
			run := func(b *testing.B) {
				backend.world().Run(func(p pcomm.Comm) {
					for i := 0; i < b.N; i++ {
						c.call(p, i)
					}
				})
			}
			b.Run(backend.prefix+c.name+"/p4", run)
			b.Run(backend.prefix+c.name+"/2x/p4", func(b *testing.B) {
				var wg sync.WaitGroup
				wg.Add(2)
				for range 2 {
					go func() {
						defer wg.Done()
						run(b)
					}()
				}
				wg.Wait()
			})
		}
	}
}

// BenchmarkTriangularSolveSerial measures the serial L/U solve kernel.
func BenchmarkTriangularSolveSerial(b *testing.B) {
	a := matgen.Grid2D(64, 64)
	f, _, err := ilu.ILUT(a, ilu.Params{M: 10, Tau: 1e-4})
	if err != nil {
		b.Fatal(err)
	}
	x := make([]float64, a.N)
	rhs := sparse.Ones(a.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Solve(x, rhs)
	}
}

// BenchmarkDistSpMV measures the simulated distributed SpMV end to end
// (host wall time; the modelled time is Table 2's metric).
func BenchmarkDistSpMV(b *testing.B) {
	a := matgen.Grid2D(64, 64)
	P := 8
	plan, err := core.Prepare(a, P, 1)
	if err != nil {
		b.Fatal(err)
	}
	lay := plan.Lay
	x := sparse.Ones(a.N)
	xp := lay.Scatter(x)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := modelled.New(P, machine.T3D())
		m.Run(func(p pcomm.Comm) {
			dm := dist.NewMatrix(p, lay, a)
			y := make([]float64, lay.NLocal(p.ID()))
			dm.MulVec(p, y, xp[p.ID()])
		})
	}
}

// BenchmarkGMRESSerial measures the serial solver loop.
func BenchmarkGMRESSerial(b *testing.B) {
	a := matgen.Grid2D(48, 48)
	f, _, err := ilu.ILUT(a, ilu.Params{M: 10, Tau: 1e-4})
	if err != nil {
		b.Fatal(err)
	}
	rhs := sparse.Ones(a.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := make([]float64, a.N)
		if _, err := krylov.GMRES(a, f, x, rhs, krylov.Options{Restart: 30, Tol: 1e-8}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFactorCore exercises core.Factor directly (plan prebuilt),
// isolating the factorization from partitioning: on the modelled machine,
// and in the scoreboard's configuration — real backend, p = 4,
// ILUT*(10, 1e-4, 2) on the cold_torso and serve_churn matrices — so that
//
//	go test -run '^$' -bench 'FactorCore|MIS' -cpuprofile cpu.out .
//
// profiles what bench/ times as core.factor_ms.
func BenchmarkFactorCore(b *testing.B) {
	opt := core.Options{Params: ilu.Params{M: 10, Tau: 1e-4, K: 2}}
	for _, c := range []struct {
		name  string
		a     *sparse.CSR
		P     int
		world func(P int) pcomm.World
	}{
		{"modelled/torso16/p8", matgen.Torso(16, 16, 16, 1), 8, func(P int) pcomm.World { return modelled.New(P, machine.T3D()) }},
		{"real/torso20/p4", matgen.Torso(20, 20, 20, 1), 4, func(P int) pcomm.World { return realcomm.New(P) }},
		{"real/grid63x65/p4", matgen.Grid2D(63, 65), 4, func(P int) pcomm.World { return realcomm.New(P) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			plan, err := core.Prepare(c.a, c.P, 1)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.world(c.P).Run(func(p pcomm.Comm) {
					core.Factor(p, plan, opt)
				})
			}
		})
	}
}
