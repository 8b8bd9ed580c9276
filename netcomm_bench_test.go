// Netcomm overhead benchmark: the same TORSO ILUT* factorization run on
// the wall-clock shared-memory backend and on the netcomm socket backend
// over loopback (a two-node group inside this process, talking through
// real unix-socket frames). Both compute identical factors; the ratio is
// the price of moving every message through the kernel instead of a
// mailbox — the number to watch when deciding whether a workload is big
// enough to shard across real machines.
package repro_test

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/ilu"
	"repro/internal/matgen"
	"repro/internal/partition"
	"repro/internal/pcomm"
	"repro/internal/pcomm/netcomm"
	"repro/internal/pcomm/realcomm"
)

// benchGroup builds a two-node netcomm group over unix sockets in dir.
// Rendezvous blocks until every node is up, so the nodes are created
// concurrently.
func benchGroup(t *testing.T, dir string, n int) []*netcomm.Node {
	t.Helper()
	peers := make([]string, n)
	for i := range peers {
		peers[i] = filepath.Join(dir, fmt.Sprintf("bench%d.sock", i))
	}
	nodes := make([]*netcomm.Node, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			nodes[i], errs[i] = netcomm.NewNode(&netcomm.Spec{
				Raw: "bench:" + dir, Listen: peers[i], Peers: peers, Self: i,
			})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("bench node %d: %v", i, err)
		}
	}
	t.Cleanup(func() {
		for _, nd := range nodes {
			if err := nd.Close(); err != nil {
				t.Logf("closing bench node: %v", err)
			}
		}
	})
	return nodes
}

// TestEmitNetcommBench writes BENCH_netcomm.json comparing wall-clock
// factorization time between the shared-memory backend and netcomm over
// loopback at p=16 across 2 nodes. Gated on PILUT_BENCH_NETCOMM_OUT
// (the path to write) so ordinary test runs skip it; `make
// bench-netcomm` sets it.
func TestEmitNetcommBench(t *testing.T) {
	if netcommWorker() {
		t.Skip("netcomm worker process")
	}
	out := os.Getenv("PILUT_BENCH_NETCOMM_OUT")
	if out == "" {
		t.Skip("set PILUT_BENCH_NETCOMM_OUT=<path> to emit BENCH_netcomm.json")
	}
	const P = 16
	const nodesN = 2
	const samples = 5
	a := matgen.Torso(16, 16, 16, 1)
	g := graph.FromMatrix(a)
	part := partition.KWay(g, P, partition.Options{Seed: 1})
	lay, err := dist.NewLayout(a.N, P, part)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := core.NewPlan(a, lay)
	if err != nil {
		t.Fatal(err)
	}
	opt := core.Options{Params: ilu.Params{M: 10, Tau: 1e-4, K: 2}, Seed: 1}
	factor := func(p pcomm.Comm) { core.Factor(p, plan, opt) }

	realMs := make([]float64, samples)
	for i := range realMs {
		w := realcomm.New(P)
		start := time.Now()
		w.Run(factor)
		realMs[i] = float64(time.Since(start)) / float64(time.Millisecond)
	}

	nodes := benchGroup(t, t.TempDir(), nodesN)
	netMs := make([]float64, samples)
	for i := range netMs {
		worlds := make([]*netcomm.World, nodesN)
		for j, nd := range nodes {
			w, err := nd.NewWorld(P)
			if err != nil {
				t.Fatalf("node %d NewWorld: %v", j, err)
			}
			w.SetWatchdog(2 * time.Minute)
			worlds[j] = w
		}
		var wg sync.WaitGroup
		errs := make([]error, nodesN)
		start := time.Now()
		wg.Add(nodesN)
		for j, w := range worlds {
			go func(j int, w *netcomm.World) {
				defer wg.Done()
				_, errs[j] = pcomm.Guard(w, factor)
			}(j, w)
		}
		wg.Wait()
		netMs[i] = float64(time.Since(start)) / float64(time.Millisecond)
		for j, err := range errs {
			if err != nil {
				t.Fatalf("netcomm sample %d node %d: %v", i, j, err)
			}
		}
	}

	realD, netD := summarizeMs(realMs), summarizeMs(netMs)
	report := map[string]any{
		"benchmark":                "netcomm_vs_realcomm_factorization_wall_clock",
		"matrix":                   map[string]any{"kind": "torso", "side": 16, "n": a.N, "nnz": a.NNZ()},
		"procs":                    P,
		"nodes":                    nodesN,
		"transport":                "unix-socket loopback, two nodes in one process",
		"host_cpus":                runtime.NumCPU(),
		"params":                   map[string]any{"m": opt.Params.M, "tau": opt.Params.Tau, "k": opt.Params.K},
		"samples":                  samples,
		"real":                     realD,
		"netcomm":                  netD,
		"overhead_netcomm_vs_real": netD.MeanMs / realD.MeanMs,
	}
	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(out, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("real %.1fms, netcomm %.1fms (%.2fx) on %d CPUs",
		realD.MeanMs, netD.MeanMs, netD.MeanMs/realD.MeanMs, runtime.NumCPU())
}
