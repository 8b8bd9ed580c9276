// Command partition partitions a sparse matrix's graph with the
// multilevel k-way partitioner and reports edge-cut, balance and the
// interior/interface split the parallel factorization would see.
//
// Example:
//
//	partition -gen grid2d -size 128 -k 16
//	partition -matrix system.mtx -k 64 -compare-random
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/matgen"
	"repro/internal/partition"
	"repro/internal/sparse"
)

func main() {
	matrixPath := flag.String("matrix", "", "MatrixMarket file (overrides -gen)")
	gen := flag.String("gen", "grid2d", "generator: grid2d, grid3d, torso")
	size := flag.Int("size", 64, "generator size")
	k := flag.Int("k", 16, "number of parts")
	seed := flag.Int64("seed", 1, "random seed")
	compareRandom := flag.Bool("compare-random", false, "also report a random partition baseline")
	flag.Parse()
	if *k < 1 {
		fmt.Fprintf(os.Stderr, "partition: -k %d, want at least 1\n", *k)
		os.Exit(2)
	}

	var a *sparse.CSR
	var err error
	name := *gen
	if *matrixPath != "" {
		f, err := os.Open(*matrixPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		a, err = sparse.ReadMatrixMarket(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		name = *matrixPath
	} else {
		switch *gen {
		case "grid2d":
			a = matgen.Grid2D(*size, *size)
		case "grid3d":
			a = matgen.Grid3D(*size, *size, *size)
		case "torso":
			a = matgen.Torso(*size, *size, *size, *seed)
		default:
			fmt.Fprintf(os.Stderr, "unknown generator %q\n", *gen)
			os.Exit(2)
		}
	}

	g := graph.FromMatrix(a)
	report := func(label string, part []int) {
		cut, weights, err := partition.Validate(g, part, *k)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		minW, maxW := weights[0], weights[0]
		for _, w := range weights {
			if w < minW {
				minW = w
			}
			if w > maxW {
				maxW = w
			}
		}
		lay, err := dist.NewLayout(a.N, *k, part)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		plan, err := core.NewPlan(a, lay)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		imbalance := float64(maxW) * float64(*k) / float64(g.TotalVWgt())
		fmt.Printf("%-12s edge-cut=%-8d balance=%.3f interior=%.1f%% interface=%d\n",
			label, cut, imbalance, 100*plan.InteriorFraction(), plan.NInterface)
	}

	fmt.Printf("%s: n=%d nnz=%d edges=%d, k=%d\n", name, a.N, a.NNZ(), g.NEdges(), *k)
	report("multilevel", partition.KWay(g, *k, partition.Options{Seed: *seed}))
	if *compareRandom {
		report("random", partition.RandomKWay(g, *k, *seed))
	}
	_ = err
}
