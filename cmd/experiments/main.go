// Command experiments regenerates the paper's evaluation: every table and
// figure, plus the ablations listed in DESIGN.md.
//
// Usage:
//
//	experiments -exp table1|table2|table3|fig4|fig5|fig6|structure|
//	            ablation-k|ablation-mis|ablation-partition|ablation-schur|summary|all
//	            [-scale default|paper|small] [-procs 16,32,64,128]
//
// Times are modelled seconds on the simulated distributed machine (T3D
// cost constants); see DESIGN.md for the substitution argument. Stdout
// carries the tables only, so two runs print the same bytes; each
// experiment's wall time goes to stderr.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run (table1, table2, table3, fig4, fig5, fig6, structure, ablation-k, ablation-mis, ablation-partition, ablation-schur, network, ilu0, breakdown, summary, all)")
	scale := flag.String("scale", "default", "problem scale: small, default, or paper")
	procsFlag := flag.String("procs", "", "comma-separated processor counts (default 16,32,64,128)")
	msFlag := flag.String("ms", "", "comma-separated m values (default 5,10,20)")
	tausFlag := flag.String("taus", "", "comma-separated thresholds (default 1e-2,1e-4,1e-6)")
	tol := flag.Float64("tol", 1e-5, "GMRES relative residual tolerance (table3)")
	maxMV := flag.Int("maxmv", 3000, "GMRES matrix-vector budget (table3)")
	flag.Parse()

	var cfg experiments.Config
	switch *scale {
	case "paper":
		cfg = experiments.PaperScale()
	case "small":
		cfg = experiments.Default()
		cfg.G0Side = 64
		cfg.TorsoSide = 16
		cfg.Procs = []int{4, 8, 16, 32}
	case "default":
		cfg = experiments.Default()
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scale)
		os.Exit(2)
	}
	if *procsFlag != "" {
		var procs []int
		for _, s := range strings.Split(*procsFlag, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || v < 1 {
				fmt.Fprintf(os.Stderr, "bad -procs entry %q\n", s)
				os.Exit(2)
			}
			procs = append(procs, v)
		}
		cfg.Procs = procs
	}
	if *msFlag != "" {
		var ms []int
		for _, s := range strings.Split(*msFlag, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || v < 1 {
				fmt.Fprintf(os.Stderr, "bad -ms entry %q\n", s)
				os.Exit(2)
			}
			ms = append(ms, v)
		}
		cfg.Ms = ms
	}
	if *tausFlag != "" {
		var taus []float64
		for _, s := range strings.Split(*tausFlag, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
			if err != nil || v <= 0 {
				fmt.Fprintf(os.Stderr, "bad -taus entry %q\n", s)
				os.Exit(2)
			}
			taus = append(taus, v)
		}
		cfg.Taus = taus
	}

	g0 := cfg.G0()
	torso := cfg.Torso()
	both := []*experiments.Problem{g0, torso}

	run := func(name string, f func() error) {
		t0 := time.Now()
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "[%s completed in %v wall time]\n", name, time.Since(t0).Round(time.Millisecond))
	}

	w := os.Stdout
	all := *exp == "all"
	did := false
	want := func(name string) bool {
		if all || *exp == name {
			did = true
			return true
		}
		return false
	}

	if want("summary") || all {
		cfg.Summary(w, both)
	}
	if want("table1") {
		run("table1", func() error { return cfg.RunTable1(w, both) })
	}
	if want("table2") {
		run("table2", func() error { return cfg.RunTable2(w, torso) })
	}
	if want("table3") {
		run("table3", func() error { return cfg.RunTable3(w, both, *tol, *maxMV) })
	}
	if want("fig4") {
		run("fig4", func() error { return cfg.RunFigure(w, g0, false) })
	}
	if want("fig5") {
		run("fig5", func() error { return cfg.RunFigure(w, torso, false) })
	}
	if want("fig6") {
		run("fig6", func() error { return cfg.RunFigure(w, torso, true) })
	}
	if want("structure") {
		run("structure", func() error { return cfg.RunStructure(w) })
	}
	if want("ablation-k") {
		run("ablation-k", func() error { return cfg.RunAblationK(w, torso) })
	}
	if want("ablation-mis") {
		run("ablation-mis", func() error { return cfg.RunAblationMIS(w, torso) })
	}
	if want("ablation-partition") {
		run("ablation-partition", func() error { return cfg.RunAblationPartition(w, torso) })
	}
	if want("breakdown") {
		run("breakdown", func() error { return cfg.RunBreakdown(w, torso) })
	}
	if want("ilu0") {
		run("ilu0", func() error { return cfg.RunILU0(w, torso) })
	}
	if want("network") {
		run("network", func() error { return cfg.RunNetwork(w, torso) })
	}
	if want("ablation-schur") {
		run("ablation-schur", func() error { return cfg.RunAblationSchur(w, torso) })
	}
	if !did {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		os.Exit(2)
	}
}
