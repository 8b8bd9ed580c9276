// Command experiments regenerates the paper's evaluation: every table and
// figure, plus the ablations listed in DESIGN.md.
//
// Usage:
//
//	experiments -exp NAME|all [-scale default|paper|small] [-procs 16,32,64,128]
//
// `experiments -h` lists the names, in the order -exp all runs them.
//
// Times are modelled seconds on the simulated distributed machine (T3D
// cost constants); see DESIGN.md for the substitution argument. Stdout
// carries the tables only, so two runs print the same bytes; each
// experiment's wall time goes to stderr.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiments"
)

// env is what an experiment runs on: the configured harness, its two
// problems, the GMRES stopping rule of table3, and the writer for the
// tables.
type env struct {
	cfg       experiments.Config
	g0, torso *experiments.Problem
	tol       float64
	maxMV     int
	w         io.Writer
}

func (e env) both() []*experiments.Problem { return []*experiments.Problem{e.g0, e.torso} }

// drivers maps each -exp name to its experiment, in the order -exp all
// runs them.
var drivers = []struct {
	name string
	run  func(e env) error
}{
	{"summary", func(e env) error { e.cfg.Summary(e.w, e.both()); return nil }},
	{"table1", func(e env) error { return e.cfg.RunTable1(e.w, e.both()) }},
	{"table2", func(e env) error { return e.cfg.RunTable2(e.w, e.torso) }},
	{"table3", func(e env) error { return e.cfg.RunTable3(e.w, e.both(), e.tol, e.maxMV) }},
	{"fig4", func(e env) error { return e.cfg.RunFigure(e.w, e.g0, false) }},
	{"fig5", func(e env) error { return e.cfg.RunFigure(e.w, e.torso, false) }},
	{"fig6", func(e env) error { return e.cfg.RunFigure(e.w, e.torso, true) }},
	{"structure", func(e env) error { return e.cfg.RunStructure(e.w) }},
	{"ablation-k", func(e env) error { return e.cfg.RunAblationK(e.w, e.torso) }},
	{"ablation-mis", func(e env) error { return e.cfg.RunAblationMIS(e.w, e.torso) }},
	{"ablation-partition", func(e env) error { return e.cfg.RunAblationPartition(e.w, e.torso) }},
	{"breakdown", func(e env) error { return e.cfg.RunBreakdown(e.w, e.torso) }},
	{"ilu0", func(e env) error { return e.cfg.RunILU0(e.w, e.torso) }},
	{"network", func(e env) error { return e.cfg.RunNetwork(e.w, e.torso) }},
}

// names lists the experiments for -h and the unknown-name error.
func names() string {
	var ns []string
	for _, d := range drivers {
		ns = append(ns, d.name)
	}
	return strings.Join(ns, ", ") + ", all"
}

func main() {
	exp := flag.String("exp", "all", "experiment to run: "+names())
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

	known := *exp == "all"
	for _, d := range drivers {
		known = known || d.name == *exp
	}
	if !known {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; choose one of %s\n", *exp, names())
		os.Exit(2)
	}

	e := env{cfg: cfg, g0: cfg.G0(), torso: cfg.Torso(), tol: *tol, maxMV: *maxMV, w: os.Stdout}
	for _, d := range drivers {
		if *exp != "all" && *exp != d.name {
			continue
		}
		t0 := time.Now()
		if err := d.run(e); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", d.name, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "[%s completed in %v wall time]\n", d.name, time.Since(t0).Round(time.Millisecond))
	}
}
