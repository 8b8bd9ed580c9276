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
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiments"
)

func main() {
	names := strings.Join(experiments.Names(), ", ") + ", all"
	exp := flag.String("exp", "all", "experiment to run: "+names)
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
	cfg.Procs = list("procs", *procsFlag, cfg.Procs, positive)
	cfg.Ms = list("ms", *msFlag, cfg.Ms, positive)
	cfg.Taus = list("taus", *tausFlag, cfg.Taus, func(s string) (float64, bool) {
		v, err := strconv.ParseFloat(s, 64)
		return v, err == nil && v > 0
	})

	if *exp != "all" && !slices.Contains(experiments.Names(), *exp) {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; choose one of %s\n", *exp, names)
		os.Exit(2)
	}
	t0 := time.Now()
	err := cfg.Run(os.Stdout, []string{*exp}, *tol, *maxMV, func(name string) {
		fmt.Fprintf(os.Stderr, "[%s completed in %v wall time]\n", name, time.Since(t0).Round(time.Millisecond))
		t0 = time.Now()
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// list parses flag -name's comma-separated value, each entry with parse;
// an empty value keeps def. An entry parse refuses exits 2, naming it.
func list[T any](name, value string, def []T, parse func(string) (T, bool)) []T {
	if value == "" {
		return def
	}
	var out []T
	for _, s := range strings.Split(value, ",") {
		v, ok := parse(strings.TrimSpace(s))
		if !ok {
			fmt.Fprintf(os.Stderr, "bad -%s entry %q\n", name, s)
			os.Exit(2)
		}
		out = append(out, v)
	}
	return out
}

// positive parses a count of at least 1.
func positive(s string) (int, bool) {
	v, err := strconv.Atoi(s)
	return v, err == nil && v >= 1
}
