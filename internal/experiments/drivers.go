package experiments

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/core"
	"repro/internal/ilu"
	"repro/internal/machine"
	"repro/internal/pcomm/backend"
)

// env is what a driver runs on: the configuration, its two problems
// (built once, so every driver sees the same plans), table3's GMRES
// stopping rule and the writer for the tables.
type env struct {
	c         Config
	g0, torso *Problem
	tol       float64
	maxMV     int
	w         io.Writer
}

func (e env) both() []*Problem { return []*Problem{e.g0, e.torso} }

// drivers maps each experiment name to its driver, in the order "all"
// runs them.
var drivers = []struct {
	name string
	run  func(e env) error
}{
	{"summary", func(e env) error { e.c.Summary(e.w, e.both()); return nil }},
	{"table1", func(e env) error { return e.c.RunTable1(e.w, e.both()) }},
	{"table2", func(e env) error { return e.c.RunTable2(e.w, e.torso) }},
	{"table3", func(e env) error { return e.c.RunTable3(e.w, e.both(), e.tol, e.maxMV) }},
	{"fig4", func(e env) error { return e.c.RunFigure(e.w, e.g0, false) }},
	{"fig5", func(e env) error { return e.c.RunFigure(e.w, e.torso, false) }},
	{"fig6", func(e env) error { return e.c.RunFigure(e.w, e.torso, true) }},
	{"structure", func(e env) error { return e.c.RunStructure(e.w, e.g0) }},
	{"ablation-k", func(e env) error { return e.c.RunAblationK(e.w, e.torso) }},
	{"ablation-mis", func(e env) error { return e.c.RunAblationMIS(e.w, e.torso) }},
	{"ablation-partition", func(e env) error { return e.c.RunAblationPartition(e.w, e.torso) }},
	{"breakdown", func(e env) error { return e.c.RunBreakdown(e.w, e.torso) }},
	{"ilu0", func(e env) error { return e.c.RunILU0(e.w, e.torso) }},
	{"network", func(e env) error { return e.c.RunNetwork(e.w, e.torso) }},
}

// Names lists the experiments, in the order "all" runs them.
func Names() []string {
	ns := make([]string, len(drivers))
	for i, d := range drivers {
		ns[i] = d.name
	}
	return ns
}

// Run runs the named experiments in the order given — "all" stands for
// every one, in Names order — on c's two problems and writes their
// tables to w. tol and maxMV are table3's GMRES stopping rule. done, when
// non-nil, is called with each name as its experiment finishes. An
// unknown name or backend is reported before anything runs.
func (c Config) Run(w io.Writer, names []string, tol float64, maxMV int, done func(name string)) error {
	var order []int
	for _, name := range names {
		found := false
		for i, d := range drivers {
			if name == "all" || name == d.name {
				order = append(order, i)
				found = true
			}
		}
		if !found {
			return fmt.Errorf("unknown experiment %q; choose from %s, all", name, strings.Join(Names(), ", "))
		}
	}
	if err := backend.Validate(c.Backend); err != nil {
		return err
	}
	e := env{c: c, g0: c.G0(), torso: c.Torso(), tol: tol, maxMV: maxMV, w: w}
	for _, i := range order {
		if err := drivers[i].run(e); err != nil {
			return fmt.Errorf("%s: %w", drivers[i].name, err)
		}
		if done != nil {
			done(drivers[i].name)
		}
	}
	return nil
}

// nApply is how many substitutions (or products) one timed run of Table 2
// or Figure 6 makes; its time is reported per application.
const nApply = 5

// sweep is the paper's factorization grid in its tables' row order:
// ILUT, then ILUT*, each τ, each m.
func (c Config) sweep() []ilu.Params {
	var rows []ilu.Params
	for _, k := range []int{0, c.K} {
		for _, tau := range c.Taus {
			for _, m := range c.Ms {
				rows = append(rows, ilu.Params{M: m, Tau: tau, K: k})
			}
		}
	}
	return rows
}

// procTable is the paper's one rows-by-p table: a row per params, named
// by ConfigName, whose entries row makes from pr's cells on every p of
// c.Procs. first heads the names' column and extra any columns after the
// p ones.
func (c Config) procTable(pr *Problem, first string, rows []ilu.Params, row func(cs []Cell) []string, extra ...string) (*Table, error) {
	tbl := &Table{Header: []string{first}}
	for _, p := range c.Procs {
		tbl.Header = append(tbl.Header, fmt.Sprintf("p=%d", p))
	}
	tbl.Header = append(tbl.Header, extra...)
	for _, params := range rows {
		cs := make([]Cell, len(c.Procs))
		for i, p := range c.Procs {
			cell, err := c.Factorization(pr, p, params)
			if err != nil {
				return nil, err
			}
			cs[i] = cell
		}
		tbl.Add(append([]string{ConfigName(params)}, row(cs)...)...)
	}
	return tbl, nil
}

// each formats every cell of a row with f.
func each(cs []Cell, f func(Cell) string) []string {
	out := make([]string, len(cs))
	for i, x := range cs {
		out[i] = f(x)
	}
	return out
}

// RunTable1 reproduces Table 1: parallel factorization time (modelled
// seconds) for every (m, tau) configuration of ILUT and ILUT*, on every
// processor count, for both problems. It also prints the independent-set
// counts the paper quotes in the text.
func (c Config) RunTable1(w io.Writer, probs []*Problem) error {
	for _, pr := range probs {
		fmt.Fprintf(w, "\nTable 1 — %s (n=%d, nnz=%d): factorization time (modelled seconds)\n",
			pr.Name, pr.A.N, pr.A.NNZ())
		tbl, err := c.procTable(pr, "Factorization", c.sweep(), func(cs []Cell) []string {
			return append(each(cs, func(x Cell) string { return fmt.Sprintf("%.4f", x.Seconds) }),
				fmt.Sprintf("%d", cs[len(cs)-1].Levels))
		}, "q@maxp")
		if err != nil {
			return err
		}
		tbl.Write(w)
	}
	return nil
}

// RunTable2 reproduces Table 2: forward+backward substitution time per
// application for every factorization of TORSO, plus the matrix–vector
// product row.
func (c Config) RunTable2(w io.Writer, pr *Problem) error {
	fmt.Fprintf(w, "\nTable 2 — %s: forward+backward substitution time (modelled seconds)\n", pr.Name)
	rows := c.sweep()
	tbl, err := c.procTable(pr, "Factorization", rows, func(cs []Cell) []string {
		return each(cs, func(x Cell) string { return fmt.Sprintf("%.5f", x.SolveSeconds) })
	})
	if err != nil {
		return err
	}
	row := []string{"Matrix-Vector"}
	var mvRates []string
	for _, p := range c.Procs {
		t, rate, err := c.MatVecRate(pr, p)
		if err != nil {
			return err
		}
		row = append(row, fmt.Sprintf("%.5f", t))
		mvRates = append(mvRates, fmt.Sprintf("p=%d: %.1f", p, rate))
	}
	tbl.Add(row...)
	tbl.Write(w)
	fmt.Fprintf(w, "matvec MFlops/processor: %s\n", mvRates)

	// The paper's §6 rate comparison: trisolve MFlops vs matvec MFlops
	// for the densest factorization, the sweep's last row.
	maxP := c.Procs[len(c.Procs)-1]
	densest, err := c.Factorization(pr, maxP, rows[len(rows)-1])
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "trisolve MFlops/processor at p=%d (densest ILUT*): %.1f\n", maxP, densest.SolveMFlops)
	return nil
}

// RunTable3 reproduces Table 3: GMRES(10) and GMRES(50) time and
// matrix–vector counts on the largest processor count, for ILUT, ILUT*
// and the diagonal preconditioner. Both restarts of a row run on one
// factorization.
func (c Config) RunTable3(w io.Writer, probs []*Problem, tol float64, maxMV int) error {
	p := c.Procs[len(c.Procs)-1]
	for _, pr := range probs {
		fmt.Fprintf(w, "\nTable 3 — %s on p=%d: GMRES time (modelled s) and matvec count, tol=%g\n",
			pr.Name, p, tol)
		tbl := &Table{Header: []string{"Preconditioner", "GMRES(10) Time", "NMV", "GMRES(50) Time", "NMV"}}
		addRow := func(name string, pcs []*core.ProcPrecond) error {
			row := []string{name}
			for _, restart := range []int{10, 50} {
				out, err := c.GMRES(pr, p, pcs, restart, maxMV, tol)
				if err != nil {
					return err
				}
				row = append(row, fmt.Sprintf("%.4f", out.Seconds), out.nmv())
			}
			tbl.Add(row...)
			return nil
		}
		for _, params := range c.sweep() {
			_, err := c.factor(pr, c.at(p, params), func(pcs []*core.ProcPrecond) error {
				return addRow(ConfigName(params), pcs)
			})
			if err != nil {
				return err
			}
		}
		if err := addRow("Diagonal", nil); err != nil {
			return err
		}
		tbl.Write(w)
	}
	return nil
}

// RunFigure reproduces Figures 4/5 (factorization relative speedup) or
// Figure 6 (substitution relative speedup) for one problem: for every
// configuration, the speedup on each processor count relative to the
// smallest.
func (c Config) RunFigure(w io.Writer, pr *Problem, substitution bool) error {
	what := "factorization"
	seconds := func(x Cell) float64 { return x.Seconds }
	if substitution {
		what = "forward+backward substitution"
		seconds = func(x Cell) float64 { return x.SolveSeconds }
	}
	fmt.Fprintf(w, "\nFigure — %s: %s speedup relative to p=%d\n", pr.Name, what, c.Procs[0])
	tbl, err := c.procTable(pr, "Configuration", c.sweep(), func(cs []Cell) []string {
		return each(cs, func(x Cell) string { return fmt.Sprintf("%.2f", seconds(cs[0])/seconds(x)) })
	})
	if err != nil {
		return err
	}
	tbl.Write(w)
	return nil
}

// RunStructure prints the level-set statistics the paper's Figures 1–3
// illustrate on pr: how many independent sets the interface needs, their
// sizes, and how fill makes a static colouring invalid.
func (c Config) RunStructure(w io.Writer, pr *Problem) error {
	p := c.Procs[0]
	fmt.Fprintf(w, "\nStructure (Figures 1–3) — %s on p=%d\n", pr.Name, p)
	for _, cfg := range []struct {
		name   string
		params ilu.Params
	}{
		{"ILU(0)-like (tau huge)", ilu.Params{M: 0, Tau: 0.5}},
		{"ILUT(10,1e-4)", ilu.Params{M: 10, Tau: 1e-4}},
		{"ILUT(10,1e-6)", ilu.Params{M: 10, Tau: 1e-6}},
		{"ILUT*(10,1e-6,2)", ilu.Params{M: 10, Tau: 1e-6, K: c.K}},
	} {
		cell, err := c.Factorization(pr, p, cfg.params)
		if err != nil {
			return err
		}
		sizes := ""
		for i, size := range cell.Sizes {
			if i > 8 {
				sizes += "…"
				break
			}
			sizes += fmt.Sprintf("%d ", size)
		}
		fmt.Fprintf(w, "  %-22s interface=%d  q=%d  level sizes: %s\n",
			cfg.name, cell.Interface, cell.Levels, sizes)
	}
	fmt.Fprintln(w, "  (more fill ⇒ denser reduced matrices ⇒ more, smaller independent sets)")
	return nil
}

// RunAblationK sweeps the ILUT* cap multiplier k, the paper's central
// design choice (§4.2, conclusion).
func (c Config) RunAblationK(w io.Writer, pr *Problem) error {
	p := c.Procs[len(c.Procs)-1]
	m, tau := 10, 1e-6
	fmt.Fprintf(w, "\nAblation — ILUT* cap k on %s, p=%d, m=%d, tau=%.0e\n", pr.Name, p, m, tau)
	tbl := &Table{Header: []string{"k", "Factor time", "q levels", "GMRES(50) NMV"}}
	for _, k := range []int{1, 2, 4, 8, 0} {
		var gm GMRESOutcome
		cell, err := c.factor(pr, c.at(p, ilu.Params{M: m, Tau: tau, K: k}), func(pcs []*core.ProcPrecond) (err error) {
			gm, err = c.GMRES(pr, p, pcs, 50, 3000, 1e-6)
			return err
		})
		if err != nil {
			return err
		}
		label := fmt.Sprintf("%d", k)
		if k == 0 {
			label = "∞ (plain ILUT)"
		}
		tbl.Add(label, fmt.Sprintf("%.4f", cell.Seconds), fmt.Sprintf("%d", cell.Levels), gm.nmv())
	}
	tbl.Write(w)
	return nil
}

// RunAblationMIS sweeps the Luby augmentation-round bound (the paper fixes
// it at 5).
func (c Config) RunAblationMIS(w io.Writer, pr *Problem) error {
	p := c.Procs[len(c.Procs)-1]
	fmt.Fprintf(w, "\nAblation — MIS augmentation rounds on %s, p=%d\n", pr.Name, p)
	tbl := &Table{Header: []string{"rounds", "Factor time", "q levels"}}
	for _, rounds := range []int{1, 3, 5, 8, 16} {
		k := c.at(p, ilu.Params{M: 10, Tau: 1e-4, K: c.K})
		k.rounds = rounds
		cell, err := c.cell(pr, k)
		if err != nil {
			return err
		}
		tbl.Add(fmt.Sprintf("%d", rounds), fmt.Sprintf("%.4f", cell.Seconds), fmt.Sprintf("%d", cell.Levels))
	}
	tbl.Write(w)
	return nil
}

// RunAblationPartition contrasts multilevel and random partitions.
func (c Config) RunAblationPartition(w io.Writer, pr *Problem) error {
	p := c.Procs[len(c.Procs)-1]
	fmt.Fprintf(w, "\nAblation — partition quality on %s, p=%d\n", pr.Name, p)
	tbl := &Table{Header: []string{"partition", "interface", "Factor time", "q levels"}}
	for _, random := range []bool{false, true} {
		k := c.at(p, ilu.Params{M: 10, Tau: 1e-4, K: c.K})
		k.random = random
		cell, err := c.cell(pr, k)
		if err != nil {
			return err
		}
		name := "multilevel k-way"
		if random {
			name = "random"
		}
		tbl.Add(name, fmt.Sprintf("%d", cell.Interface), fmt.Sprintf("%.4f", cell.Seconds), fmt.Sprintf("%d", cell.Levels))
	}
	tbl.Write(w)
	return nil
}

// Summary prints the problem inventory.
func (c Config) Summary(w io.Writer, probs []*Problem) {
	fmt.Fprintln(w, "Problems:")
	for _, pr := range probs {
		fmt.Fprintf(w, "  %-6s n=%d nnz=%d", pr.Name, pr.A.N, pr.A.NNZ())
		for _, p := range c.Procs {
			plan, err := pr.PlanFor(p)
			if err != nil {
				fmt.Fprintf(w, "  [plan error: %v]", err)
				break
			}
			fmt.Fprintf(w, "  iface@%d=%d", p, plan.NInterface)
		}
		fmt.Fprintln(w)
	}
}

// RunNetwork contrasts the T3D cost model with a slow workstation-cluster
// network — the paper's conclusion: "the modifications of ILUT* are
// critical for obtaining good performance on parallel computers with
// slower communication networks (such as workstation clusters)". On the
// slow network both variants pay far more for synchronization, and the
// absolute cost of ILUT's extra levels grows by orders of magnitude —
// plain ILUT stops being usable at all, which is the sense in which the
// modification is critical.
func (c Config) RunNetwork(w io.Writer, pr *Problem) error {
	p := c.Procs[len(c.Procs)-1]
	fmt.Fprintf(w, "\nNetwork sensitivity — %s, p=%d, ILUT(10,1e-6) vs ILUT*(10,1e-6,%d)\n", pr.Name, p, c.K)
	tbl := &Table{Header: []string{"network", "ILUT time", "ILUT* time", "seconds saved", "ratio"}}
	for _, net := range []struct {
		name string
		cost machine.CostModel
	}{
		{"Cray T3D", machine.T3D()},
		{"workstation cluster", machine.Workstation()},
	} {
		cfg := c
		cfg.Cost = net.cost
		plain, err := cfg.Factorization(pr, p, ilu.Params{M: 10, Tau: 1e-6})
		if err != nil {
			return err
		}
		star, err := cfg.Factorization(pr, p, ilu.Params{M: 10, Tau: 1e-6, K: c.K})
		if err != nil {
			return err
		}
		tbl.Add(net.name,
			fmt.Sprintf("%.4f", plain.Seconds),
			fmt.Sprintf("%.4f", star.Seconds),
			fmt.Sprintf("%.4f", plain.Seconds-star.Seconds),
			fmt.Sprintf("%.2fx", plain.Seconds/star.Seconds))
	}
	tbl.Write(w)
	return nil
}

// RunILU0 contrasts the static-pattern parallel ILU(0) (schedule fully
// precomputed — §3's Figure 1(a) scheme) with parallel ILUT: level
// counts, factorization time, and preconditioning quality. This is the
// comparison motivating threshold dropping in the first place.
func (c Config) RunILU0(w io.Writer, pr *Problem) error {
	p := c.Procs[len(c.Procs)-1]
	fmt.Fprintf(w, "\nILU(0) vs ILUT — %s, p=%d\n", pr.Name, p)
	tbl := &Table{Header: []string{"factorization", "q levels", "factor time", "GMRES(50) NMV"}}
	ilu0 := c.at(p, ilu.Params{})
	ilu0.ilu0 = true
	keys := []cellKey{ilu0}
	for _, params := range []ilu.Params{
		{M: 5, Tau: 1e-2},
		{M: 10, Tau: 1e-4, K: c.K},
		{M: 10, Tau: 1e-6, K: c.K},
	} {
		keys = append(keys, c.at(p, params))
	}
	for _, k := range keys {
		var gm GMRESOutcome
		cell, err := c.factor(pr, k, func(pcs []*core.ProcPrecond) (err error) {
			gm, err = c.GMRES(pr, p, pcs, 50, 4000, 1e-6)
			return err
		})
		if err != nil {
			return err
		}
		name := "ILU(0)"
		if !k.ilu0 {
			name = ConfigName(k.params)
		}
		tbl.Add(name, fmt.Sprintf("%d", cell.Levels), fmt.Sprintf("%.4f", cell.Seconds), gm.nmv())
	}
	tbl.Write(w)
	fmt.Fprintln(w, "ILU(0)'s schedule is precomputable (few colour-class levels) but its")
	fmt.Fprintln(w, "position-based dropping needs more GMRES iterations on hard problems.")
	return nil
}

// RunBreakdown decomposes the modelled factorization time into compute
// and overhead (communication + synchronization + idle) — the paper's
// scalability story in one table: ILUT's overhead share explodes with p
// at small thresholds; ILUT*'s stays moderate.
func (c Config) RunBreakdown(w io.Writer, pr *Problem) error {
	fmt.Fprintf(w, "\nOverhead breakdown — %s factorization, overhead%% of processor-time\n", pr.Name)
	tbl, err := c.procTable(pr, "Factorization", []ilu.Params{
		{M: 10, Tau: 1e-4},
		{M: 10, Tau: 1e-4, K: c.K},
		{M: 10, Tau: 1e-6},
		{M: 10, Tau: 1e-6, K: c.K},
	}, func(cs []Cell) []string {
		return each(cs, func(x Cell) string { return fmt.Sprintf("%.0f%%", 100*x.Overhead) })
	})
	if err != nil {
		return err
	}
	tbl.Write(w)
	return nil
}
