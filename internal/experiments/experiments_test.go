package experiments

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"repro/internal/ilu"
	"repro/internal/machine"
)

// tiny returns a configuration small enough for unit tests. With
// PILUT_TEST_FAST set (as the race-enabled CI lane does), the problems
// shrink further: the race detector slows the simulated processors by
// roughly an order of magnitude, and the smoke tests only assert table
// shape and convergence flags, not resolution.
func tiny() Config {
	c := Config{
		Procs:     []int{2, 4},
		Ms:        []int{5},
		Taus:      []float64{1e-2, 1e-4},
		K:         2,
		G0Side:    20,
		TorsoSide: 8,
		Seed:      1,
		Cost:      machine.T3D(),
	}
	if os.Getenv("PILUT_TEST_FAST") != "" {
		c.Procs = []int{2}
		c.G0Side = 12
		c.TorsoSide = 6
	}
	return c
}

func TestFactorizationOutcome(t *testing.T) {
	c := tiny()
	pr := c.G0()
	out, pcs, err := c.Factorization(pr, 4, ilu.Params{M: 5, Tau: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	if out.Seconds <= 0 || out.Levels <= 0 || out.NNZ <= 0 || out.Interface <= 0 {
		t.Fatalf("degenerate outcome: %+v", out)
	}
	if len(pcs) != 4 {
		t.Fatalf("expected 4 pieces, got %d", len(pcs))
	}
}

func TestTriangularSolveAndMatVecTimes(t *testing.T) {
	c := tiny()
	pr := c.Torso()
	_, pcs, err := c.Factorization(pr, 2, ilu.Params{M: 5, Tau: 1e-4, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts, _, err := c.TriangularSolveRate(pr, 2, pcs, 3)
	if err != nil {
		t.Fatal(err)
	}
	mv, _, err := c.MatVecRate(pr, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if ts <= 0 || mv <= 0 {
		t.Fatalf("nonpositive times: solve=%v matvec=%v", ts, mv)
	}
	// The paper: a forward+backward substitution costs roughly the same as
	// a matvec (~1.3× at scale); at tiny scale allow a wide band.
	if ts > 50*mv {
		t.Errorf("triangular solve %v ≫ matvec %v", ts, mv)
	}
}

func TestGMRESOutcomes(t *testing.T) {
	c := tiny()
	pr := c.G0()
	ilutOut, err := c.GMRES(pr, 4, &ilu.Params{M: 5, Tau: 1e-4, K: 2}, 10, 2000, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if !ilutOut.Converged {
		t.Fatalf("ILUT* GMRES did not converge: %+v", ilutOut)
	}
	diagOut, err := c.GMRES(pr, 4, nil, 10, 2000, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if diagOut.Converged && diagOut.NMV <= ilutOut.NMV {
		t.Errorf("diagonal NMV %d not worse than ILUT* NMV %d", diagOut.NMV, ilutOut.NMV)
	}
}

func TestRunTable1Smoke(t *testing.T) {
	c := tiny()
	var buf bytes.Buffer
	if err := c.RunTable1(&buf, []*Problem{c.G0()}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "ILUT(5,1e-02)") || !strings.Contains(out, "ILUT*(5,1e-04,2)") {
		t.Errorf("table missing expected rows:\n%s", out)
	}
}

func TestRunTable2And3Smoke(t *testing.T) {
	c := tiny()
	var buf bytes.Buffer
	if err := c.RunTable2(&buf, c.Torso()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Matrix-Vector") {
		t.Error("table 2 missing matvec row")
	}
	buf.Reset()
	if err := c.RunTable3(&buf, []*Problem{c.G0()}, 1e-5, 1500); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Diagonal") {
		t.Error("table 3 missing diagonal row")
	}
}

func TestRunFigureAndStructureSmoke(t *testing.T) {
	c := tiny()
	var buf bytes.Buffer
	if err := c.RunFigure(&buf, c.G0(), false); err != nil {
		t.Fatal(err)
	}
	if err := c.RunFigure(&buf, c.G0(), true); err != nil {
		t.Fatal(err)
	}
	if err := c.RunStructure(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "speedup") {
		t.Error("figure output missing")
	}
}

func TestAblationsSmoke(t *testing.T) {
	c := tiny()
	var buf bytes.Buffer
	if err := c.RunAblationK(&buf, c.G0()); err != nil {
		t.Fatal(err)
	}
	if err := c.RunAblationMIS(&buf, c.G0()); err != nil {
		t.Fatal(err)
	}
	if err := c.RunAblationPartition(&buf, c.G0()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "plain ILUT") {
		t.Errorf("ablation output incomplete:\n%s", buf.String())
	}
}

func TestSpeedupShape(t *testing.T) {
	// The central performance claim: factorization on more processors
	// takes less modelled time. Needs a problem big enough that interface
	// overhead does not dominate (the paper's smallest case is 52k rows;
	// 4k suffices for 2→8 processors).
	c := tiny()
	c.Procs = []int{2, 8}
	c.G0Side = 64
	pr := c.G0()
	t2, _, err := c.Factorization(pr, 2, ilu.Params{M: 5, Tau: 1e-4, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	t8, _, err := c.Factorization(pr, 8, ilu.Params{M: 5, Tau: 1e-4, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if t8.Seconds >= t2.Seconds {
		t.Errorf("no speedup: p=2 %.5fs vs p=8 %.5fs", t2.Seconds, t8.Seconds)
	}
}

func TestILUTStarFasterAtSmallThreshold(t *testing.T) {
	// Paper: for t=1e-6, ILUT* beats ILUT in factorization time.
	c := tiny()
	pr := c.Torso()
	p := 4
	plain, _, err := c.Factorization(pr, p, ilu.Params{M: 10, Tau: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	star, _, err := c.Factorization(pr, p, ilu.Params{M: 10, Tau: 1e-6, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if star.Seconds > plain.Seconds*1.05 {
		t.Errorf("ILUT* (%.5fs) not faster than ILUT (%.5fs)", star.Seconds, plain.Seconds)
	}
	if star.Levels > plain.Levels {
		t.Errorf("ILUT* used more levels (%d) than ILUT (%d)", star.Levels, plain.Levels)
	}
}

func TestRunNetworkSmoke(t *testing.T) {
	c := tiny()
	var buf bytes.Buffer
	if err := c.RunNetwork(&buf, c.G0()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "workstation cluster") || !strings.Contains(out, "Cray T3D") {
		t.Errorf("network output incomplete:\n%s", out)
	}
}

func TestNetworkAmplifiesILUTStarAdvantage(t *testing.T) {
	// The paper's conclusion: on slower networks ILUT* becomes critical.
	// The absolute cost of ILUT's extra synchronization levels must blow
	// up on the slow network.
	c := tiny()
	c.G0Side = 48
	pr := c.G0()
	saved := func(cost machine.CostModel) float64 {
		cfg := c
		cfg.Cost = cost
		plain, _, err := cfg.Factorization(pr, 4, ilu.Params{M: 10, Tau: 1e-6})
		if err != nil {
			t.Fatal(err)
		}
		star, _, err := cfg.Factorization(pr, 4, ilu.Params{M: 10, Tau: 1e-6, K: 2})
		if err != nil {
			t.Fatal(err)
		}
		return plain.Seconds - star.Seconds
	}
	t3d := saved(machine.T3D())
	ws := saved(machine.Workstation())
	t.Logf("modelled seconds saved by ILUT*: T3D=%.4f workstation=%.4f", t3d, ws)
	if ws < 5*t3d {
		t.Errorf("slow network should amplify the absolute cost of ILUT's extra levels: saved T3D %.4f vs workstation %.4f", t3d, ws)
	}
}

func TestRunILU0Smoke(t *testing.T) {
	c := tiny()
	var buf bytes.Buffer
	if err := c.RunILU0(&buf, c.G0()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "ILU(0)") {
		t.Errorf("ilu0 output incomplete:\n%s", buf.String())
	}
}

func TestRunBreakdownSmoke(t *testing.T) {
	c := tiny()
	var buf bytes.Buffer
	if err := c.RunBreakdown(&buf, c.G0()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "%") {
		t.Errorf("breakdown output incomplete:\n%s", buf.String())
	}
}
