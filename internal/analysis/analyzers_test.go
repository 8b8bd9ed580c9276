package analysis_test

import (
	"path/filepath"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
)

func testdata(t *testing.T, pkg string) string {
	t.Helper()
	dir, err := filepath.Abs(filepath.Join("testdata", "src", pkg))
	if err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestSendAlias(t *testing.T) {
	analysistest.Run(t, analysis.SendAlias, testdata(t, "sendalias"))
}

func TestCollective(t *testing.T) {
	analysistest.Run(t, analysis.Collective, testdata(t, "collective"))
}

func TestProcEscape(t *testing.T) {
	analysistest.Run(t, analysis.ProcEscape, testdata(t, "procescape"))
}

func TestBytesArg(t *testing.T) {
	analysistest.Run(t, analysis.BytesArg, testdata(t, "bytesarg"))
}

func TestDeterminism(t *testing.T) {
	analysistest.Run(t, analysis.Determinism, testdata(t, "determinism"))
}

func TestFloatFold(t *testing.T) {
	analysistest.Run(t, analysis.FloatFold, testdata(t, "floatfold"))
}

func TestHotAlloc(t *testing.T) {
	analysistest.Run(t, analysis.HotAlloc, testdata(t, "hotalloc"))
}

func TestErrDrop(t *testing.T) {
	analysistest.Run(t, analysis.ErrDrop, testdata(t, "errdrop"))
}

// TestErrDropNetcomm covers the stricter boundary applied inside the
// netcomm transport: stdlib net/io/bufio/exec errors, the codec's and the
// package's own helpers must be handled, with Close excepted.
func TestErrDropNetcomm(t *testing.T) {
	analysistest.Run(t, analysis.ErrDrop, testdata(t, "netcomm"))
}

// TestErrDropCluster covers the per-file cluster boundary: inside
// membership.go and replication.go, stdlib net/http/io/json errors
// must be handled (Close excepted), while a sibling file in the same
// package dropping the same errors stays clean.
func TestErrDropCluster(t *testing.T) {
	analysistest.Run(t, analysis.ErrDrop, testdata(t, "clusterdrop"))
}

// TestSuppressMultiLineCall is the regression test for suppression
// matching: an annotation above a multi-line call covers diagnostics
// reported at the call's arguments on later lines.
func TestSuppressMultiLineCall(t *testing.T) {
	analysistest.Run(t, analysis.SendAlias, testdata(t, "suppressmulti"))
}

// TestSuiteCleanOverModule is the self-check: the full analyzer suite
// must report nothing over the module's own tree, so a finding anywhere
// is either a real regression or a missing annotation — the same
// contract CI's lint job enforces with the pilutlint driver.
func TestSuiteCleanOverModule(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	dirs, err := analysis.ExpandPatterns([]string{"../../..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) == 0 {
		t.Fatal("pattern expansion found no packages")
	}
	ld, err := analysis.NewLoader("../..")
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range dirs {
		pkgs, err := ld.Load(dir, false)
		if err != nil {
			t.Fatalf("load %s: %v", dir, err)
		}
		for _, pkg := range pkgs {
			for _, a := range analysis.All() {
				diags, err := a.Apply(pkg)
				if err != nil {
					t.Fatalf("%s: %s: %v", pkg.Path, a.Name, err)
				}
				for _, d := range diags {
					t.Errorf("%s: %s: %s (%s)", pkg.Path, pkg.Fset.Position(d.Pos), d.Message, a.Name)
				}
			}
		}
	}
}
