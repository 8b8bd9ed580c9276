package sparse

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func TestMatrixMarketRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randomCSR(rng, 20, 15, 0.2)
	var buf bytes.Buffer
	if err := WriteMatrixMarket(&buf, a); err != nil {
		t.Fatalf("write: %v", err)
	}
	b, err := ReadMatrixMarket(&buf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !a.Equal(b) {
		t.Fatal("round trip changed the matrix")
	}
}

func TestMatrixMarketSymmetricExpansion(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate real symmetric
3 3 4
1 1 2.0
2 1 -1.0
2 2 2.0
3 3 2.0
`
	a, err := ReadMatrixMarket(strings.NewReader(in))
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if a.At(0, 1) != -1 || a.At(1, 0) != -1 {
		t.Error("symmetric entry not mirrored")
	}
	if a.NNZ() != 5 {
		t.Errorf("NNZ = %d, want 5", a.NNZ())
	}
}

func TestMatrixMarketComments(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate real general
% a comment
% another
2 2 2
1 1 1.0
2 2 4.0
`
	a, err := ReadMatrixMarket(strings.NewReader(in))
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if a.At(1, 1) != 4 {
		t.Error("wrong value parsed")
	}
}

func TestMatrixMarketErrors(t *testing.T) {
	cases := []string{
		"",
		"%%MatrixMarket matrix array real general\n2 2\n",
		"%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1 0\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n", // out of range
		"%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n", // truncated
	}
	for i, in := range cases {
		if _, err := ReadMatrixMarket(strings.NewReader(in)); err == nil {
			t.Errorf("case %d: expected error, got nil", i)
		}
	}
}

func TestVecOps(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{4, 5, 6}
	if got := Dot(x, y); got != 32 {
		t.Errorf("Dot = %v, want 32", got)
	}
	if got := Norm2([]float64{3, 4}); got != 5 {
		t.Errorf("Norm2 = %v, want 5", got)
	}
	if got := NormInf([]float64{-7, 3}); got != 7 {
		t.Errorf("NormInf = %v, want 7", got)
	}
	z := append([]float64(nil), y...)
	Axpy(2, x, z)
	if z[0] != 6 || z[2] != 12 {
		t.Errorf("Axpy wrong: %v", z)
	}
	Scale(0.5, z)
	if z[0] != 3 {
		t.Errorf("Scale wrong: %v", z)
	}
	e := Ones(3)
	if e[0] != 1 || e[2] != 1 {
		t.Errorf("Ones wrong: %v", e)
	}
	g := Gathered([]float64{10, 20, 30}, []int{2, 0})
	if g[0] != 30 || g[1] != 10 {
		t.Errorf("Gathered wrong: %v", g)
	}
	s := make([]float64, 3)
	ScatterInto(s, []int{1, 2}, []float64{9, 8})
	if s[1] != 9 || s[2] != 8 {
		t.Errorf("ScatterInto wrong: %v", s)
	}
	p := PermuteVec([]float64{1, 2, 3}, []int{2, 0, 1})
	if p[2] != 1 || p[0] != 2 || p[1] != 3 {
		t.Errorf("PermuteVec wrong: %v", p)
	}
}

// TestMatrixMarketCorpusPassesCheck: whatever the reader accepts from the
// fuzz seeds and the committed corpus satisfies CSR.Check — the reader's
// output and the wire decoder's precondition are the same invariants.
func TestMatrixMarketCorpusPassesCheck(t *testing.T) {
	inputs := append([][]byte(nil), mmSeeds...)
	files, err := filepath.Glob("testdata/fuzz/FuzzReadMatrixMarket/*")
	if err != nil || len(files) == 0 {
		t.Fatalf("no committed corpus found: %v", err)
	}
	for _, name := range files {
		raw, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		// Corpus file format: a version line, then one `[]byte("…")` line.
		_, lit, ok := strings.Cut(string(raw), "\n[]byte(")
		in, err := strconv.Unquote(strings.TrimSuffix(strings.TrimSpace(lit), ")"))
		if !ok || err != nil {
			t.Fatalf("%s: not a one-argument corpus entry: %v", name, err)
		}
		inputs = append(inputs, []byte(in))
	}
	accepted := 0
	for _, in := range inputs {
		a, err := ReadMatrixMarket(bytes.NewReader(in))
		if err != nil {
			continue
		}
		accepted++
		if err := a.Check(); err != nil {
			t.Errorf("reader accepted %q but Check says %v", in, err)
		}
	}
	if accepted < 5 {
		t.Errorf("only %d corpus entries parse; the test reaches too little", accepted)
	}
}
