package sparse

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"unicode"
	"unicode/utf8"
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
	p := PermuteVec([]float64{1, 2, 3}, []int{2, 0, 1})
	if p[2] != 1 || p[0] != 2 || p[1] != 3 {
		t.Errorf("PermuteVec wrong: %v", p)
	}
}

// TestMatrixMarketCorpusPassesCheck: whatever the reader accepts from the
// fuzz seeds and the committed corpus satisfies CSR.Check — the reader's
// output and the wire decoder's precondition are the same invariants.
func TestMatrixMarketCorpusPassesCheck(t *testing.T) {
	accepted := 0
	for _, in := range mmCorpus(t) {
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

// mmCorpus is the fuzz seeds plus the committed corpus.
func mmCorpus(t *testing.T) [][]byte {
	t.Helper()
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
	return inputs
}

// refReadMatrixMarket is ReadMatrixMarket as it was before it became a
// byte scanner, verbatim: Scanner.Text, TrimSpace, Fields and Sscan on
// every line. It is the reference the scanner is held to.
func refReadMatrixMarket(r io.Reader) (*CSR, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)

	if !sc.Scan() {
		return nil, fmt.Errorf("sparse: MatrixMarket: empty input")
	}
	header := strings.Fields(strings.ToLower(sc.Text()))
	if len(header) < 5 || header[0] != "%%matrixmarket" || header[1] != "matrix" || header[2] != "coordinate" {
		return nil, fmt.Errorf("sparse: MatrixMarket: unsupported header %q", sc.Text())
	}
	if header[3] != "real" && header[3] != "integer" {
		return nil, fmt.Errorf("sparse: MatrixMarket: unsupported field type %q", header[3])
	}
	symmetric := false
	switch header[4] {
	case "general":
	case "symmetric":
		symmetric = true
	default:
		return nil, fmt.Errorf("sparse: MatrixMarket: unsupported symmetry %q", header[4])
	}

	// Skip comments, read the size line.
	var n, m, nnz int
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		if _, err := fmt.Sscan(line, &n, &m, &nnz); err != nil {
			return nil, fmt.Errorf("sparse: MatrixMarket: bad size line %q: %v", line, err)
		}
		break
	}
	if n <= 0 || m <= 0 {
		return nil, fmt.Errorf("sparse: MatrixMarket: invalid dimensions %d×%d", n, m)
	}
	if n > maxMMDim || m > maxMMDim {
		return nil, fmt.Errorf("sparse: MatrixMarket: dimensions %d×%d exceed the %d limit", n, m, maxMMDim)
	}
	if nnz < 0 {
		return nil, fmt.Errorf("sparse: MatrixMarket: negative entry count %d", nnz)
	}
	if symmetric && n != m {
		return nil, fmt.Errorf("sparse: MatrixMarket: symmetric matrix must be square, got %d×%d", n, m)
	}

	b := NewBuilder(n, m)
	read := 0
	for read < nnz && sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 3 {
			return nil, fmt.Errorf("sparse: MatrixMarket: bad entry line %q", line)
		}
		i, err := strconv.Atoi(f[0])
		if err != nil {
			return nil, fmt.Errorf("sparse: MatrixMarket: bad row index %q", f[0])
		}
		j, err := strconv.Atoi(f[1])
		if err != nil {
			return nil, fmt.Errorf("sparse: MatrixMarket: bad column index %q", f[1])
		}
		v, err := strconv.ParseFloat(f[2], 64)
		if err != nil {
			return nil, fmt.Errorf("sparse: MatrixMarket: bad value %q", f[2])
		}
		if i < 1 || i > n || j < 1 || j > m {
			return nil, fmt.Errorf("sparse: MatrixMarket: entry (%d,%d) out of range", i, j)
		}
		b.Add(i-1, j-1, v)
		if symmetric && i != j {
			b.Add(j-1, i-1, v)
		}
		read++
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if read < nnz {
		return nil, fmt.Errorf("sparse: MatrixMarket: expected %d entries, found %d", nnz, read)
	}
	return b.Build(), nil
}

// checkAgainstParent holds the scanner to the parent's parser on one
// input: the same accept or reject, and on accept the same CSR with values
// compared as bits. Two refusals of something the parent took are allowed,
// each recognised for what it is: a value that is not finite, and an entry
// line that leans on a Unicode space to separate or pad its fields.
func checkAgainstParent(t *testing.T, data []byte) {
	t.Helper()
	got, gerr := ReadMatrixMarket(bytes.NewReader(data))
	want, werr := refReadMatrixMarket(bytes.NewReader(data))
	switch {
	case gerr != nil && werr != nil:
	case gerr == nil && werr != nil:
		t.Fatalf("accepted %q, which the parent refused: %v", data, werr)
	case gerr == nil:
		if got.N != want.N || got.M != want.M || !reflect.DeepEqual(got.RowPtr, want.RowPtr) || !reflect.DeepEqual(got.Cols, want.Cols) {
			t.Fatalf("%q: structure differs from the parent's\n got %+v\nwant %+v", data, got, want)
		}
		for k, v := range got.Vals {
			if math.Float64bits(v) != math.Float64bits(want.Vals[k]) {
				t.Fatalf("%q: value %d is %v, the parent's %v", data, k, v, want.Vals[k])
			}
		}
	case errors.Is(gerr, errNonFinite):
		if want.Check() == nil {
			t.Fatalf("%q refused as non-finite (%v), but the parent's matrix is finite", data, gerr)
		}
	case bytes.ContainsFunc(data, func(r rune) bool { return r >= utf8.RuneSelf && unicode.IsSpace(r) }):
	default:
		t.Fatalf("refused %q, which the parent accepted: %v", data, gerr)
	}
}

// TestReadMatrixMarketMatchesParent runs the differential check over the
// seeds and the committed corpus, then pins each allowed divergence and the
// size-line bound as decisions.
func TestReadMatrixMarketMatchesParent(t *testing.T) {
	for _, in := range mmCorpus(t) {
		checkAgainstParent(t, in)
	}
	const head = "%%MatrixMarket matrix coordinate real general\n"
	for _, c := range []struct {
		name, in string
		refuse   string // what the scanner's error says; "" = accepted like the parent
		parentOK bool
	}{
		{"tabs, CR, VT, FF and a fourth field", head + "2 2 2\n\t1\v1\f 4.5 junk\r\n  2 \t 2   -1e-3\n", "", true},
		{"comment and blank lines among the entries", head + "2 2 2\n1 1 1\n\n  % note\n \t\r\n2 2 2\n", "", true},
		{"entries past the declared count are not read", head + "1 1 1\n1 1 7\nnot an entry\n", "", true},
		{"signed and zero-padded indices", head + "3 3 1\n+2 003 0x1p-2\n", "", true},
		{"no newline at the end", head + "1 1 1\n1 1 2.5", "", true},
		{"two fields", head + "2 2 1\n1 1\n", "line 3: bad entry line", false},
		{"nan", head + "2 2 2\n1 1 1\n2 2 nan\n", "line 4: value \"nan\": value is not finite", true},
		{"inf", head + "2 2 1\n2 1 -Inf\n", "line 3: value \"-Inf\": value is not finite", true},
		{"infinity spelled out", head + "1 1 1\n1 1 +infinity\n", "line 3", true},
		{"duplicates that sum past the largest float", head + "2 2 2\n1 2 1e308\n1 2 1e308\n", "duplicate entries of column 2 sum to +Inf", true},
		{"U+00A0 between fields", head + "2 2 1\n1\u00a01 5\n", "line 3: bad entry line", true},
		{"U+0085 after the value", head + "2 2 1\n1 1 5\u0085\n", "line 3: bad value", true},
		{"U+00A0 before the row index", head + "2 2 1\n\u00a01 1 5\n", "line 3: bad row index", true},
		{"a line of U+2003 alone", head + "1 1 1\n\u2003\n1 1 5\n", "line 3: bad entry line", true},
	} {
		checkAgainstParent(t, []byte(c.in))
		_, err := ReadMatrixMarket(strings.NewReader(c.in))
		_, perr := refReadMatrixMarket(strings.NewReader(c.in))
		if (perr == nil) != c.parentOK {
			t.Errorf("%s: parent's error %v, expected accept = %v", c.name, perr, c.parentOK)
		}
		switch {
		case c.refuse == "" && err != nil:
			t.Errorf("%s: refused: %v", c.name, err)
		case c.refuse != "" && (err == nil || !strings.Contains(err.Error(), c.refuse)):
			t.Errorf("%s: error %v, want one saying %q", c.name, err, c.refuse)
		}
	}
}

// TestReadMatrixMarketDoesNotTrustTheSizeLine: a size line declaring 2^40
// entries over a body of one makes the reader allocate its read buffer and
// the one entry that is there, and then report the shortfall.
func TestReadMatrixMarketDoesNotTrustTheSizeLine(t *testing.T) {
	body := "%%MatrixMarket matrix coordinate real symmetric\n3 3 1099511627776\n1 1 1\n"
	var m1, m2 runtime.MemStats
	runtime.ReadMemStats(&m1)
	_, err := ReadMatrixMarket(strings.NewReader(body))
	runtime.ReadMemStats(&m2)
	if err == nil || !strings.Contains(err.Error(), "expected 1099511627776 entries, found 1") {
		t.Errorf("error %v, want the shortfall", err)
	}
	const bound = 128 << 10 // the 64 KiB read buffer, and slack for the runtime's own
	if got := m2.TotalAlloc - m1.TotalAlloc; got > bound {
		t.Errorf("%d bytes allocated for a %d-byte input, bound %d", got, len(body), bound)
	}
}
