package sparse

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// WriteMatrixMarket writes the matrix in MatrixMarket coordinate format
// (real, general), the interchange format used by sparse-matrix
// collections. Indices are 1-based on disk.
func WriteMatrixMarket(w io.Writer, a *CSR) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%%%%MatrixMarket matrix coordinate real general\n"); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(bw, "%d %d %d\n", a.N, a.M, a.NNZ()); err != nil {
		return err
	}
	for i := 0; i < a.N; i++ {
		cols, vals := a.Row(i)
		for k, j := range cols {
			if _, err := fmt.Fprintf(bw, "%d %d %.17g\n", i+1, j+1, vals[k]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// maxMMDim bounds the dimensions a MatrixMarket header may declare.
// Building the matrix allocates O(n) bookkeeping before any entry is
// verified, so a three-integer header must not be able to commit gigabytes;
// 1<<24 rows is far beyond the paper's problems while keeping the
// worst-case pre-allocation in the low hundreds of megabytes.
const maxMMDim = 1 << 24

// errNonFinite marks the refusal of a NaN or infinite value.
var errNonFinite = errors.New("value is not finite")

// ReadMatrixMarket parses a MatrixMarket coordinate file (real; general or
// symmetric — symmetric input is expanded to full storage). Pattern and
// complex files are rejected, as are headers declaring negative entry
// counts, non-square symmetric shapes, or dimensions beyond maxMMDim, and
// values that are not finite — as read, or as duplicates sum to — so
// whatever it returns passes CSR.Check. Fields of an entry line are
// separated by ASCII white space only.
func ReadMatrixMarket(r io.Reader) (*CSR, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<24)

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
	lineNo := 1
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 || line[0] == '%' {
			continue
		}
		if _, err := fmt.Sscan(string(line), &n, &m, &nnz); err != nil {
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

	// The triplets grow with the entries actually read: the size line's
	// count is checked against them, never allocated for.
	b := NewBuilder(n, m)
	read := 0
	for read < nnz && sc.Scan() {
		lineNo++
		fi, line := mmField(sc.Bytes())
		if len(fi) == 0 || fi[0] == '%' {
			continue
		}
		fj, line := mmField(line)
		fv, _ := mmField(line)
		if len(fv) == 0 {
			return nil, fmt.Errorf("sparse: MatrixMarket: line %d: bad entry line %q", lineNo, sc.Bytes())
		}
		// A conversion of a short token to string for a call that does not
		// keep it stays on the stack.
		i, err := strconv.Atoi(string(fi))
		if err != nil {
			return nil, fmt.Errorf("sparse: MatrixMarket: line %d: bad row index %q", lineNo, fi)
		}
		j, err := strconv.Atoi(string(fj))
		if err != nil {
			return nil, fmt.Errorf("sparse: MatrixMarket: line %d: bad column index %q", lineNo, fj)
		}
		v, err := strconv.ParseFloat(string(fv), 64)
		if err != nil {
			return nil, fmt.Errorf("sparse: MatrixMarket: line %d: bad value %q", lineNo, fv)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("sparse: MatrixMarket: line %d: value %q: %w", lineNo, fv, errNonFinite)
		}
		if i < 1 || i > n || j < 1 || j > m {
			return nil, fmt.Errorf("sparse: MatrixMarket: line %d: entry (%d,%d) out of range", lineNo, i, j)
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
	a := b.Build()
	for k, v := range a.Vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("sparse: MatrixMarket: duplicate entries of column %d sum to %v: %w", a.Cols[k]+1, v, errNonFinite)
		}
	}
	return a, nil
}

// mmField returns the first field of an entry line — empty if there is
// none — and what follows it. Fields are separated by the ASCII white space
// a line can hold; the Unicode spaces (U+0085, U+00A0, …) are not
// separators, so a line that uses one is a bad entry line.
func mmField(line []byte) (field, rest []byte) {
	// Space, or \t \v \f \r (a line holds no \n); one test for the bytes
	// of a number.
	isSpace := func(c byte) bool { return c <= ' ' && (c == ' ' || c >= '\t' && c <= '\r') }
	k := 0
	for k < len(line) && isSpace(line[k]) {
		k++
	}
	start := k
	for k < len(line) && !isSpace(line[k]) {
		k++
	}
	return line[start:k], line[k:]
}
