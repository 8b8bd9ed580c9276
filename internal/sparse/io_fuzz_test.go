package sparse

import (
	"bytes"
	"math"
	"testing"
)

// mmSeeds seeds FuzzReadMatrixMarket; with the committed corpus under
// testdata/fuzz they are also what TestMatrixMarketCorpusPassesCheck reads.
var mmSeeds = [][]byte{
	[]byte("%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 4.0\n1 2 -1.5\n2 2 3.25\n"),
	[]byte("%%MatrixMarket matrix coordinate real symmetric\n3 3 4\n1 1 2\n2 1 -1\n2 2 2\n3 3 2\n"),
	[]byte("%%MatrixMarket matrix coordinate integer general\n% comment line\n\n2 2 2\n1 1 7\n2 2 9\n"),
	[]byte("%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 1e308\n"),
	[]byte("%%MatrixMarket matrix coordinate real general\n2 2 -5\n"),
	[]byte("%%MatrixMarket matrix coordinate real symmetric\n2 1 1\n2 1 0\n"),
	[]byte("%%MatrixMarket matrix coordinate real general\n99999999999 2 1\n1 1 1\n"),
	[]byte("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1\n"),
	[]byte("not a matrix market file\n"),
	[]byte(""),
	[]byte("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 nan\n2 2 -inf\n"),
	[]byte("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 2 1e308\n1 2 1e308\n"),
	[]byte("%%MatrixMarket matrix coordinate real general\n2 2 1\n1\u00a01\u0085 5\n"),
	[]byte("%%MatrixMarket matrix coordinate real symmetric\n3 3 1099511627776\n\t2\v1\f 4.5 junk\r\n"),
}

// FuzzReadMatrixMarket feeds arbitrary bytes to the MatrixMarket reader.
// The reader must never panic — malformed input is an error, not a crash —
// it must decide and parse as the parent's line-by-line parser did
// (checkAgainstParent), and any matrix it does accept must be structurally
// sound, pass CSR.Check and survive a write/read round trip unchanged.
func FuzzReadMatrixMarket(f *testing.F) {
	for _, s := range mmSeeds {
		f.Add(s)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgainstParent(t, data)
		a, err := ReadMatrixMarket(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := a.Check(); err != nil {
			t.Fatalf("accepted a matrix that fails Check: %v", err)
		}
		if a.N <= 0 || a.M <= 0 {
			t.Fatalf("accepted matrix with dimensions %d×%d", a.N, a.M)
		}
		if len(a.RowPtr) != a.N+1 || a.RowPtr[0] != 0 {
			t.Fatalf("malformed RowPtr: len=%d first=%d", len(a.RowPtr), a.RowPtr[0])
		}
		for i := 0; i < a.N; i++ {
			lo, hi := a.RowPtr[i], a.RowPtr[i+1]
			if lo > hi || hi > len(a.Cols) {
				t.Fatalf("row %d: RowPtr window [%d,%d) out of bounds", i, lo, hi)
			}
			for k := lo; k < hi; k++ {
				if a.Cols[k] < 0 || a.Cols[k] >= a.M {
					t.Fatalf("row %d: column %d out of range [0,%d)", i, a.Cols[k], a.M)
				}
				if k > lo && a.Cols[k] <= a.Cols[k-1] {
					t.Fatalf("row %d: columns not strictly increasing at %d", i, k)
				}
			}
		}

		var buf bytes.Buffer
		if err := WriteMatrixMarket(&buf, a); err != nil {
			t.Fatalf("writing accepted matrix: %v", err)
		}
		b, err := ReadMatrixMarket(&buf)
		if err != nil {
			t.Fatalf("re-reading written matrix: %v", err)
		}
		if b.N != a.N || b.M != a.M || b.NNZ() != a.NNZ() {
			t.Fatalf("round trip changed shape: %d×%d/%d → %d×%d/%d",
				a.N, a.M, a.NNZ(), b.N, b.M, b.NNZ())
		}
		for i := 0; i < a.N; i++ {
			ac, av := a.Row(i)
			bc, bv := b.Row(i)
			if len(ac) != len(bc) {
				t.Fatalf("round trip changed row %d length: %d → %d", i, len(ac), len(bc))
			}
			for k := range ac {
				sameVal := av[k] == bv[k] || (math.IsNaN(av[k]) && math.IsNaN(bv[k]))
				if ac[k] != bc[k] || !sameVal {
					t.Fatalf("round trip changed row %d entry %d: (%d,%v) → (%d,%v)",
						i, k, ac[k], av[k], bc[k], bv[k])
				}
			}
		}
	})
}
