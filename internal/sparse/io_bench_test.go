package sparse_test

import (
	"bytes"
	"testing"

	"repro/internal/matgen"
	"repro/internal/sparse"
)

// mmBody is a in MatrixMarket form, as a client would post it.
func mmBody(tb testing.TB, a *sparse.CSR) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := sparse.WriteMatrixMarket(&buf, a); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// BenchmarkReadMatrixMarket parses the two cold workloads' matrices: what
// bench/ times as sparse.parse_ms.
func BenchmarkReadMatrixMarket(b *testing.B) {
	for _, c := range []struct {
		name string
		a    *sparse.CSR
	}{
		{"torso20", matgen.Torso(20, 20, 20, 1)},
		{"grid128", matgen.Grid2D(128, 128)},
	} {
		b.Run(c.name, func(b *testing.B) {
			body := mmBody(b, c.a)
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sparse.ReadMatrixMarket(bytes.NewReader(body)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestReadMatrixMarketAllocs: a parse allocates per matrix and per
// doubling of the Builder's three triplet slices, never per line — and not
// per row either when the file lists each row's entries in increasing
// column order, as WriteMatrixMarket does, because Builder.Build then has
// no row to sort (a row it must sort costs sort.Slice's two boxes). The
// reader is treated as any other: nothing is sized from its length. The
// parent's line-by-line parser made 123 300 mallocs on this matrix of
// 8 000 rows and 53 600 entries.
func TestReadMatrixMarketAllocs(t *testing.T) {
	a := matgen.Torso(20, 20, 20, 1)
	body := mmBody(t, a)
	got := testing.AllocsPerRun(5, func() {
		if _, err := sparse.ReadMatrixMarket(bytes.NewReader(body)); err != nil {
			t.Fatal(err)
		}
	})
	if got > 128 {
		t.Errorf("%.0f mallocs to parse %d rows and %d entries, bound 128", got, a.N, a.NNZ())
	}
	t.Logf("%.0f mallocs per parse (%d rows, %d entries)", got, a.N, a.NNZ())
}
