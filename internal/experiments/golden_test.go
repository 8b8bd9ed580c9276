package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/pcomm/backend"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.txt from this run")

// goldenPath holds the reduced run's tables; `make golden` rewrites it.
var goldenPath = filepath.Join("testdata", "golden.txt")

// TestGolden runs the paper's Tables 1–3 and the overhead breakdown at a
// reduced size — G0 on a 64×64 grid, TORSO on a 16³ cube, p ∈ {4, 8},
// m = 10, τ ∈ {1e-2, 1e-4} — and requires the output to be golden.txt
// byte for byte. Every figure is modelled T3D seconds, a count or a
// ratio of them, so any change to the modelled clock, the partition, the
// MIS or a factor or solution bit shows up as a reviewed diff of the
// paper's tables. The backend is pinned to modelled whatever
// PILUT_BACKEND says: wall-clock times would never repeat.
func TestGolden(t *testing.T) {
	c := Default()
	c.G0Side, c.TorsoSide = 64, 16
	c.Procs = []int{4, 8}
	c.Ms = []int{10}
	c.Taus = []float64{1e-2, 1e-4}
	c.Backend = backend.Modelled
	var got bytes.Buffer
	if err := c.Run(&got, []string{"summary", "table1", "table2", "table3", "breakdown"}, 1e-5, 3000, nil); err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(goldenPath, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (rewrite it with `make golden`)", err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; ; i++ {
		if i == len(gl) || i == len(wl) || gl[i] != wl[i] {
			t.Fatalf("%s:%d differs from this run (`make golden` rewrites it):\nwant: %s\ngot:  %s",
				goldenPath, i+1, line(wl, i), line(gl, i))
		}
	}
}

// line is lines[i], or a marker past the end.
func line(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "(end of output)"
}
