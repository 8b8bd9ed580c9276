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

// TestGolden runs every driver in Names order at a reduced size — G0 on
// a 64×64 grid, TORSO on a 16³ cube, p ∈ {4, 8}, m = 10,
// τ ∈ {1e-2, 1e-4} — and requires the output to be golden.txt byte for
// byte. Every figure is modelled seconds (T3D, and the workstation
// rows of network), a count or a ratio of them, so any change to the modelled clock, the partition, the
// MIS or a factor or solution bit shows up as a reviewed diff of the
// paper's tables. The backend is pinned to modelled whatever
// PILUT_BACKEND says: wall-clock times would never repeat.
//
// A driver's output must not depend on what ran before it: the drivers
// share their problems' cells, so table3 (which re-factors Table 1's
// cells to solve with them) and fig6 (a view over Table 2's cells), run
// alone, must print exactly their blocks of the full run. The lone runs
// build problems of their own, so they overlap the full one.
func TestGolden(t *testing.T) {
	c := Default()
	c.G0Side, c.TorsoSide = 64, 16
	c.Procs = []int{4, 8}
	c.Ms = []int{10}
	c.Taus = []float64{1e-2, 1e-4}
	c.Backend = backend.Modelled
	alone := map[string]*bytes.Buffer{"table3": {}, "fig6": {}}
	errs := make(chan error, len(alone))
	for name, buf := range alone {
		go func() { errs <- c.Run(buf, []string{name}, 1e-5, 3000, nil) }()
	}
	var got bytes.Buffer
	blocks := map[string][]byte{} // each driver's block of got
	start := 0
	err := c.Run(&got, Names(), 1e-5, 3000, func(name string) {
		blocks[name] = got.Bytes()[start:got.Len()]
		start = got.Len()
	})
	for range alone {
		if e := <-errs; err == nil {
			err = e
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	for name, buf := range alone {
		if !bytes.Equal(buf.Bytes(), blocks[name]) {
			t.Errorf("%s run alone prints:\n%s\nbut in the full run:\n%s", name, buf.Bytes(), blocks[name])
		}
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
