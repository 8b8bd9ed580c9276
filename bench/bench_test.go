package main

import (
	"math"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/matgen"
	"repro/internal/sparse"
)

func TestPercentileAndIQR(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{[]float64{4, 1, 3, 2}, 50, 2.5},              // even count: midway between 2 and 3
		{[]float64{5, 1, 3}, 50, 3},                   // odd count: the middle value
		{[]float64{10, 20, 30, 40, 50}, 90, 46},       // position 3.6: 40 + 0.6·10
		{[]float64{10, 20, 30, 40, 50}, 25, 20},       // position 1 exactly
		{[]float64{10, 20, 30, 40, 50}, 100, 50},      // maximum
		{[]float64{7}, 99, 7},                         // a single sample is every percentile
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8}, 75, 6.25}, // position 5.25: 6 + 0.25·1
	} {
		if got := percentile(tc.xs, tc.p); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("percentile(%v, %v) = %v, want %v", tc.xs, tc.p, got, tc.want)
		}
	}
	// Quartiles of 1..5 are 2 and 4, the median 3: IQR is 2/3 of the median.
	if got, want := iqrPct([]float64{1, 2, 3, 4, 5}), 200.0/3; math.Abs(got-want) > 1e-9 {
		t.Errorf("iqrPct = %v, want %v", got, want)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples must be NaN")
	}
	if got := ratio(0, 0); got != 0 {
		t.Errorf("ratio(0, 0) = %v, want 0", got)
	}
}

func TestSelfTime(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{Name: "harness.op", Parent: -1, Start: ms(0), End: ms(100)},
		{Name: "core.factor", Parent: 0, Start: ms(10), End: ms(50)},
		{Name: "krylov.gmres", Parent: 0, Start: ms(40), End: ms(70)}, // overlaps the factor span by 10 ms
		{Name: "pcomm.x", Parent: 1, Start: ms(20), End: ms(25)},
	}
	self := selfTimes(spans)
	for i, want := range []time.Duration{ms(40), ms(35), ms(30), ms(5)} {
		if self[i] != want {
			t.Errorf("self time of %s = %v, want %v", spans[i].Name, self[i], want)
		}
	}
}

func TestOpStreamIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range []string{"cold_torso", "cold_grid", "serve_hot", "serve_churn", "peer_fetch"} {
		if a, b := opListHash(w, 1, 0, 200), opListHash(w, 1, 0, 200); a != b {
			t.Errorf("%s: the same seed gave two different op lists", w)
		}
		if a, b := opListHash(w, 1, 0, 200), opListHash(w, 2, 0, 200); a == b {
			t.Errorf("%s: seeds 1 and 2 gave the same op list", w)
		}
	}
	if a, b := opListHash("serve_hot", 1, 0, 200), opListHash("serve_hot", 1, 1, 200); a == b {
		t.Error("serve_hot: the two connections draw the same keys")
	}
	// The generator draws indices into sets it does not build.
	if len(hotMatrixSet()) != hotMatrices || len(churnBaseSet()) != churnBases {
		t.Errorf("op streams index %d hot matrices and %d base patterns, the sets hold %d and %d",
			hotMatrices, churnBases, len(hotMatrixSet()), len(churnBaseSet()))
	}
	// The churn mix is fixed by the cycle, whatever the seed.
	g := newOpGen("serve_churn", 5, 0)
	mix := map[string]int{}
	for i := 0; i < 100; i++ {
		mix[g.next().Kind]++
	}
	if mix["step"] != 60 || mix["reread"] != 30 || mix["fresh"] != 10 {
		t.Errorf("churn mix over 100 ops = %v, want 60 step, 30 reread, 10 fresh", mix)
	}
}

func TestVerdict(t *testing.T) {
	bound := 0.10
	lower := metricSpec{Name: "op_ms_p50", Better: "lower", Bound: &bound}
	higher := metricSpec{Name: "ops_per_s", Better: "higher", Bound: &bound}
	steady := []float64{100, 101, 99, 100, 100}
	for _, tc := range []struct {
		name         string
		spec         metricSpec
		base, change []float64
		want         string
	}{
		{"within bound", lower, steady, []float64{108, 109, 107, 108}, "ok"},
		{"slower beyond bound", lower, steady, []float64{112, 113, 111, 112}, "worse"},
		{"faster", lower, steady, []float64{80, 81, 79, 80}, "ok"},
		{"throughput down beyond bound", higher, steady, []float64{85, 86, 84, 85}, "worse"},
		{"throughput up", higher, steady, []float64{120, 121, 119, 120}, "ok"},
		{"single runs", lower, []float64{100}, []float64{111}, "worse"},
		{"noisy and overlapping", lower, []float64{80, 100, 120, 140}, []float64{90, 115, 130, 150}, "unresolved"},
		{"noisy but every run better", lower, []float64{80, 100, 120, 140}, []float64{40, 50, 60, 70}, "ok"},
		{"noisy and every run worse", lower, []float64{80, 100, 120, 140}, []float64{150, 180, 200, 240}, "worse"},
	} {
		if got := verdict(tc.spec, tc.base, tc.change); got != tc.want {
			t.Errorf("%s: verdict = %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestBenchmarkJSONIsConsistent guards the applicability table against
// typos (a misspelt name there would silently never apply) and the file
// against the contract's limits.
func TestBenchmarkJSONIsConsistent(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != 5 {
		t.Errorf("BENCHMARK.json names %d workloads, want 5", len(spec.Workloads))
	}
	for _, w := range spec.Workloads {
		if newWorkload(w.Name, nil) == nil {
			t.Errorf("workload %q of BENCHMARK.json is not implemented", w.Name)
		}
	}
	named := map[string]bool{}
	for _, m := range spec.PerLayer {
		named[m.Name] = true
	}
	for name := range measuredOnlyOn {
		if !named[name] {
			t.Errorf("applicability table names %q, which BENCHMARK.json does not", name)
		}
	}
	for _, m := range spec.EndToEnd {
		if m.Bound == nil || *m.Bound < 0 || *m.Bound > 0.25 {
			t.Errorf("end-to-end metric %q needs a bound in [0, 0.25]", m.Name)
		}
	}
}

// TestColdSmoke runs both passes of an in-process workload at toy size
// and checks the metric contract: every name of BENCHMARK.json comes out
// exactly once (metricSet.finish fails the pass otherwise), nothing else
// does, and the layers this workload does not touch read 0.
func TestColdSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole pipeline a few times")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	toy := func() workload {
		return &coldWorkload{modelledP: 4, base: func() *sparse.CSR { return matgen.Grid2D(16, 16) }}
	}

	res, err := measureEndToEnd(spec, "cold_grid", toy(), 1, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted < 3 {
		t.Errorf("end-to-end pass: correct=%v attempted=%d failures=%v", res.Correct, res.Attempted, res.Failures)
	}
	checkNames(t, res.Metrics, spec.EndToEnd)
	for name, v := range res.Metrics {
		if v.Value <= 0 {
			t.Errorf("end-to-end metric %s = %v, must be positive", name, v.Value)
		}
	}

	res, rec, err := measureLayers(spec, "cold_grid", toy(), 2, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeChrome(filepath.Join(t.TempDir(), "trace.json"), []tracePart{{"cold_grid", rec}}); err != nil {
		t.Error(err)
	}
	if !res.Correct {
		t.Errorf("traced pass failed its checks: %v", res.Failures)
	}
	checkNames(t, res.Metrics, spec.PerLayer)
	for name, v := range res.Metrics {
		if notMeasured("cold_grid", name) && v.Value != 0 {
			t.Errorf("%s = %v on a workload that does not exercise it, want 0", name, v.Value)
		}
	}
	for _, name := range []string{"core.factor_ms", "krylov.gmres_ms", "partition.kway_ms", "machine.modelled_factor_s", "core.levels"} {
		if res.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v, want a positive measurement", name, res.Metrics[name].Value)
		}
	}
}

func checkNames(t *testing.T, got map[string]metricValue, want []metricSpec) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%d metrics emitted, BENCHMARK.json names %d", len(got), len(want))
	}
	for _, m := range want {
		v, ok := got[m.Name]
		if !ok {
			t.Errorf("metric %s is missing", m.Name)
		} else if v.Unit != m.Unit {
			t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", m.Name, v.Unit, m.Unit)
		}
	}
}
