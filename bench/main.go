// Command bench is the repository's one benchmark harness: five named
// workloads, each a closed loop driven from this process, measured end
// to end with tracing off and layer by layer with the harness's own span
// recorder on. BENCHMARK.json at the repository root names every
// workload and metric; README.md in this directory explains them.
//
//	go run -C bench . --workload cold_torso --seed 1 --seconds 15 --trace 0
//	go run -C bench .                       # every workload, both passes
//	go run -C bench . compare out/A.jsonl out/B.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/matgen"
	"repro/internal/sparse"
)

// setupRepeats is how often a run sets its workload up: setup_s is the
// median, which one slow daemon start cannot move.
const setupRepeats = 3

func newWorkload(name string, env *environment) workload {
	switch name {
	case "cold_torso":
		return &coldWorkload{modelledP: 16, base: func() *sparse.CSR { return matgen.Torso(20, 20, 20, 1) }}
	case "cold_grid":
		return &coldWorkload{modelledP: 16, base: func() *sparse.CSR { return matgen.Grid2D(128, 128) }}
	case "serve_hot":
		return &hotWorkload{serving: serving{env: env}}
	case "serve_churn":
		return &churnWorkload{serving: serving{env: env}}
	case "peer_fetch":
		return &peerWorkload{serving: serving{env: env}}
	}
	return nil
}

// measuredOnlyOn lists the per-layer metrics that only some workloads
// produce, beyond the whole-layer rules in notMeasured.
var measuredOnlyOn = map[string]string{
	"harness.alloc_mb_per_op":     "cold_torso cold_grid",
	"harness.stage_sum_pct":       "cold_torso cold_grid",
	"harness.build_s":             "serve_hot serve_churn peer_fetch",
	"harness.op_ms_p99":           "serve_hot serve_churn peer_fetch",
	"service.hot_solve_ms_p50":    "serve_hot",
	"service.step_ms_p50":         "serve_churn",
	"service.reread_ms_p50":       "serve_churn",
	"service.fresh_ms_p50":        "serve_churn",
	"service.export_ms":           "peer_fetch",
	"service.export_kb":           "peer_fetch",
	"service.peer_fetch_hits":     "peer_fetch",
	"service.peer_serves":         "peer_fetch",
	"service.peer_fetch_failures": "peer_fetch",
	"pilutd.pair_first_ms":        "peer_fetch",
	"pilutd.pair_second_ms":       "peer_fetch",
}

// notMeasured reports the per-layer metrics a workload does not exercise:
// the in-process workloads have no service or daemon, only they have a
// paper-machine reference run, and measuredOnlyOn lists the rest. Such a
// metric is reported as 0 there (see metricSet.finish).
func notMeasured(workload, metric string) bool {
	cold := strings.HasPrefix(workload, "cold_")
	switch layerOf(metric) {
	case "service", "pilutd":
		if cold {
			return true
		}
	case "machine":
		return !cold
	}
	if where, ok := measuredOnlyOn[metric]; ok {
		return !strings.Contains(where, workload)
	}
	return false
}

// runResult is one (workload, pass) record: the last line of standard
// output, and one entry of result.json / one line of history.jsonl.
type runResult struct {
	Workload  string                 `json:"workload,omitempty"`
	Trace     int                    `json:"trace"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Samples   int                    `json:"samples,omitempty"` // primary-kind ops behind op_ms_p50
	Failures  []string               `json:"failures,omitempty"`
}

// until returns a stop function that turns true once d has passed.
func until(d time.Duration) func() bool {
	deadline := time.Now().Add(d)
	return func() bool { return !time.Now().Before(deadline) }
}

// afterOps returns a stop function that lets n ops through.
func afterOps(n int) func() bool {
	return func() bool { n--; return n < 0 }
}

// measureEndToEnd is the --trace 0 pass: set up (several times), warm
// up, then one timed phase with no span recorder anywhere.
func measureEndToEnd(spec *benchSpec, name string, w workload, seed int64, seconds float64) (*runResult, error) {
	if err := w.prepare(); err != nil {
		return nil, err
	}
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			w.teardown()
		}
		t0 := time.Now()
		if err := w.setup(seed); err != nil {
			w.teardown()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer w.teardown()

	w.run(nil, until(time.Duration(0.05*seconds*float64(time.Second)))) // warm-up, discarded
	ph := w.run(nil, until(time.Duration(seconds*float64(time.Second))))

	m := newMetricSet(spec.EndToEnd)
	lat := ph.latencies(w.primaryKind())
	m.set("setup_s", median(setups))
	m.set("op_ms_p50", median(lat))
	m.set("ops_per_s", ph.opsPerSecond())
	m.set("peak_rss_mb", w.peakRSSMB())
	metrics, err := m.finish(func(string) bool { return false })
	if err != nil {
		return nil, err
	}
	res := &runResult{Workload: name, Trace: 0, Metrics: metrics, Samples: len(lat), Failures: ph.fails}
	res.Attempted, res.Failed = ph.counts()
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res, nil
}

// measureLayers is the --trace 1 pass: an untraced and a traced slice of
// the same op stream (their difference is the tracing overhead), then
// the workload's own layer measurements, all into one span recorder,
// which the caller writes out as a Chrome trace when the run ends.
func measureLayers(spec *benchSpec, name string, w workload, seed int64, seconds float64) (*runResult, *recorder, error) {
	if err := w.prepare(); err != nil {
		return nil, nil, err
	}
	if err := w.setup(seed); err != nil {
		w.teardown()
		return nil, nil, fmt.Errorf("set-up: %w", err)
	}
	defer w.teardown()

	slice := time.Duration(0.3 * seconds * float64(time.Second))
	w.run(nil, until(slice/6)) // warm-up, discarded
	untraced := w.run(nil, until(slice))
	rec := newRecorder()
	traced := w.run(rec, until(slice))

	m := newMetricSet(spec.PerLayer)
	kind := w.primaryKind()
	lat, tracedLat := untraced.latencies(kind), traced.latencies(kind)
	attempted, failed := untraced.counts()
	ta, tf := traced.counts()
	attempted, failed = attempted+ta, failed+tf
	m.set("harness.error_rate", ratio(float64(failed), float64(attempted)))
	m.set("harness.op_ms_p90", percentile(lat, 90))
	if !notMeasured(name, "harness.op_ms_p99") {
		m.set("harness.op_ms_p99", percentile(lat, 99))
	}
	m.set("harness.op_ms_iqr_pct", iqrPct(lat))
	m.set("harness.trace_overhead_pct", 100*(median(tracedLat)/median(lat)-1))
	m.set("krylov.iters_per_solve", untraced.itersPerSolve())
	maxRes := untraced.maxRes
	if traced.maxRes > maxRes {
		maxRes = traced.maxRes
	}
	m.set("krylov.max_true_residual", maxRes)

	fails := append(untraced.fails, traced.fails...)
	if err := w.layers(m, rec, untraced, traced, slice); err != nil {
		return nil, nil, fmt.Errorf("layer pass: %w", err)
	}
	metrics, err := m.finish(func(metric string) bool { return notMeasured(name, metric) })
	if err != nil {
		return nil, nil, err
	}
	return &runResult{
		Workload: name, Trace: 1, Metrics: metrics, Samples: len(lat), Failures: fails,
		Attempted: attempted, Failed: failed, Correct: failed == 0 && attempted > 0,
	}, rec, nil
}

// printTable prints every metric by name with its unit, grouped by layer.
func printTable(res *runResult) {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	pass := "end-to-end, tracing off"
	if res.Trace == 1 {
		pass = "per-layer, traced run"
	}
	fmt.Printf("== %s (%s): %d ops attempted, %d failed, %d samples of the primary op kind\n",
		res.Workload, pass, res.Attempted, res.Failed, res.Samples)
	for _, name := range names {
		v := res.Metrics[name]
		fmt.Printf("  %-36s %14.6g %s\n", name, v.Value, v.Unit)
	}
	for _, f := range res.Failures {
		fmt.Printf("  FAILED: %s\n", f)
	}
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	os.Exit(benchMain())
}

func benchMain() int {
	workloads := flag.String("workload", "", "workload name[,name...] (default: every workload in BENCHMARK.json)")
	seed := flag.Int64("seed", 1, "seed of the op stream (key choice, value perturbation)")
	seconds := flag.Float64("seconds", 0, "length of the timed phase (default: run_seconds from BENCHMARK.json)")
	trace := flag.String("trace", "both", "0: end-to-end metrics, tracing off; 1: per-layer metrics, traced run; both")
	out := flag.String("out", "", "directory for result.json, history.jsonl, trace.json and the pilutd binary (default: bench/out)")
	flag.Parse()

	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	spec, err := loadSpec(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if *workloads != "" {
		names = strings.Split(*workloads, ",")
	}
	for _, name := range names {
		if !spec.hasWorkload(name) || newWorkload(name, nil) == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", name)
			return 2
		}
	}
	var passes []int
	switch *trace {
	case "0":
		passes = []int{0}
	case "1":
		passes = []int{1}
	case "both":
		passes = []int{0, 1}
	default:
		fmt.Fprintf(os.Stderr, "bench: -trace must be 0, 1 or both, got %q\n", *trace)
		return 2
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	if *out == "" {
		*out = filepath.Join(root, "bench", "out")
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	env := &environment{root: root, outDir: *out}

	record := newRecord(root, *seed, *seconds)
	var traces []tracePart
	status := 0
	// End-to-end numbers first, for every workload, before any recorder
	// exists; the traced passes follow.
	for _, pass := range passes {
		for _, name := range names {
			w := newWorkload(name, env)
			var res *runResult
			if pass == 0 {
				res, err = measureEndToEnd(spec, name, w, *seed, *seconds)
			} else {
				var rec *recorder
				if res, rec, err = measureLayers(spec, name, w, *seed, *seconds); err == nil {
					traces = append(traces, tracePart{name, rec})
				}
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
				return 1
			}
			printTable(res)
			record.Runs = append(record.Runs, res)
			if !res.Correct {
				status = 1
			}
		}
	}
	if err := record.write(*out); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if len(traces) > 0 {
		if err := writeChrome(filepath.Join(*out, "trace.json"), traces); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	if status != 0 {
		fmt.Fprintln(os.Stderr, "bench: correctness gate failed")
	}
	// The last line of standard output is the last run's result object.
	last := record.Runs[len(record.Runs)-1]
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{last.Correct, last.Attempted, last.Failed, last.Metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(line))
	return status
}
