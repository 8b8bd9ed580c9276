package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// readRuns reads every record of a result file: result.json holds one,
// history.jsonl one per line; both are a stream of JSON objects.
func readRuns(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	values := make(map[string]map[string][]float64) // workload → metric → one value per run
	dec := json.NewDecoder(f)
	for dec.More() {
		var rec record
		if err := dec.Decode(&rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		for _, run := range rec.Runs {
			if values[run.Workload] == nil {
				values[run.Workload] = make(map[string][]float64)
			}
			for name, v := range run.Metrics {
				values[run.Workload][name] = append(values[run.Workload][name], v.Value)
			}
		}
	}
	return values, nil
}

// verdict judges one end-to-end metric of one workload: base and change
// are the values of every run on each side.
//
//	ok          the change's median is not worse than the base's by more than bound
//	worse       it is
//	unresolved  either side's run-to-run spread (IQR ÷ median) is wider
//	            than the bound, and the runs of the two sides overlap
func verdict(spec metricSpec, base, change []float64) string {
	lower := spec.Better == "lower"
	worsening := (median(change) - median(base)) / median(base)
	if !lower {
		worsening = -worsening
	}
	noisy := func(xs []float64) bool { return len(xs) >= 4 && iqrPct(xs)/100 > *spec.Bound }
	if noisy(base) || noisy(change) {
		baseLo, baseHi := percentile(base, 0), percentile(base, 100)
		chLo, chHi := percentile(change, 0), percentile(change, 100)
		changeBetter := chHi < baseLo
		changeWorse := chLo > baseHi
		if !lower {
			changeBetter, changeWorse = chLo > baseHi, chHi < baseLo
		}
		switch {
		case changeBetter:
			return "ok"
		case changeWorse && worsening > *spec.Bound:
			return "worse"
		default:
			return "unresolved"
		}
	}
	if worsening > *spec.Bound {
		return "worse"
	}
	return "ok"
}

// compareMain implements `bench compare BASE CHANGE`: one row per
// (workload, metric) present on both sides, every ratio with its base,
// end-to-end metrics judged against their bound. Exit 1 on any "worse".
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare BASE.json CHANGE.json   (result.json or history.jsonl files)")
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	spec, err := loadSpec(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	base, err := readRuns(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	change, err := readRuns(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}

	status := 0
	fmt.Printf("%-12s %-34s %-8s %14s %14s  %-22s %s\n", "workload", "metric", "unit", "base", "change", "change/base", "verdict")
	all := append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...)
	for _, w := range spec.Workloads {
		for _, ms := range all {
			b, c := base[w.Name][ms.Name], change[w.Name][ms.Name]
			if len(b) == 0 || len(c) == 0 {
				continue
			}
			mb, mc := median(b), median(c)
			v := "-"
			switch {
			case ms.Bound != nil:
				if v = verdict(ms, b, c); v == "worse" {
					status = 1
				}
			case ms.Unit == "count" && mb != mc:
				v = "differs"
			case ms.Unit == "count":
				v = "same"
			}
			fmt.Printf("%-12s %-34s %-8s %14.6g %14.6g  %-22s %s\n", w.Name, ms.Name, ms.Unit, mb, mc,
				fmt.Sprintf("%.4f of %.6g", ratio(mc, mb), mb), v)
		}
	}
	var unknown []string
	for name := range change {
		if !spec.hasWorkload(name) {
			unknown = append(unknown, name)
		}
	}
	sort.Strings(unknown)
	for _, name := range unknown {
		fmt.Printf("%-12s not a workload of BENCHMARK.json; ignored\n", name)
	}
	return status
}
