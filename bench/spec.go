package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// metricSpec is one row of BENCHMARK.json's end_to_end or per_layer list.
// Bound is set on end-to-end metrics only.
type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// benchSpec mirrors BENCHMARK.json. The file is the single source of
// metric names, units, directions and bounds: the harness refuses to
// emit a name it does not list and refuses to finish without every name
// it does.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// findRoot walks up from the working directory to the checkout root, the
// directory holding BENCHMARK.json (`go run -C bench .` starts in bench/).
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no BENCHMARK.json at or above the working directory")
		}
		dir = parent
	}
}

func loadSpec(root string) (*benchSpec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("parsing BENCHMARK.json: %w", err)
	}
	return &spec, nil
}

func (s *benchSpec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// metricValue is the wire form of one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects the metrics of one pass (end-to-end or per-layer)
// of one workload and enforces the exactly-once rule.
type metricSet struct {
	specs []metricSpec
	vals  map[string]float64
	errs  []string
}

func newMetricSet(specs []metricSpec) *metricSet {
	return &metricSet{specs: specs, vals: make(map[string]float64)}
}

func (m *metricSet) set(name string, v float64) {
	known := false
	for _, s := range m.specs {
		if s.Name == name {
			known = true
			break
		}
	}
	switch {
	case !known:
		m.errs = append(m.errs, fmt.Sprintf("metric %q is not named in BENCHMARK.json", name))
	case math.IsNaN(v) || math.IsInf(v, 0):
		m.errs = append(m.errs, fmt.Sprintf("metric %q is not a finite number (%v): no samples?", name, v))
	default:
		if _, dup := m.vals[name]; dup {
			m.errs = append(m.errs, fmt.Sprintf("metric %q emitted twice", name))
		}
		m.vals[name] = v
	}
}

// finish reports a layer the workload does not exercise as 0 — no time
// spent, nothing counted there — for the names skip admits, and fails on
// any other name left unset, emitted twice or unknown.
func (m *metricSet) finish(skip func(name string) bool) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(m.specs))
	for _, s := range m.specs {
		v, ok := m.vals[s.Name]
		switch {
		case ok && skip(s.Name):
			m.errs = append(m.errs, fmt.Sprintf("metric %q emitted on a workload it is declared absent from", s.Name))
		case !ok && !skip(s.Name):
			m.errs = append(m.errs, fmt.Sprintf("metric %q was not emitted", s.Name))
		}
		out[s.Name] = metricValue{Value: v, Unit: s.Unit}
	}
	if len(m.errs) > 0 {
		sort.Strings(m.errs)
		return nil, fmt.Errorf("metric contract violated: %v", m.errs)
	}
	return out, nil
}
