package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one layer call as the harness saw it from outside: the wall
// clock is read before and after the call into the layer's public
// function, never inside a World.Run closure.
type span struct {
	Name   string // "<layer>.<call>", e.g. "core.factor"
	Lane   int    // connection (HTTP) or 0 (in-process)
	Op     int    // spans of one op share this id
	Parent int    // index of the span that caused this one, -1 for a root
	Start  time.Duration
	End    time.Duration
}

func (s span) ms() float64 { return float64(s.End-s.Start) / float64(time.Millisecond) }

// layerOf is the module name a span (or metric) belongs to.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// recorder keeps spans in memory until the run ends. A nil *recorder is
// the tracing-off state: every method is a no-op that still runs the
// timed call, so one op implementation serves both passes.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) start(name string, parent, lane, op int) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Lane: lane, Op: op, Parent: parent, Start: time.Since(r.epoch), End: -1})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// opTrace is the handle one op records its stages through.
type opTrace struct {
	rec      *recorder
	root     int
	lane, op int
}

func (r *recorder) beginOp(name string, lane, op int) opTrace {
	return opTrace{rec: r, root: r.start(name, -1, lane, op), lane: lane, op: op}
}

// stage runs f as a child span of the op and returns how long it took.
func (t opTrace) stage(name string, f func()) time.Duration {
	id := t.rec.start(name, t.root, t.lane, t.op)
	t0 := time.Now()
	f()
	dt := time.Since(t0)
	t.rec.end(id)
	return dt
}

func (t opTrace) end() { t.rec.end(t.root) }

// finished returns the completed spans (an op aborted by an error leaves
// its open spans behind; they are not measurements).
func (r *recorder) finished() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// durationsMs lists the durations of every finished span called name.
func (r *recorder) durationsMs(name string) []float64 {
	var out []float64
	for _, s := range r.finished() {
		if s.Name == name {
			out = append(out, s.ms())
		}
	}
	return out
}

// selfTimes returns, per span index, the span's duration minus the part
// of its interval that its child spans cover (children may overlap when
// an op fans out, so the covered part is the union of their intervals).
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered := time.Duration(0)
		cursor := s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < cursor {
				lo = cursor
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// layerSelfMsPerOp sums, for every op rooted at a span called root, the
// self times of its stages (child spans) that belong to one of layers.
func (r *recorder) layerSelfMsPerOp(root string, layers ...string) []float64 {
	want := make(map[string]bool, len(layers))
	for _, l := range layers {
		want[l] = true
	}
	// finished() drops open spans, which would shift indices; parents are
	// indices into the raw slice, so work on a locked copy of that.
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	self := selfTimes(spans)
	sums := make(map[int]time.Duration)
	var order []int
	for i, s := range spans {
		if s.Name == root && s.Parent < 0 && s.End >= 0 {
			sums[i] = 0
			order = append(order, i)
		}
	}
	for i, s := range spans {
		if _, ok := sums[s.Parent]; ok && s.End >= 0 && want[layerOf(s.Name)] {
			sums[s.Parent] += self[i]
		}
	}
	out := make([]float64, len(order))
	for k, i := range order {
		out[k] = float64(sums[i]) / float64(time.Millisecond)
	}
	return out
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format; chrome://tracing and ui.perfetto.dev both load it.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// tracePart is one traced workload: a process row of the trace file.
type tracePart struct {
	workload string
	rec      *recorder
}

// writeChrome writes every finished span of every part, with its self
// time, to path; each workload is one process of the trace.
func writeChrome(path string, parts []tracePart) error {
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	var events []any
	for pid, part := range parts {
		part.rec.mu.Lock()
		spans := append([]span(nil), part.rec.spans...)
		part.rec.mu.Unlock()
		self := selfTimes(spans)
		events = append(events, map[string]any{
			"name": "process_name", "ph": "M", "pid": pid, "args": map[string]string{"name": part.workload},
		})
		for i, s := range spans {
			if s.End < 0 {
				continue
			}
			events = append(events, chromeEvent{
				Name: s.Name, Cat: layerOf(s.Name), Ph: "X",
				Ts: us(s.Start), Dur: us(s.End - s.Start), Pid: pid, Tid: s.Lane,
				Args: map[string]any{"id": i, "parent": s.Parent, "op": s.Op, "self_us": us(self[i])},
			})
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return fmt.Errorf("encoding trace: %w", err)
	}
	return os.WriteFile(path, data, 0o644)
}
