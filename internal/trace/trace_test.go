package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	p := r.Proc(3)
	if p != nil {
		t.Fatalf("nil recorder returned a tracer: %v", p)
	}
	if p.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	// Every recording method must be a no-op on the nil tracer.
	p.Span("c", "n", 0, 1)
	p.Instant("c", "n", 0)
	if r.NumProcs() != 0 {
		t.Fatalf("nil recorder has %d procs", r.NumProcs())
	}
	if evs := r.Events(); evs != nil {
		t.Fatalf("nil recorder produced events: %v", evs)
	}
}

func TestRecorderMergeOrder(t *testing.T) {
	r := NewRecorder(2)
	// Interleave events across procs with ties on the timestamp.
	r.Proc(1).Instant("c", "b", 2.0)
	r.Proc(0).Instant("c", "a", 2.0)
	r.Proc(0).Span("c", "s", 0.5, 1.5, I("x", 7))
	r.Proc(1).Instant("c", "c", 0.5)

	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("got %d events, want 4", len(evs))
	}
	// Sorted by (Ts, Proc, Seq): span@0.5/p0, instant@0.5/p1, then the two
	// instants at 2.0 in proc order.
	wantNames := []string{"s", "c", "a", "b"}
	for i, ev := range evs {
		if ev.Name != wantNames[i] {
			t.Fatalf("event %d is %q, want %q (order %+v)", i, ev.Name, wantNames[i], evs)
		}
	}
	if evs[0].Dur != 1.0 {
		t.Fatalf("span duration %v, want 1.0", evs[0].Dur)
	}
	if len(evs[0].Args) != 1 || evs[0].Args[0].Key != "x" || evs[0].Args[0].Num != 7 {
		t.Fatalf("span args %+v", evs[0].Args)
	}
}

func TestWriteChromeValidJSON(t *testing.T) {
	r := NewRecorder(2)
	r.Proc(0).Span("factor", "phase1.interior", 0, 0.25, I("rows", 10), F("flops", 123.5))
	r.Proc(1).Instant("machine", "send", 0.1, I("dst", 0), S("why", "test"))

	var buf bytes.Buffer
	if err := WriteChrome(&buf, Part{Name: "factorization", Rec: r}, Part{Name: "empty", Rec: nil}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  *float64       `json:"dur"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}

	byPh := map[string]int{}
	var haveProcessName, haveSpan bool
	for _, ev := range doc.TraceEvents {
		byPh[ev.Ph]++
		if ev.Ph == "M" && ev.Name == "process_name" {
			haveProcessName = true
			if ev.Args["name"] != "factorization" {
				t.Fatalf("process_name args %v", ev.Args)
			}
		}
		if ev.Ph == "X" {
			haveSpan = true
			if ev.Dur == nil || *ev.Dur != 0.25*1e6 {
				t.Fatalf("span dur %v, want %v µs", ev.Dur, 0.25*1e6)
			}
			if ev.Ts != 0 || ev.Args["rows"] != float64(10) {
				t.Fatalf("span ts=%v args=%v", ev.Ts, ev.Args)
			}
		}
	}
	if !haveProcessName || !haveSpan {
		t.Fatalf("missing metadata or span events: %v", byPh)
	}
	if byPh["i"] != 1 {
		t.Fatalf("instant count wrong: %v", byPh)
	}
	// 1 process_name + 2 thread_name + 2 events; the nil part contributes
	// nothing.
	if len(doc.TraceEvents) != 5 {
		t.Fatalf("got %d events, want 5", len(doc.TraceEvents))
	}
	if strings.Count(buf.String(), "\n") != 1 {
		t.Fatalf("expected single-line output with trailing newline")
	}
}

func TestStringArgs(t *testing.T) {
	r := NewRecorder(1)
	r.Proc(0).Instant("c", "n", 0, S("label", "hello"))
	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"label":"hello"`) {
		t.Fatalf("string arg missing from output: %s", buf.String())
	}
}
