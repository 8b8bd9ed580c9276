package trace

import (
	"encoding/json"
	"fmt"
	"io"
)

// Part names one recorder's events for a multi-machine trace file: the
// factorization run and the solve run of cmd/pilut become two Chrome
// "processes" on a shared timeline.
type Part struct {
	Name string
	Rec  *Recorder
}

// chromeEvent is one entry of the Chrome trace-event JSON array. Ts and
// Dur are microseconds; we map virtual seconds 1:1 onto trace seconds, so
// one modelled second renders as one second in Perfetto.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

func argsMap(args []Arg) map[string]any {
	if len(args) == 0 {
		return nil
	}
	m := make(map[string]any, len(args))
	for _, a := range args {
		if a.IsStr {
			m[a.Key] = a.Str
		} else {
			m[a.Key] = a.Num
		}
	}
	return m
}

const secToUs = 1e6

// WriteChrome writes the recorders' events as a Chrome trace-event JSON
// object ({"traceEvents": [...]}), loadable in Perfetto or
// chrome://tracing. Each part becomes one process (pid) named after it;
// each virtual processor becomes one thread (tid) of that process.
func WriteChrome(w io.Writer, parts ...Part) error {
	bw := newErrWriter(w)
	bw.writeString(`{"displayTimeUnit":"ms","traceEvents":[`)
	enc := json.NewEncoder(discardNewline{bw})
	first := true
	emit := func(ev chromeEvent) {
		if !first {
			bw.writeString(",")
		}
		first = false
		if bw.err == nil {
			if err := enc.Encode(ev); err != nil {
				bw.err = err
			}
		}
	}

	for pid, part := range parts {
		if part.Rec == nil {
			continue
		}
		emit(chromeEvent{
			Name: "process_name", Ph: "M", Pid: pid, Tid: 0,
			Args: map[string]any{"name": part.Name},
		})
		for tid := 0; tid < part.Rec.NumProcs(); tid++ {
			emit(chromeEvent{
				Name: "thread_name", Ph: "M", Pid: pid, Tid: tid,
				Args: map[string]any{"name": fmt.Sprintf("proc %d", tid)},
			})
		}
		for _, ev := range part.Rec.Events() {
			ce := chromeEvent{
				Name: ev.Name, Cat: ev.Cat, Pid: pid, Tid: ev.Proc,
				Ts: ev.Ts * secToUs, Args: argsMap(ev.Args),
			}
			switch ev.Kind {
			case KindSpan:
				ce.Ph = "X"
				dur := ev.Dur * secToUs
				ce.Dur = &dur
			case KindInstant:
				ce.Ph = "i"
				ce.S = "t" // thread-scoped instant
			}
			emit(ce)
		}
	}
	bw.writeString("]}\n")
	return bw.err
}

// WriteChromeTrace writes this recorder's events as a single-process
// Chrome trace.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	return WriteChrome(w, Part{Name: "machine", Rec: r})
}

// errWriter latches the first write error so the emit loop stays simple.
type errWriter struct {
	w   io.Writer
	err error
}

func newErrWriter(w io.Writer) *errWriter { return &errWriter{w: w} }

func (e *errWriter) writeString(s string) {
	if e.err != nil {
		return
	}
	_, e.err = io.WriteString(e.w, s)
}

func (e *errWriter) Write(p []byte) (int, error) {
	if e.err != nil {
		return len(p), nil
	}
	n, err := e.w.Write(p)
	if err != nil {
		e.err = err
		return len(p), nil
	}
	return n, nil
}

// discardNewline strips the trailing newline json.Encoder appends after
// every value, keeping the event array compact.
type discardNewline struct{ w io.Writer }

func (d discardNewline) Write(p []byte) (int, error) {
	n := len(p)
	for n > 0 && p[n-1] == '\n' {
		n--
	}
	if _, err := d.w.Write(p[:n]); err != nil {
		return 0, err
	}
	return len(p), nil
}
