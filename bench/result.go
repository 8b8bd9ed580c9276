package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"
)

// record is one invocation's provenance and results: result.json holds
// the latest, history.jsonl one line per invocation ever made.
type record struct {
	Time       string       `json:"time"`
	NProc      int          `json:"nproc"`
	GOMAXPROCS int          `json:"gomaxprocs"`
	GOGC       int          `json:"gogc"`
	GoVersion  string       `json:"go_version"`
	Commit     string       `json:"commit"`
	Seed       int64        `json:"seed"`
	Seconds    float64      `json:"seconds"`
	Runs       []*runResult `json:"runs"`
}

func newRecord(root string, seed int64, seconds float64) *record {
	gogc := []metrics.Sample{{Name: "/gc/gogc:percent"}}
	metrics.Read(gogc)
	commit := "unknown" // a benchmark checkout need not be a git repository
	if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return &record{
		Time:       time.Now().UTC().Format(time.RFC3339),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOGC:       int(gogc[0].Value.Uint64()),
		GoVersion:  runtime.Version(),
		Commit:     commit,
		Seed:       seed,
		Seconds:    seconds,
	}
}

func (r *record) write(dir string) error {
	pretty, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding result: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, "result.json"), append(pretty, '\n'), 0o644); err != nil {
		return err
	}
	line, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("encoding result: %w", err)
	}
	f, err := os.OpenFile(filepath.Join(dir, "history.jsonl"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
