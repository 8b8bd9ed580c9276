package service

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/trace"
)

// writeRunTrace persists one run's events as a Chrome trace file named
// <prefix>-<key>-<stamp>.json. Tracing is best-effort observability: a
// failed write must not fail the solve that produced it, so errors are
// reported on stderr and otherwise dropped.
func writeRunTrace(dir, prefix, key string, rec *trace.Recorder) {
	short := key
	if len(short) > 12 {
		short = short[:12]
	}
	name := fmt.Sprintf("%s-%s-%d.json", prefix, short, time.Now().UnixNano())
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "service: trace write failed: %v\n", err)
		return
	}
	err = rec.WriteChromeTrace(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "service: trace write %s failed: %v\n", path, err)
	}
}
