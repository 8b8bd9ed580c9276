package service

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"regexp"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/matgen"
)

// metricValue extracts the value of one un-labelled metric from a
// Prometheus text exposition.
func metricValue(t *testing.T, text, name string) float64 {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` (\S+)$`)
	m := re.FindStringSubmatch(text)
	if m == nil {
		t.Fatalf("metric %s not found in:\n%s", name, text)
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatalf("metric %s has unparsable value %q", name, m[1])
	}
	return v
}

func scrape(t *testing.T, s *Server) string {
	t.Helper()
	var buf bytes.Buffer
	if err := s.WriteMetrics(&buf); err != nil {
		t.Fatalf("WriteMetrics: %v", err)
	}
	return buf.String()
}

func TestMetricsExposition(t *testing.T) {
	s := New(testConfig())
	defer s.Shutdown(context.Background())

	a := matgen.Grid2D(12, 12)
	key, _, err := s.Submit(a)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Solve(context.Background(), key, rhs(a.N, 1), SolveOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Solve(context.Background(), key, rhs(a.N, 2), SolveOptions{}); err != nil {
		t.Fatal(err)
	}

	text := scrape(t, s)
	if got := metricValue(t, text, "pilut_solve_requests_total"); got != 2 {
		t.Fatalf("requests_total = %v, want 2", got)
	}
	if got := metricValue(t, text, "pilut_solve_completed_total"); got != 2 {
		t.Fatalf("completed_total = %v, want 2", got)
	}
	if got := metricValue(t, text, "pilut_cache_misses_total"); got < 1 {
		t.Fatalf("misses_total = %v, want ≥ 1", got)
	}
	hits := metricValue(t, text, "pilut_cache_hits_total")
	misses := metricValue(t, text, "pilut_cache_misses_total")
	batches := metricValue(t, text, "pilut_solve_batches_total")
	if hits+misses != batches {
		t.Fatalf("hits (%v) + misses (%v) != batches (%v)", hits, misses, batches)
	}
	if got := metricValue(t, text, "pilut_solve_inflight"); got != 0 {
		t.Fatalf("inflight = %v after all solves returned", got)
	}
	// The matrix tier holds the one submitted matrix, byte for byte.
	if got := metricValue(t, text, "pilut_matrices"); got != 1 {
		t.Fatalf("matrices = %v, want 1", got)
	}
	if got, want := metricValue(t, text, "pilut_matrix_bytes"), float64(a.SizeBytes()); got != want {
		t.Fatalf("matrix_bytes = %v, want %v", got, want)
	}
	if got := metricValue(t, text, "pilut_matrix_evictions_total"); got != 0 {
		t.Fatalf("matrix_evictions_total = %v, want 0", got)
	}
	// The limit gauge reads the accountant, as /v1/stats does.
	if got, want := metricValue(t, text, "pilut_memory_limit_bytes"), float64(s.StatsSnapshot().MemoryLimitBytes); got != want || want != float64(debug.SetMemoryLimit(-1)) {
		t.Fatalf("memory_limit_bytes = %v, want the accountant's %v and the runtime's %d", got, want, debug.SetMemoryLimit(-1))
	}
	if !strings.Contains(text, "# HELP pilut_matrices Submitted matrices held in the matrix tier.") {
		t.Fatalf("pilut_matrices help text does not say matrices held:\n%s", text)
	}

	// Histogram sanity: cumulative buckets, +Inf equals _count, sum > 0.
	count := metricValue(t, text, "pilut_solve_latency_ms_count")
	if count != 2 {
		t.Fatalf("latency count = %v, want 2", count)
	}
	re := regexp.MustCompile(`(?m)^pilut_solve_latency_ms_bucket\{le="([^"]+)"\} (\d+)$`)
	prev := -1.0
	var infSeen bool
	for _, m := range re.FindAllStringSubmatch(text, -1) {
		v, _ := strconv.ParseFloat(m[2], 64)
		if v < prev {
			t.Fatalf("bucket le=%s not cumulative: %v < %v", m[1], v, prev)
		}
		prev = v
		if m[1] == "+Inf" {
			infSeen = true
			if v != count {
				t.Fatalf("+Inf bucket %v != count %v", v, count)
			}
		}
	}
	if !infSeen {
		t.Fatal("latency histogram has no +Inf bucket")
	}

	// Every HELP line has a TYPE line and vice versa.
	if strings.Count(text, "# HELP") != strings.Count(text, "# TYPE") {
		t.Fatalf("HELP/TYPE mismatch:\n%s", text)
	}
}

// TestConcurrentSolvesAndScrapes hammers the service with concurrent
// solves of cached and uncached matrices while other goroutines scrape
// /metrics and StatsSnapshot, then checks the counter algebra. MaxBatch=1
// makes every request its own batch, so cache lookups equal requests and
// hits + misses == requests must hold exactly. Run under -race this
// doubles as the service-layer race test.
func TestConcurrentSolvesAndScrapes(t *testing.T) {
	s := New(Config{Procs: 4, Workers: 3, MaxBatch: 1})
	defer s.Shutdown(context.Background())

	solvers := 8
	perSolver := 4
	if os.Getenv("PILUT_TEST_FAST") != "" {
		solvers, perSolver = 4, 2
	}

	// A mix of matrices: one shared (cached after its first solve) and one
	// per goroutine pair (exercises insert/evict paths concurrently).
	shared := matgen.Grid2D(10, 10)
	sharedKey, _, err := s.Submit(shared)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, solvers)
	sizes := make([]int, solvers)
	for g := 0; g < solvers; g++ {
		if g%2 == 0 {
			keys[g], sizes[g] = sharedKey, shared.N
			continue
		}
		a := matgen.Torso(5, 5, 5, int64(g))
		k, _, err := s.Submit(a)
		if err != nil {
			t.Fatal(err)
		}
		keys[g], sizes[g] = k, a.N
	}

	var wg sync.WaitGroup
	errCh := make(chan error, solvers*perSolver)
	stopScrape := make(chan struct{})
	var scrapeWG sync.WaitGroup
	for i := 0; i < 2; i++ {
		scrapeWG.Add(1)
		go func() {
			defer scrapeWG.Done()
			for {
				select {
				case <-stopScrape:
					return
				default:
				}
				var buf bytes.Buffer
				if err := s.WriteMetrics(&buf); err != nil {
					errCh <- err
					return
				}
				_ = s.StatsSnapshot()
				time.Sleep(time.Millisecond)
			}
		}()
	}

	for g := 0; g < solvers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for j := 0; j < perSolver; j++ {
				res, err := s.Solve(context.Background(), keys[g], rhs(sizes[g], int64(g*100+j)), SolveOptions{})
				if err != nil {
					errCh <- fmt.Errorf("solver %d/%d: %w", g, j, err)
					return
				}
				if res.BatchSize != 1 {
					errCh <- fmt.Errorf("solver %d/%d: batch size %d with MaxBatch=1", g, j, res.BatchSize)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(stopScrape)
	scrapeWG.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if t.Failed() {
		return
	}

	st := s.StatsSnapshot()
	total := int64(solvers * perSolver)
	if st.Solves.Requests != total || st.Solves.Completed != total {
		t.Fatalf("requests=%d completed=%d, want %d each", st.Solves.Requests, st.Solves.Completed, total)
	}
	if st.Solves.Canceled != 0 || st.Solves.Errors != 0 {
		t.Fatalf("canceled=%d errors=%d, want 0", st.Solves.Canceled, st.Solves.Errors)
	}
	// MaxBatch=1: every request is one batch, every batch does one cache
	// lookup, so the lookup counters must tile the requests exactly.
	if st.Solves.Batches != total {
		t.Fatalf("batches=%d, want %d with MaxBatch=1", st.Solves.Batches, total)
	}
	if st.Cache.Hits+st.Cache.Misses != total {
		t.Fatalf("hits (%d) + misses (%d) != requests (%d)", st.Cache.Hits, st.Cache.Misses, total)
	}
	if st.Cache.Misses != st.Cache.Factorizations {
		t.Fatalf("misses=%d factorizations=%d, want equal (no failures)", st.Cache.Misses, st.Cache.Factorizations)
	}
	if st.Solves.LatencyMs.Count != total || st.Solves.Iterations.Count != total {
		t.Fatalf("histogram counts %d/%d, want %d", st.Solves.LatencyMs.Count, st.Solves.Iterations.Count, total)
	}

	text := scrape(t, s)
	if got := metricValue(t, text, "pilut_solve_inflight"); got != 0 {
		t.Fatalf("inflight = %v after quiescence", got)
	}
}

// TestTraceDirWritesChromeFiles checks that configuring TraceDir produces
// one factor trace and one solve trace per run, each valid Chrome JSON.
func TestTraceDirWritesChromeFiles(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	cfg.TraceDir = dir
	s := New(cfg)
	defer s.Shutdown(context.Background())

	a := matgen.Grid2D(12, 12)
	key, _, err := s.Submit(a)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Solve(context.Background(), key, rhs(a.N, 1), SolveOptions{}); err != nil {
		t.Fatal(err)
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var factor, solve int
	for _, e := range entries {
		data, err := os.ReadFile(dir + "/" + e.Name())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(data, []byte(`"traceEvents"`)) {
			t.Fatalf("%s is not a Chrome trace", e.Name())
		}
		switch {
		case strings.HasPrefix(e.Name(), "factor-"):
			factor++
		case strings.HasPrefix(e.Name(), "solve-"):
			solve++
		}
	}
	if factor != 1 || solve != 1 {
		t.Fatalf("got %d factor and %d solve traces, want 1 each (files: %v)", factor, solve, entries)
	}
}
