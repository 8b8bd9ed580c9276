package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/matgen"
	"repro/internal/pcomm/netcomm"
	"repro/internal/sparse"
)

// e2eBackend is the daemon backend of the end-to-end smoke tests:
// PILUT_BACKEND selects it, so the CI backend matrix drives the whole
// HTTP path on both implementations.
func e2eBackend() string {
	kind := os.Getenv("PILUT_BACKEND")
	if kind == "" {
		return "modelled"
	}
	if netcomm.IsSpec(kind) {
		// The daemon rejects multi-process backends (its request streams
		// live in one process); run the netcomm CI lane's e2e pass on
		// the wall-clock backend instead.
		return "real"
	}
	return kind
}

// TestEndToEnd drives the real pilutd binary over HTTP: submit the
// quickstart grid matrix, solve it twice (the second solve must hit the
// factorization cache), check the stats endpoint, exercise a request
// deadline, and shut the daemon down gracefully.
func TestEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end smoke test builds and runs a binary")
	}
	bin := buildPilutd(t)
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-procs", "4", "-backend", e2eBackend())
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting pilutd: %v", err)
	}
	exited := make(chan struct{})
	var waitErr error
	go func() { waitErr = cmd.Wait(); close(exited) }()
	defer func() {
		select {
		case <-exited:
		default:
			cmd.Process.Kill()
			<-exited
		}
	}()

	// The daemon logs its chosen address; scan for it.
	addrRe := regexp.MustCompile(`listening on (\S+)`)
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if m := addrRe.FindStringSubmatch(sc.Text()); m != nil {
				addrCh <- m[1]
			}
		}
	}()
	var base string
	select {
	case addr := <-addrCh:
		base = "http://" + addr
	case <-exited:
		t.Fatalf("pilutd exited before listening: %v", waitErr)
	case <-time.After(30 * time.Second):
		t.Fatal("timed out waiting for pilutd to listen")
	}

	get := func(path string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp, buf.Bytes()
	}
	post := func(path, contentType string, body []byte) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Post(base+path, contentType, bytes.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp, buf.Bytes()
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("healthz never came up: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Submit the quickstart matrix as a MatrixMarket body.
	a := matgen.Grid2D(32, 32)
	var mm bytes.Buffer
	if err := sparse.WriteMatrixMarket(&mm, a); err != nil {
		t.Fatal(err)
	}
	resp, body := post("/v1/matrices", "text/plain", mm.Bytes())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, body)
	}
	var sub struct {
		Key   string `json:"key"`
		N     int    `json:"n"`
		NNZ   int    `json:"nnz"`
		Known bool   `json:"known"`
	}
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatalf("submit reply %s: %v", body, err)
	}
	if sub.N != a.N || sub.NNZ != a.NNZ() || sub.Known {
		t.Fatalf("submit reply: %+v, want n=%d nnz=%d known=false", sub, a.N, a.NNZ())
	}

	b := make([]float64, a.N)
	for i := range b {
		b[i] = 1
	}
	solveBody, _ := json.Marshal(map[string]any{"key": sub.Key, "b": b, "tol": 1e-8})
	type solveReply struct {
		X          []float64 `json:"x"`
		Converged  bool      `json:"converged"`
		Iterations int       `json:"iterations"`
		Residual   float64   `json:"residual"`
		CacheHit   bool      `json:"cache_hit"`
	}
	var first, second solveReply

	resp, body = post("/v1/solve", "application/json", solveBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve 1: status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatal(err)
	}
	if !first.Converged || first.CacheHit {
		t.Fatalf("solve 1: converged=%v cache_hit=%v, want true/false", first.Converged, first.CacheHit)
	}
	// Check the solution against the true operator, independently of the
	// daemon's own residual report.
	y := make([]float64, a.N)
	a.MulVec(y, first.X)
	var rr, bb float64
	for i := range b {
		d := b[i] - y[i]
		rr += d * d
		bb += b[i] * b[i]
	}
	if rel := math.Sqrt(rr / bb); rel > 1e-6 {
		t.Fatalf("solve 1: true relative residual %g", rel)
	}

	// Scrape Prometheus metrics between the two solves: the second solve
	// must move the cache-hit counter and the latency histogram.
	promValue := func(text []byte, name string) float64 {
		t.Helper()
		re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` (\S+)$`)
		m := re.FindSubmatch(text)
		if m == nil {
			t.Fatalf("metric %s not found in:\n%s", name, text)
		}
		v, err := strconv.ParseFloat(string(m[1]), 64)
		if err != nil {
			t.Fatalf("metric %s has unparsable value %q", name, m[1])
		}
		return v
	}
	resp, metrics1 := get("/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type %q", ct)
	}
	hits1 := promValue(metrics1, "pilut_cache_hits_total")
	lat1 := promValue(metrics1, "pilut_solve_latency_ms_count")
	if misses := promValue(metrics1, "pilut_cache_misses_total"); misses != 1 {
		t.Fatalf("misses after first solve = %v, want 1", misses)
	}
	if lat1 != 1 {
		t.Fatalf("latency count after first solve = %v, want 1", lat1)
	}

	// Second solve of the same matrix: no refactorization.
	resp, body = post("/v1/solve", "application/json", solveBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve 2: status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &second); err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit {
		t.Fatalf("solve 2 did not hit the factorization cache: %s", body)
	}
	for i := range first.X {
		if first.X[i] != second.X[i] {
			t.Fatalf("cache-hit solve differs from cold solve at %d", i)
		}
	}

	// The cache-hit counter and the latency histogram must have moved by
	// exactly one between the two scrapes.
	_, metrics2 := get("/metrics")
	if hits2 := promValue(metrics2, "pilut_cache_hits_total"); hits2 != hits1+1 {
		t.Fatalf("hits went %v → %v across a cached solve, want +1", hits1, hits2)
	}
	if lat2 := promValue(metrics2, "pilut_solve_latency_ms_count"); lat2 != lat1+1 {
		t.Fatalf("latency count went %v → %v across a solve, want +1", lat1, lat2)
	}
	if inflight := promValue(metrics2, "pilut_solve_inflight"); inflight != 0 {
		t.Fatalf("inflight = %v with no solve outstanding", inflight)
	}

	resp, body = get("/v1/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: status %d", resp.StatusCode)
	}
	var st struct {
		Cache struct {
			Factorizations int64 `json:"factorizations"`
			Hits           int64 `json:"hits"`
			Misses         int64 `json:"misses"`
		} `json:"cache"`
		Solves struct {
			Completed int64 `json:"completed"`
		} `json:"solves"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("stats reply %s: %v", body, err)
	}
	if st.Cache.Factorizations != 1 || st.Cache.Hits < 1 {
		t.Fatalf("stats: factorizations=%d hits=%d, want 1 factorization and ≥1 hit: %s",
			st.Cache.Factorizations, st.Cache.Hits, body)
	}
	if st.Solves.Completed != 2 {
		t.Fatalf("stats: completed=%d, want 2", st.Solves.Completed)
	}

	// A 1 ms deadline on an unreachable tolerance must answer 504 with
	// the cancellation error, and leave the daemon healthy.
	hardBody, _ := json.Marshal(map[string]any{
		"key": sub.Key, "b": b, "tol": 1e-300, "max_matvec": 500000, "timeout_ms": 1,
	})
	resp, body = post("/v1/solve", "application/json", hardBody)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("deadline solve: status %d, want 504: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "canceled") {
		t.Fatalf("deadline solve reply does not mention cancellation: %s", body)
	}
	resp, body = get("/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("daemon unhealthy after canceled solve: status %d: %s", resp.StatusCode, body)
	}
	var health struct {
		Status          string   `json:"status"`
		QueueDepth      int      `json:"queue_depth"`
		BreakerOpenKeys []string `json:"breaker_open_keys"`
		DegradedSolves  int64    `json:"degraded_solves"`
	}
	if err := json.Unmarshal(body, &health); err != nil {
		t.Fatalf("healthz is not JSON: %v: %s", err, body)
	}
	if health.Status != "ok" || health.BreakerOpenKeys == nil {
		t.Fatalf("healthz = %+v, want status ok with breaker key list", health)
	}

	// Unknown key → 404 with a structured JSON error body.
	missBody, _ := json.Marshal(map[string]any{"key": "no-such-key", "b": b})
	resp, body = post("/v1/solve", "application/json", missBody)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown key: status %d, want 404", resp.StatusCode)
	}
	var missErr struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &missErr); err != nil || missErr.Error == "" {
		t.Fatalf("unknown-key reply is not a JSON error object: %v: %s", err, body)
	}

	// A negative timeout is a client error, answered as structured JSON.
	negBody, _ := json.Marshal(map[string]any{"key": sub.Key, "b": b, "timeout_ms": -5})
	if resp, body := post("/v1/solve", "application/json", negBody); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative timeout: status %d, want 400: %s", resp.StatusCode, body)
	}

	// Graceful shutdown on SIGTERM.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-exited:
		if waitErr != nil {
			t.Fatalf("pilutd exited with %v, want clean exit", waitErr)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("pilutd did not exit after SIGTERM")
	}
}

// TestDaemonMatrixTierBound posts more than the matrix tier's budget of
// distinct matrices to the real daemon, submits only, and checks that
// /v1/stats reports the tier within the budget it reports and that the
// daemon still answers a solve.
func TestDaemonMatrixTierBound(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end smoke test builds and runs a binary")
	}
	base := fmt.Sprintf("http://127.0.0.1:%d", freePort(t))
	startDaemon(t, buildPilutd(t), "-addr", strings.TrimPrefix(base, "http://"), "-procs", "4", "-backend", e2eBackend())
	waitHealthy(t, base)

	var st struct {
		Matrices int `json:"matrices"`
		Cache    struct {
			MatrixBytes       int64 `json:"matrix_bytes"`
			MatrixBudgetBytes int64 `json:"matrix_budget_bytes"`
			MatrixEvictions   int64 `json:"matrix_evictions"`
		} `json:"cache"`
	}
	if code := getJSON(t, base+"/v1/stats", &st); code != http.StatusOK || st.Cache.MatrixBudgetBytes <= 0 {
		t.Fatalf("stats: status %d, matrix_budget_bytes %d", code, st.Cache.MatrixBudgetBytes)
	}
	budget := st.Cache.MatrixBudgetBytes
	var posted int64
	for i := 0; posted <= budget+(1<<20); i++ {
		a := matgen.Grid2D(120, 120+i)
		submitMatrix(t, base, a)
		posted += a.SizeBytes()
	}
	if code := getJSON(t, base+"/v1/stats", &st); code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}
	t.Logf("posted %.1f MiB of matrices: %d held in %.1f MiB of a %.1f MiB budget, %d evicted",
		float64(posted)/(1<<20), st.Matrices, float64(st.Cache.MatrixBytes)/(1<<20), float64(budget)/(1<<20), st.Cache.MatrixEvictions)
	if st.Cache.MatrixBytes > budget || st.Cache.MatrixEvictions == 0 {
		t.Fatalf("matrix_bytes = %d (budget %d), matrix_evictions = %d: the tier is not bounded",
			st.Cache.MatrixBytes, budget, st.Cache.MatrixEvictions)
	}

	a := matgen.Grid2D(16, 16)
	key := submitMatrix(t, base, a)
	var res clusterSolveReply
	if code, body := postJSON(t, base+"/v1/solve", map[string]any{"key": key, "b": sparse.Ones(a.N), "tol": 1e-8}, &res); code != http.StatusOK || !res.Converged {
		t.Fatalf("solve after the overflow: status %d converged=%v: %s", code, res.Converged, body)
	}
}
