package service

// The daemon's HTTP surface as a client meets it: each test serves
// Routes over an in-process server and checks statuses, content types,
// the one refusal shape, Retry-After and the token guard.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime/debug"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/krylov"
	"repro/internal/matgen"
	"repro/internal/sparse"
)

// routesHandler is what pilutd serves: every route of svc on one mux.
func routesHandler(svc *Server, maxTimeout time.Duration) *http.ServeMux {
	mux := http.NewServeMux()
	svc.Routes(mux, maxTimeout)
	return mux
}

// tinyMatrix is the 4×4 matrix the handler tests register.
const tinyMatrix = "%%MatrixMarket matrix coordinate real general\n4 4 8\n" +
	"1 1 4\n2 2 4\n3 3 4\n4 4 4\n1 2 -1\n2 3 -1\n3 4 -1\n4 1 -1\n"

// newTestServer spins up the real mux over an in-process service with a
// tiny matrix pre-submitted, so handler tests exercise exactly the code
// the daemon runs.
func newTestServer(t *testing.T) (*httptest.Server, *Server, string) {
	t.Helper()
	svc := New(Config{Procs: 2, Workers: 1})
	ts := httptest.NewServer(routesHandler(svc, 600*time.Second))
	t.Cleanup(func() {
		ts.Close()
		svc.Shutdown(context.Background())
	})

	resp, err := http.Post(ts.URL+"/v1/matrices", "text/plain", strings.NewReader(tinyMatrix))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sub struct {
		Key string `json:"key"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil || sub.Key == "" {
		t.Fatalf("submit: err=%v key=%q", err, sub.Key)
	}
	return ts, svc, sub.Key
}

// decodeError asserts the response is a JSON {"error": ...} object with
// the right status and content type, returning the message.
func decodeError(t *testing.T, resp *http.Response, wantStatus int) string {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("status = %d, want %d", resp.StatusCode, wantStatus)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q, want application/json", ct)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
		t.Fatalf("body is not a JSON error object: %v", err)
	}
	return e.Error
}

func TestNegativeTimeoutRejected(t *testing.T) {
	ts, _, key := newTestServer(t)
	body, _ := json.Marshal(map[string]any{"key": key, "b": []float64{1, 1, 1, 1}, "timeout_ms": -1})
	resp, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	msg := decodeError(t, resp, http.StatusBadRequest)
	if !strings.Contains(msg, "timeout_ms") {
		t.Fatalf("error %q does not mention timeout_ms", msg)
	}
}

// A restart above the service's bound is a client error on both solve
// routes — before the fix GMRES(200000) tried to allocate ≈ 300 GiB per
// rank and the runtime killed the daemon — and the daemon answers the
// next solve.
func TestHugeRestartRejected(t *testing.T) {
	ts, _, key := newTestServer(t)
	post := func(route string, req map[string]any) *http.Response {
		t.Helper()
		body, _ := json.Marshal(req)
		resp, err := http.Post(ts.URL+route, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	b := []float64{1, 1, 1, 1}
	msg := decodeError(t, post("/v1/solve", map[string]any{"key": key, "b": b, "restart": 200000}), http.StatusUnprocessableEntity)
	if !strings.Contains(msg, "restart") {
		t.Fatalf("error %q does not mention restart", msg)
	}
	decodeError(t, post("/v1/sequences", map[string]any{"keys": []string{key}, "b": b, "restart": 200000}), http.StatusUnprocessableEntity)
	resp := post("/v1/solve", map[string]any{"key": key, "b": b})
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve after the refusals: status %d, want 200", resp.StatusCode)
	}
}

// TestNonFiniteMatrixRejected: a MatrixMarket body with a NaN or an
// infinity is a 400 that names the line, and nothing is stored.
func TestNonFiniteMatrixRejected(t *testing.T) {
	ts, svc, _ := newTestServer(t)
	for _, v := range []string{"nan", "-Inf"} {
		mm := "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 4\n2 2 " + v + "\n"
		resp, err := http.Post(ts.URL+"/v1/matrices", "text/plain", strings.NewReader(mm))
		if err != nil {
			t.Fatal(err)
		}
		if msg := decodeError(t, resp, http.StatusBadRequest); !strings.Contains(msg, "line 4") || !strings.Contains(msg, "not finite") {
			t.Errorf("%s: error %q does not name the line and the reason", v, msg)
		}
	}
	if n := svc.StatsSnapshot().Matrices; n != 1 {
		t.Errorf("%d matrices stored, want the test server's one", n)
	}
}

// TestRouteContentTypes: the raw answers keep their content types — the
// Prometheus text format on /metrics, an octet stream on the factor
// route — and a JSON answer says so.
func TestRouteContentTypes(t *testing.T) {
	ts, _, key := newTestServer(t)
	for path, want := range map[string]string{
		"/metrics":               "text/plain; version=0.0.4; charset=utf-8",
		"/v1/peer/factor/" + key: "application/octet-stream",
		"/v1/stats":              "application/json",
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); resp.StatusCode != http.StatusOK || ct != want {
			t.Errorf("GET %s: %d %q, want 200 %q", path, resp.StatusCode, ct, want)
		}
	}
}

// TestStatsReportMemoryLimit: /v1/stats reads the accountant, so it shows
// what the tiers hold and the runtime limit set from it.
func TestStatsReportMemoryLimit(t *testing.T) {
	ts, svc, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	held := tierBytes(svc)
	tiers.mu.Lock()
	start := tiers.start
	tiers.mu.Unlock()
	if held == 0 || st.HeldBytes != held {
		t.Fatalf("held_bytes = %d, the server's tiers hold %d", st.HeldBytes, held)
	}
	if want := min(held+heapAllowance, start); st.MemoryLimitBytes != want || debug.SetMemoryLimit(-1) != want {
		t.Fatalf("memory_limit_bytes = %d, runtime limit %d, want %d", st.MemoryLimitBytes, debug.SetMemoryLimit(-1), want)
	}
}

func TestHealthzJSON(t *testing.T) {
	ts, _, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	var h struct {
		Status          string   `json:"status"`
		QueueDepth      int      `json:"queue_depth"`
		BreakerOpenKeys []string `json:"breaker_open_keys"`
		DegradedSolves  int64    `json:"degraded_solves"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatalf("healthz is not JSON: %v", err)
	}
	if h.Status != "ok" || h.BreakerOpenKeys == nil {
		t.Fatalf("healthz = %+v, want status ok and a (possibly empty) breaker key list", h)
	}
}

func TestHealthzDraining(t *testing.T) {
	svc := New(Config{Procs: 2, Workers: 1})
	ts := httptest.NewServer(routesHandler(svc, 600*time.Second))
	defer ts.Close()
	if err := svc.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503 while draining", resp.StatusCode)
	}
	var h struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil || h.Status != "draining" {
		t.Fatalf("healthz = %+v (err %v), want status draining", h, err)
	}
}

func TestUnknownEndpointIsJSON404(t *testing.T) {
	ts, _, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/no/such/path")
	if err != nil {
		t.Fatal(err)
	}
	msg := decodeError(t, resp, http.StatusNotFound)
	if !strings.Contains(msg, "/no/such/path") {
		t.Fatalf("error %q does not name the path", msg)
	}
}

// TestEvictedMatrixIs404ThenResubmit: once the matrix tier has evicted
// the test server's never-solved matrix, solving its key answers 404;
// posting the matrix again returns the same key and the solve answers
// 200.
func TestEvictedMatrixIs404ThenResubmit(t *testing.T) {
	ts, svc, key := newTestServer(t)
	filler := matgen.Grid2D(128, 128)
	for seed := int64(0); svc.StatsSnapshot().Cache.MatrixEvictions == 0; seed++ {
		if _, _, err := svc.Submit(matgen.Evolve(filler, 1, 1e-3, seed)[0]); err != nil {
			t.Fatal(err)
		}
	}
	solve := func() *http.Response {
		t.Helper()
		body, _ := json.Marshal(map[string]any{"key": key, "b": []float64{1, 1, 1, 1}})
		resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	decodeError(t, solve(), http.StatusNotFound)
	// A sequence is refused before any step runs, naming the missing key.
	body, _ := json.Marshal(map[string]any{"keys": []string{key}, "b": []float64{1, 1, 1, 1}})
	resp, err := http.Post(ts.URL+"/v1/sequences", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if msg := decodeError(t, resp, http.StatusNotFound); !strings.Contains(msg, key) {
		t.Fatalf("sequence 404 %q does not name the missing key %s", msg, key)
	}

	resp, err = http.Post(ts.URL+"/v1/matrices", "text/plain", strings.NewReader(tinyMatrix))
	if err != nil {
		t.Fatal(err)
	}
	var sub struct {
		Key   string `json:"key"`
		Known bool   `json:"known"`
	}
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if err != nil || sub.Key != key || sub.Known {
		t.Fatalf("resubmit: key %q known=%v err=%v, want %q known=false", sub.Key, sub.Known, err, key)
	}
	resp = solve()
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve after resubmission: status %d, want 200", resp.StatusCode)
	}
}

// TestSequencesEndpoint drives the matrix-sequence workflow end to end
// over HTTP: submit a fixed-pattern evolving family, solve it as one
// sequence, and check every step after the first reused the cached
// symbolic analysis and warm-started from its predecessor.
func TestSequencesEndpoint(t *testing.T) {
	svc := New(Config{Procs: 2, Workers: 1})
	ts := httptest.NewServer(routesHandler(svc, 600*time.Second))
	t.Cleanup(func() {
		ts.Close()
		svc.Shutdown(context.Background())
	})

	base := matgen.Grid2D(8, 8)
	seq := append([]*sparse.CSR{base}, matgen.Evolve(base, 2, 1e-3, 21)...)
	keys := make([]string, 0, len(seq))
	for i, a := range seq {
		var buf bytes.Buffer
		if err := sparse.WriteMatrixMarket(&buf, a); err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/matrices", "text/plain", &buf)
		if err != nil {
			t.Fatal(err)
		}
		var sub struct {
			Key string `json:"key"`
		}
		err = json.NewDecoder(resp.Body).Decode(&sub)
		resp.Body.Close()
		if err != nil || sub.Key == "" {
			t.Fatalf("submit %d: err=%v key=%q", i, err, sub.Key)
		}
		keys = append(keys, sub.Key)
	}

	b := make([]float64, base.N)
	for i := range b {
		b[i] = 1
	}
	body, _ := json.Marshal(map[string]any{"keys": keys, "b": b, "tol": 1e-9})
	resp, err := http.Post(ts.URL+"/v1/sequences", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	var reply sequenceReply
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		t.Fatal(err)
	}
	if len(reply.Steps) != len(keys) {
		t.Fatalf("got %d steps, want %d", len(reply.Steps), len(keys))
	}
	for i, res := range reply.Steps {
		if !res.Converged {
			t.Fatalf("step %d did not converge: %+v", i, res)
		}
		if wantSym := i > 0; res.SymbolicHit != wantSym {
			t.Fatalf("step %d: symbolic_hit=%v, want %v", i, res.SymbolicHit, wantSym)
		}
		if wantWarm := i > 0; res.WarmStarted != wantWarm {
			t.Fatalf("step %d: warm_started=%v, want %v", i, res.WarmStarted, wantWarm)
		}
	}
	if reply.PatternHits != len(keys)-1 || reply.WarmStarted != len(keys)-1 || reply.CacheHits != 0 {
		t.Fatalf("aggregates = %+v, want pattern_hits=%d warm_started=%d cache_hits=0",
			reply, len(keys)-1, len(keys)-1)
	}

	// The same family in two calls, the second seeded through "x0" with
	// the first's last x, computes bitwise what the one call did.
	body, _ = json.Marshal(map[string]any{"keys": keys[1:], "b": b, "tol": 1e-9, "x0": reply.Steps[0].X})
	resp2, err := http.Post(ts.URL+"/v1/sequences", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var tail sequenceReply
	if err := json.NewDecoder(resp2.Body).Decode(&tail); err != nil || resp2.StatusCode != http.StatusOK {
		t.Fatalf("seeded sequence: status %d, err %v", resp2.StatusCode, err)
	}
	for i, res := range tail.Steps {
		if !res.WarmStarted || !slices.Equal(res.X, reply.Steps[i+1].X) {
			t.Fatalf("seeded call step %d: warm_started=%v, x equal to the one call's: %v",
				i, res.WarmStarted, slices.Equal(res.X, reply.Steps[i+1].X))
		}
	}

	// An empty key list is a client error.
	resp, err = http.Post(ts.URL+"/v1/sequences", "application/json", strings.NewReader(`{"keys":[],"b":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	decodeError(t, resp, http.StatusBadRequest)
}

func TestSolveStatusMapping(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{&OverloadedError{QueueDepth: 9, RetryAfter: time.Second}, http.StatusTooManyRequests},
		{&BreakerOpenError{Key: "k", RetryAfter: 5 * time.Second}, http.StatusServiceUnavailable},
		{ErrClosed, http.StatusServiceUnavailable},
		{ErrUnknownMatrix, http.StatusNotFound},
		{fmt.Errorf("%w: deadline", krylov.ErrCanceled), http.StatusGatewayTimeout},
		{errors.New("no service error: the route's fallback"), http.StatusUnprocessableEntity},
	}
	for _, c := range cases {
		if got := statusOf(c.err, http.StatusUnprocessableEntity); got != c.want {
			t.Errorf("statusOf(%v) = %d, want %d", c.err, got, c.want)
		}
	}
}

func TestWriteErrorSetsRetryAfter(t *testing.T) {
	rec := httptest.NewRecorder()
	writeAnswer(rec, "", http.StatusTooManyRequests, &OverloadedError{QueueDepth: 3, RetryAfter: 1500 * time.Millisecond})
	if got := rec.Header().Get("Retry-After"); got != "2" {
		t.Fatalf("Retry-After = %q, want 2 (rounded up)", got)
	}
	rec = httptest.NewRecorder()
	writeAnswer(rec, "", http.StatusServiceUnavailable, &BreakerOpenError{Key: "k", RetryAfter: 30 * time.Second})
	if got := rec.Header().Get("Retry-After"); got != "30" {
		t.Fatalf("Retry-After = %q, want 30", got)
	}
	rec = httptest.NewRecorder()
	writeAnswer(rec, "", http.StatusNotFound, ErrUnknownMatrix)
	if got := rec.Header().Get("Retry-After"); got != "" {
		t.Fatalf("Retry-After = %q for a plain error, want unset", got)
	}
}

// newClusterTestServer spins up the real mux over a single-member cluster
// service, optionally token-protected.
func newClusterTestServer(t *testing.T, token string) (*httptest.Server, *Server) {
	t.Helper()
	svc := New(Config{Procs: 2, Workers: 1, Cluster: &ClusterConfig{
		Self: "http://127.0.0.1:1", Token: token,
		ProbeInterval: -1, Replicas: -1,
	}})
	ts := httptest.NewServer(routesHandler(svc, 600*time.Second))
	t.Cleanup(func() {
		ts.Close()
		svc.Shutdown(context.Background())
	})
	return ts, svc
}

// TestClusterTokenGuard pins the peer-surface auth contract: every
// /v1/peer/* and /v1/cluster/* endpoint answers 403 to a missing or
// wrong token, each rejection counts, and the right token passes. The
// public surface stays open.
func TestClusterTokenGuard(t *testing.T) {
	ts, svc := newClusterTestServer(t, "hunter2")
	guarded := []struct{ method, path string }{
		{http.MethodGet, "/v1/peer/factor/somekey"},
		{http.MethodPost, "/v1/peer/matrix"},
		{http.MethodPost, "/v1/peer/replica/somekey"},
		{http.MethodGet, "/v1/cluster/view"},
		{http.MethodPost, "/v1/cluster/view"},
		{http.MethodPost, "/v1/cluster/join"},
		{http.MethodPost, "/v1/cluster/leave"},
	}
	do := func(method, path, token string) *http.Response {
		req, err := http.NewRequest(method, ts.URL+path, bytes.NewReader([]byte("{}")))
		if err != nil {
			t.Fatal(err)
		}
		if token != "" {
			req.Header.Set(ClusterTokenHeader, token)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	for i, g := range guarded {
		msg := decodeError(t, do(g.method, g.path, ""), http.StatusForbidden)
		if !strings.Contains(msg, "token") {
			t.Errorf("%s %s: error %q does not mention the token", g.method, g.path, msg)
		}
		resp := do(g.method, g.path, "wrong")
		resp.Body.Close()
		if resp.StatusCode != http.StatusForbidden {
			t.Errorf("%s %s with wrong token: status %d, want 403", g.method, g.path, resp.StatusCode)
		}
		wantRejected := int64(2 * (i + 1))
		if got := svc.StatsSnapshot().Cluster.RejectedPeerReqs; got != wantRejected {
			t.Errorf("after %s %s: rejected counter = %d, want %d", g.method, g.path, got, wantRejected)
		}
	}
	// The right token reaches the handler (a non-403 answer).
	resp := do(http.MethodGet, "/v1/cluster/view", "hunter2")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("authorized view request: status %d, want 200", resp.StatusCode)
	}
	// The public surface never demands the token.
	pub, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	pub.Body.Close()
	if pub.StatusCode == http.StatusForbidden {
		t.Error("public /healthz was gated behind the cluster token")
	}
}

// TestClusterEndpointsOutsideCluster: a standalone daemon answers 404 on
// the membership surface instead of pretending to be a cluster of one.
func TestClusterEndpointsOutsideCluster(t *testing.T) {
	ts, _, _ := newTestServer(t)
	for _, path := range []string{"/v1/cluster/view"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		decodeError(t, resp, http.StatusNotFound)
	}
	resp, err := http.Post(ts.URL+"/v1/cluster/join", "application/json",
		strings.NewReader(`{"url":"http://127.0.0.1:9"}`))
	if err != nil {
		t.Fatal(err)
	}
	msg := decodeError(t, resp, http.StatusBadRequest)
	if !strings.Contains(msg, "not a cluster member") {
		t.Errorf("join on a standalone daemon: %q", msg)
	}
}

// TestClusterViewEndpoint: the view answers with this member and a
// malformed join URL is rejected before touching the view.
func TestClusterViewEndpoint(t *testing.T) {
	ts, _ := newClusterTestServer(t, "")
	var v struct {
		Epoch   uint64 `json:"epoch"`
		Members []struct {
			URL   string `json:"url"`
			State string `json:"state"`
		} `json:"members"`
	}
	resp, err := http.Get(ts.URL + "/v1/cluster/view")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("view: status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	if v.Epoch == 0 || len(v.Members) != 1 || v.Members[0].State != "alive" {
		t.Fatalf("view = %+v, want one alive member at epoch ≥ 1", v)
	}

	bad, err := http.Post(ts.URL+"/v1/cluster/join", "application/json",
		strings.NewReader(`{"url":"not-a-url"}`))
	if err != nil {
		t.Fatal(err)
	}
	msg := decodeError(t, bad, http.StatusBadRequest)
	if !strings.Contains(msg, "absolute") {
		t.Errorf("malformed join URL error: %q", msg)
	}
}

// solveStatuses are the answers the solve routes document: success,
// malformed request, unknown matrix, unsolvable request, overload,
// breaker open or draining, deadline exceeded.
var solveStatuses = map[int]bool{
	http.StatusOK: true, http.StatusBadRequest: true, http.StatusNotFound: true,
	http.StatusUnprocessableEntity: true, http.StatusTooManyRequests: true,
	http.StatusServiceUnavailable: true, http.StatusGatewayTimeout: true,
}

// FuzzSolveBodies posts each input as the JSON body of /v1/solve and of
// /v1/sequences to one in-process daemon with tinyMatrix registered and
// a 100 ms deadline cap: neither route may panic or answer outside
// solveStatuses, and the daemon must still solve a well-formed request
// afterwards.
func FuzzSolveBodies(f *testing.F) {
	a, err := sparse.ReadMatrixMarket(strings.NewReader(tinyMatrix))
	if err != nil {
		f.Fatal(err)
	}
	svc := New(Config{Procs: 2, Workers: 1})
	defer svc.Shutdown(context.Background())
	key, _, err := svc.Submit(a)
	if err != nil {
		f.Fatal(err)
	}
	mux := routesHandler(svc, 100*time.Millisecond)
	post := func(route, body string) int {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, route, strings.NewReader(body)))
		return rec.Code
	}
	good := fmt.Sprintf(`{"key":%q,"keys":[%[1]q],"b":[1,2,3,4]}`, key)

	f.Add(good)
	f.Add(fmt.Sprintf(`{"key":%q,"keys":[%[1]q],"b":[1,2,3,4],"restart":200000}`, key))
	f.Add(fmt.Sprintf(`{"key":%q,"keys":[%[1]q],"b":[1,2,3]}`, key))
	f.Add(`{"key":"deadbeef","keys":["deadbeef"],"b":[1,2,3,4]}`)
	f.Add(fmt.Sprintf(`{"key":%q,"keys":[],"b":[1,2,3,4]}`, key))
	f.Add(fmt.Sprintf(`{"key":%q,"keys":[%[1]q],"b":[1,2,3,4],"timeout_ms":-1}`, key))
	f.Fuzz(func(t *testing.T, body string) {
		for _, route := range []string{"/v1/solve", "/v1/sequences"} {
			if code := post(route, body); !solveStatuses[code] {
				t.Fatalf("%s answered %d to %q", route, code, body)
			}
		}
		if code := post("/v1/solve", good); code != http.StatusOK {
			t.Fatalf("well-formed solve after %q answered %d", body, code)
		}
	})
}
