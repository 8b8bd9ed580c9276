package service

// The daemon's HTTP surface, written once: one route table, read by
// Routes, which serves every route through one writer and one error map,
// and by cluster.call, the client of the peer routes.
//
// This file is under the errdrop analyzer's strict cluster boundary:
// every error from the net/http, io and encoding layers must be handled
// (Close excepted) — a dropped one is a reply or a peer answer lost.

import (
	"bytes"
	"context"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/krylov"
	"repro/internal/sparse"
)

// route is one route of the daemon, declared once: Routes serves it
// under its method and path (no method: any), reading at most maxBody of
// the request, answering raw bytes under the content type raw and
// demanding the cluster token when guarded; call, the client half of
// the peer routes, sends the same method to the same path and keeps at
// most maxAnswer of the answer.
type route struct {
	op           string // what a failure calls the exchange
	method, path string // path is a mux pattern: {key} stands for a matrix key
	query        string // the client's query, if any
	maxBody      int64
	maxAnswer    int64
	guarded      bool
	raw          string
}

// maxRequestBytes bounds the body of a public route: a MatrixMarket
// submission or a solve's right-hand sides.
const maxRequestBytes = 256 << 20

// The daemon's routes. A factor crosses as a fetch's answer or a replica
// push's body under one bound, so a factor a peer can fetch can also be
// pushed. A view is bounded alike pushed or answered.
var (
	routeMatrices  = route{method: http.MethodPost, path: "/v1/matrices", maxBody: maxRequestBytes}
	routeSolve     = route{method: http.MethodPost, path: "/v1/solve", maxBody: maxRequestBytes}
	routeSequences = route{method: http.MethodPost, path: "/v1/sequences", maxBody: maxRequestBytes}
	routeStats     = route{method: http.MethodGet, path: "/v1/stats"}
	routeMetrics   = route{method: http.MethodGet, path: "/metrics", raw: "text/plain; version=0.0.4; charset=utf-8"}
	routeHealth    = route{op: "health probe", method: http.MethodGet, path: "/healthz", query: "?scope=local", maxAnswer: 1 << 20}
	routeFactor    = route{op: "factor fetch", method: http.MethodGet, path: "/v1/peer/factor/{key}", maxAnswer: maxMatrixWireBytes, guarded: true, raw: "application/octet-stream"}
	routeMatrix    = route{op: "matrix replication", method: http.MethodPost, path: "/v1/peer/matrix", maxBody: maxMatrixWireBytes, guarded: true}
	routeReplica   = route{op: "replica push", method: http.MethodPost, path: "/v1/peer/replica/{key}", maxBody: maxMatrixWireBytes, guarded: true}
	routeView      = route{op: "view probe", method: http.MethodGet, path: "/v1/cluster/view", maxAnswer: 1 << 20, guarded: true}
	routeViewPush  = route{op: "view push", method: http.MethodPost, path: "/v1/cluster/view", maxBody: 1 << 20, maxAnswer: 1 << 20, guarded: true}
	routeJoin      = route{op: "join", method: http.MethodPost, path: "/v1/cluster/join", maxBody: 1 << 16, maxAnswer: 1 << 20, guarded: true}
	routeLeave     = route{op: "leave", method: http.MethodPost, path: "/v1/cluster/leave", maxBody: 1 << 16, guarded: true}
	routeNotFound  = route{path: "/"}
)

// maxDrainBytes bounds what call reads past the route's answer bound to
// keep a connection reusable; beyond it, closing is cheaper than reading.
const maxDrainBytes = 1 << 16

// peerStatusError is a peer HTTP answer with a non-success status; the
// code drives the transient-vs-permanent retry split.
type peerStatusError struct {
	peer string
	op   string
	code int
}

func (e *peerStatusError) Error() string {
	return fmt.Sprintf("service: peer %s answered %d to %s", e.peer, e.code, e.op)
}

// errPeerMiss reports the owner answered cleanly but had nothing to
// serve (an unknown matrix): the peer is healthy, the fetcher just
// builds locally.
var errPeerMiss = errors.New("service: peer does not have the factorization")

// memberRequest is the body of a join or a leave.
type memberRequest struct {
	URL string `json:"url"`
}

// call is the one peer HTTP operation every cluster exchange goes
// through: rt on peer for key with an optional body, bounded by the op
// timeout and carrying the cluster token. It answers the status and at
// most rt.maxAnswer bytes of the response body; the rest is drained
// (bounded) so the connection can be reused. err is a transport failure
// only — the callers decide what a status means.
func (cl *cluster) call(rt route, peer, key string, body []byte) (status int, data []byte, err error) {
	ctx, cancel := context.WithTimeout(context.Background(), cl.timeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	target := peer + strings.Replace(rt.path, "{key}", url.PathEscape(key), 1) + rt.query
	req, err := http.NewRequestWithContext(ctx, rt.method, target, rd)
	if err != nil {
		return 0, nil, err
	}
	if cl.token != "" {
		req.Header.Set(ClusterTokenHeader, cl.token)
	}
	resp, err := cl.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	if data, err = io.ReadAll(io.LimitReader(resp.Body, rt.maxAnswer)); err != nil {
		return 0, nil, fmt.Errorf("service: reading answer of %s %s: %w", rt.method, target, err)
	}
	if _, err = io.Copy(io.Discard, io.LimitReader(resp.Body, maxDrainBytes)); err != nil {
		return 0, nil, fmt.Errorf("service: draining answer of %s %s: %w", rt.method, target, err)
	}
	return resp.StatusCode, data, nil
}

// callOK is call for the exchanges whose only good answer is 200: any
// other status becomes a *peerStatusError naming the route's op.
func (cl *cluster) callOK(rt route, peer, key string, body []byte) ([]byte, error) {
	status, data, err := cl.call(rt, peer, key, body)
	if err == nil && status != http.StatusOK {
		return nil, &peerStatusError{peer: peer, op: rt.op, code: status}
	}
	return data, err
}

// callView is callOK for the membership routes: an optional JSON request
// body in, the peer's view out.
func (cl *cluster) callView(rt route, peer string, in any) (View, error) {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return View{}, fmt.Errorf("service: encoding %s for %s: %w", rt.op, peer, err)
		}
	}
	data, err := cl.callOK(rt, peer, "", body)
	if err != nil {
		return View{}, err
	}
	var v View
	if err := json.Unmarshal(data, &v); err != nil {
		return View{}, fmt.Errorf("service: decoding %s answer from %s: %w", rt.op, peer, err)
	}
	return v, nil
}

// getFactor fetches key's encoded factorization from peer; a 404 is the
// clean miss.
func (cl *cluster) getFactor(peer, key string) ([]byte, error) {
	data, err := cl.callOK(routeFactor, peer, key, nil)
	var se *peerStatusError
	if errors.As(err, &se) && se.code == http.StatusNotFound {
		return nil, errPeerMiss
	}
	return data, err
}

// probeHealth asks one peer for its local (non-aggregated) health. The
// status in the body is the answer whatever the HTTP code: a draining
// peer says so under a 503.
func (cl *cluster) probeHealth(peer string) (string, error) {
	status, data, err := cl.call(routeHealth, peer, "", nil)
	if err != nil {
		return "", err
	}
	var h Health
	if err := json.Unmarshal(data, &h); err != nil {
		return "", err
	}
	if h.Status == "" {
		return "", fmt.Errorf("peer answered %d with no status", status)
	}
	return h.Status, nil
}

// Routes registers every route the daemon serves on mux: the public API,
// /healthz (whose ?scope=local answer a peer's health probe reads), the
// seven token-guarded peer routes and a JSON 404 for any other path.
// maxTimeout caps each solve's deadline and is the deadline of a solve
// that sets none; 0 leaves solves unbounded. A handler answers a status
// and a value, which writeAnswer writes.
func (s *Server) Routes(mux *http.ServeMux, maxTimeout time.Duration) {
	for _, h := range []struct {
		rt    route
		serve func(r *http.Request) (int, any)
	}{
		{routeMatrices, s.serveSubmit},
		{routeSolve, s.serveSolve(maxTimeout)},
		{routeSequences, s.serveSequence(maxTimeout)},
		{routeStats, func(*http.Request) (int, any) { return http.StatusOK, s.StatsSnapshot() }},
		{routeMetrics, func(*http.Request) (int, any) {
			var buf bytes.Buffer
			if err := s.WriteMetrics(&buf); err != nil {
				return http.StatusInternalServerError, err
			}
			return http.StatusOK, buf.Bytes()
		}},
		{routeHealth, s.serveHealth},
		{routeFactor, s.serveFactor},
		{routeMatrix, s.serveMatrix},
		{routeReplica, s.serveReplica},
		{routeView, s.serveView},
		{routeViewPush, s.serveView},
		{routeJoin, s.serveMember(routeJoin, s.joinMember)},
		{routeLeave, s.serveMember(routeLeave, s.leaveMember)},
		{routeNotFound, func(r *http.Request) (int, any) {
			return http.StatusNotFound, fmt.Errorf("no such endpoint: %s %s", r.Method, r.URL.Path)
		}},
	} {
		mux.HandleFunc(strings.TrimSpace(h.rt.method+" "+h.rt.path), func(w http.ResponseWriter, r *http.Request) {
			status, v := http.StatusForbidden, any(errors.New("cluster token mismatch"))
			if !h.rt.guarded || s.peerAuthOK(r.Header.Get(ClusterTokenHeader)) {
				r.Body = http.MaxBytesReader(w, r.Body, h.rt.maxBody)
				status, v = h.serve(r)
			}
			if err := writeAnswer(w, h.rt.raw, status, v); err != nil {
				log.Printf("service: answering %s %s: %v", r.Method, r.URL.Path, err)
			}
		})
	}
}

// errorReply is the body of every refusal: {"error": "..."}.
type errorReply struct {
	Error string `json:"error"`
}

// writeAnswer is the one writer of every route: raw bytes go out under
// the route's content type raw, any other value as JSON. An error is
// written as an errorReply under statusOf(err, status), with a
// Retry-After header, in whole seconds rounded up, when it carries a
// back-off hint.
func writeAnswer(w http.ResponseWriter, raw string, status int, v any) error {
	if err, ok := v.(error); ok {
		status, v = statusOf(err, status), errorReply{err.Error()}
		var hint interface{ retryAfter() time.Duration }
		if errors.As(err, &hint) {
			wait := hint.retryAfter()
			w.Header().Set("Retry-After", strconv.FormatInt(int64(max(1, (wait+time.Second-1)/time.Second)), 10))
		}
	}
	if data, ok := v.([]byte); ok {
		w.Header().Set("Content-Type", raw)
		w.WriteHeader(status)
		_, err := w.Write(data)
		return err
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	return json.NewEncoder(w).Encode(v)
}

// statusOf is the one map from service errors to HTTP statuses. An error
// it does not know answers fallback: the route's own verdict, 400 for a
// malformed request and 422 for one the service could not carry out.
func statusOf(err error, fallback int) int {
	switch {
	case errors.Is(err, ErrUnknownMatrix):
		return http.StatusNotFound
	case errors.Is(err, ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrBreakerOpen), errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, krylov.ErrCanceled):
		return http.StatusGatewayTimeout
	}
	return fallback
}

// peerAuthOK checks a presented cluster token against the configured
// shared secret (constant-time). Mismatches count toward the
// rejected-peer-request counter; with no token configured (or no
// cluster) every request passes.
func (s *Server) peerAuthOK(got string) bool {
	cl := s.cluster
	if cl == nil || cl.token == "" {
		return true
	}
	if subtle.ConstantTimeCompare([]byte(got), []byte(cl.token)) == 1 {
		return true
	}
	cl.rejected.Add(1)
	return false
}

// solveRequest is the body of a solve.
type solveRequest struct {
	Key       string    `json:"key"`
	B         []float64 `json:"b"`
	Restart   int       `json:"restart"`
	Tol       float64   `json:"tol"`
	MaxMatVec int       `json:"max_matvec"`
	// TimeoutMs, when positive, bounds the request: an exceeded deadline
	// cancels the solve collectively and answers 504.
	TimeoutMs int `json:"timeout_ms"`
}

// sequenceRequest is the body of a sequence: the registered matrix keys
// solved in order against the one right-hand side B, under one deadline.
// Same-pattern steps reuse the cached symbolic analysis; WarmStart
// (default true) seeds each step with the previous step's solution.
type sequenceRequest struct {
	solveRequest
	Keys      []string `json:"keys"`
	WarmStart *bool    `json:"warm_start"`
	// X0 seeds the first step only. Passing the last step's x of one call
	// as the next call's X0 chains a family split into several calls.
	X0 []float64 `json:"x0"`
}

// sequenceReply is the answer of a sequence: one result per step.
type sequenceReply struct {
	Steps []SolveResult `json:"steps"`
	// Aggregates over the steps, for clients that only want the headline.
	PatternHits int `json:"pattern_hits"`
	CacheHits   int `json:"cache_hits"`
	WarmStarted int `json:"warm_started"`
}

// context derives a solve's context from its timeout_ms: a negative one
// is refused, and 0 or anything above maxTimeout becomes maxTimeout, so
// one request cannot pin a worker arbitrarily long.
func (q *solveRequest) context(r *http.Request, maxTimeout time.Duration) (context.Context, context.CancelFunc, error) {
	ms := q.TimeoutMs
	if ms < 0 {
		return nil, nil, fmt.Errorf("timeout_ms must be non-negative, got %d", ms)
	}
	if maxMs := int(maxTimeout.Milliseconds()); maxMs > 0 && (ms == 0 || ms > maxMs) {
		ms = maxMs
	}
	if ms == 0 {
		return r.Context(), func() {}, nil
	}
	ctx, cancel := context.WithTimeout(r.Context(), time.Duration(ms)*time.Millisecond)
	return ctx, cancel, nil
}

func (s *Server) serveSubmit(r *http.Request) (int, any) {
	a, err := sparse.ReadMatrixMarket(r.Body)
	if err != nil {
		return http.StatusBadRequest, fmt.Errorf("parsing MatrixMarket body: %w", err)
	}
	key, known, err := s.Submit(a)
	if err != nil {
		return http.StatusBadRequest, err
	}
	return http.StatusOK, map[string]any{"key": key, "n": a.N, "nnz": a.NNZ(), "known": known}
}

func (s *Server) serveSolve(maxTimeout time.Duration) func(*http.Request) (int, any) {
	return func(r *http.Request) (int, any) {
		var req solveRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			return http.StatusBadRequest, fmt.Errorf("parsing solve request: %w", err)
		}
		ctx, cancel, err := req.context(r, maxTimeout)
		if err != nil {
			return http.StatusBadRequest, err
		}
		defer cancel()
		res, err := s.Solve(ctx, req.Key, req.B, SolveOptions{Restart: req.Restart, Tol: req.Tol, MaxMatVec: req.MaxMatVec})
		if err != nil {
			return http.StatusUnprocessableEntity, err
		}
		return http.StatusOK, res
	}
}

func (s *Server) serveSequence(maxTimeout time.Duration) func(*http.Request) (int, any) {
	return func(r *http.Request) (int, any) {
		var req sequenceRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			return http.StatusBadRequest, fmt.Errorf("parsing sequence request: %w", err)
		}
		if len(req.Keys) == 0 {
			return http.StatusBadRequest, errors.New("sequence needs at least one key")
		}
		// The deadline covers the whole sequence.
		ctx, cancel, err := req.context(r, maxTimeout)
		if err != nil {
			return http.StatusBadRequest, err
		}
		defer cancel()
		opt := SolveOptions{Restart: req.Restart, Tol: req.Tol, MaxMatVec: req.MaxMatVec, X0: req.X0}
		steps, err := s.SolveSequence(ctx, req.Keys, req.B, opt, req.WarmStart == nil || *req.WarmStart)
		if err != nil {
			return http.StatusUnprocessableEntity, err
		}
		reply := sequenceReply{Steps: steps}
		for _, res := range steps {
			if res.SymbolicHit {
				reply.PatternHits++
			}
			if res.CacheHit {
				reply.CacheHits++
			}
			if res.WarmStarted {
				reply.WarmStarted++
			}
		}
		return http.StatusOK, reply
	}
}

// serveHealth answers /healthz: this daemon's health and, in a cluster,
// one row per member, unless the caller asked for scope=local (a peer's
// probe, which must not recurse). A down peer degrades the status but
// keeps it 200 — this daemon still answers everything it can serve
// alone; only draining is a 503.
func (s *Server) serveHealth(r *http.Request) (int, any) {
	h := s.clusterHealthCheck(r.URL.Query().Get("scope") == "local")
	if h.Status != "ok" && h.Status != "degraded" {
		return http.StatusServiceUnavailable, h
	}
	return http.StatusOK, h
}

// serveFactor exports a factorization to a fetching peer: 404 is the
// clean miss (an unknown key), 422 a build that failed.
func (s *Server) serveFactor(r *http.Request) (int, any) {
	data, err := s.ExportFactor(r.PathValue("key"))
	if err != nil {
		return http.StatusUnprocessableEntity, err
	}
	return http.StatusOK, data
}

func (s *Server) serveMatrix(r *http.Request) (int, any) {
	key, known, err := s.importMatrix(r.Body)
	if err != nil {
		return http.StatusBadRequest, err
	}
	return http.StatusOK, map[string]any{"key": key, "known": known}
}

func (s *Server) serveReplica(r *http.Request) (int, any) {
	known, err := s.importReplica(r.PathValue("key"), r.Body)
	if err != nil {
		return http.StatusUnprocessableEntity, err
	}
	return http.StatusOK, map[string]any{"known": known}
}

// serveView answers the view exchange with this daemon's view: GET is a
// peer's probe, POST pushes the peer's view to merge first.
func (s *Server) serveView(r *http.Request) (int, any) {
	var pushed View
	push := r.Method == http.MethodPost
	if push {
		if err := json.NewDecoder(r.Body).Decode(&pushed); err != nil {
			return http.StatusBadRequest, fmt.Errorf("parsing view: %w", err)
		}
	}
	cl := s.cluster
	if cl == nil {
		return http.StatusNotFound, errors.New("this daemon is not a cluster member")
	}
	if push && cl.ms.merge(pushed) {
		s.onViewChange()
	}
	return http.StatusOK, cl.ms.snapshot()
}

// serveMember answers a join or a leave: the member's URL in, the
// changed view out.
func (s *Server) serveMember(rt route, change func(url string) (View, error)) func(*http.Request) (int, any) {
	return func(r *http.Request) (int, any) {
		var req memberRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			return http.StatusBadRequest, fmt.Errorf("parsing %s request: %w", rt.op, err)
		}
		if s.cluster == nil {
			return http.StatusBadRequest, errNotMember
		}
		v, err := change(req.URL)
		if err != nil {
			return http.StatusBadRequest, err
		}
		log.Printf("service: cluster %s of %s (epoch %d)", rt.op, req.URL, v.Epoch)
		return http.StatusOK, v
	}
}
