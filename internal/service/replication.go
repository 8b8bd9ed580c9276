package service

// Proactive factor replication and owner-failure takeover. When a
// factorization is built on its owning daemon, the owner pushes the
// encoded factor (wire.go) to its R HRW successors so an owner's death is
// absorbed by HRW itself: the first successor — already holding the
// bytes — becomes the new owner the moment the view writes the old one
// off, and a solve there is a cache hit, not a rebuild. On every view
// change each daemon re-walks its cache, claims keys it now owns, and
// re-replicates them to the current successor set.
//
// The peer protocol lives here whole: one route table, the one peer HTTP
// operation every cluster exchange goes through (call) and its wrappers,
// and the handlers PeerRoutes serves, so the two halves cannot drift.
//
// This file is under the errdrop analyzer's strict cluster boundary:
// every error from the net/http, io and encoding layers must be handled
// (Close excepted) — a silently dropped replica push is a silently lost
// recovery path.

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
	"sort"
	"strings"
	"time"
)

// Entry provenance: how a cached factorization got here. Takeover
// counting keys off it — a key this daemon owns but imported from a peer
// means the previous owner is gone.
const (
	originLocal   = "local"   // built by this daemon
	originPeer    = "peer"    // fetched on demand from the then-owner
	originReplica = "replica" // pushed proactively by the owner
)

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
// serve (unknown matrix or an unexportable block-Jacobi entry): the
// peer is healthy, the fetcher just builds locally.
var errPeerMiss = errors.New("service: peer does not have the factorization")

// peerRoute is one route of the peer protocol, declared once: PeerRoutes
// serves it under its method and path, reading at most maxBody of the
// request, and call, the client half, sends the same method to the same
// path and keeps at most maxAnswer of the answer.
type peerRoute struct {
	op           string // what a failure calls the exchange
	method, path string // path is a mux pattern: {key} stands for a matrix key
	query        string // the client's query, if any
	maxBody      int64
	maxAnswer    int64
}

// The peer protocol. A factor crosses as a fetch's answer or a replica
// push's body under one bound, so a factor a peer can fetch can also be
// pushed. A view is bounded alike pushed or answered.
var (
	routeFactor   = peerRoute{op: "factor fetch", method: http.MethodGet, path: "/v1/peer/factor/{key}", maxAnswer: maxMatrixWireBytes}
	routeMatrix   = peerRoute{op: "matrix replication", method: http.MethodPost, path: "/v1/peer/matrix", maxBody: maxMatrixWireBytes}
	routeReplica  = peerRoute{op: "replica push", method: http.MethodPost, path: "/v1/peer/replica/{key}", maxBody: maxMatrixWireBytes}
	routeView     = peerRoute{op: "view probe", method: http.MethodGet, path: "/v1/cluster/view", maxAnswer: 1 << 20}
	routeViewPush = peerRoute{op: "view push", method: http.MethodPost, path: "/v1/cluster/view", maxBody: 1 << 20, maxAnswer: 1 << 20}
	routeJoin     = peerRoute{op: "join", method: http.MethodPost, path: "/v1/cluster/join", maxBody: 1 << 16, maxAnswer: 1 << 20}
	routeLeave    = peerRoute{op: "leave", method: http.MethodPost, path: "/v1/cluster/leave", maxBody: 1 << 16}
	routeHealth   = peerRoute{op: "health probe", method: http.MethodGet, path: "/healthz", query: "?scope=local", maxAnswer: 1 << 20}
)

// maxDrainBytes bounds what call reads past the route's answer bound to
// keep a connection reusable; beyond it, closing is cheaper than reading.
const maxDrainBytes = 1 << 16

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
func (cl *cluster) call(rt peerRoute, peer, key string, body []byte) (status int, data []byte, err error) {
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
func (cl *cluster) callOK(rt peerRoute, peer, key string, body []byte) ([]byte, error) {
	status, data, err := cl.call(rt, peer, key, body)
	if err == nil && status != http.StatusOK {
		return nil, &peerStatusError{peer: peer, op: rt.op, code: status}
	}
	return data, err
}

// callView is callOK for the membership routes: an optional JSON request
// body in, the peer's view out.
func (cl *cluster) callView(rt peerRoute, peer string, in any) (View, error) {
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

// PeerRoutes registers the server half of the peer protocol on mux: the
// seven token-guarded routes other daemons call — factor fetch, matrix
// and replica pushes, the view exchange, join and leave — and /healthz,
// whose ?scope=local answer is what a peer's health probe reads. A
// handler answers a status and a JSON value, or the raw bytes of a
// factor.
func (s *Server) PeerRoutes(mux *http.ServeMux) {
	for _, h := range []struct {
		rt    peerRoute
		serve func(r *http.Request) (int, any)
	}{
		{routeHealth, s.serveHealth},
		{routeFactor, s.serveFactor},
		{routeMatrix, s.serveMatrix},
		{routeReplica, s.serveReplica},
		{routeView, s.serveView},
		{routeViewPush, s.serveView},
		{routeJoin, s.serveMember(routeJoin, s.joinMember)},
		{routeLeave, s.serveMember(routeLeave, s.leaveMember)},
	} {
		mux.HandleFunc(h.rt.method+" "+h.rt.path, func(w http.ResponseWriter, r *http.Request) {
			status, v := http.StatusForbidden, any(errorReply{"cluster token mismatch"})
			// /healthz is also the public liveness check: no token.
			if h.rt == routeHealth || s.peerAuthOK(r.Header.Get(ClusterTokenHeader)) {
				r.Body = http.MaxBytesReader(w, r.Body, h.rt.maxBody)
				status, v = h.serve(r)
			}
			var err error
			if data, ok := v.([]byte); ok {
				w.Header().Set("Content-Type", "application/octet-stream")
				_, err = w.Write(data)
			} else {
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(status)
				err = json.NewEncoder(w).Encode(v)
			}
			if err != nil {
				log.Printf("service: answering %s %s: %v", r.Method, r.URL.Path, err)
			}
		})
	}
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

// errorReply is the body of every refusal: the JSON shape all of
// pilutd's errors share.
type errorReply struct {
	Error string `json:"error"`
}

func refuse(status int, err error) (int, any) {
	return status, errorReply{err.Error()}
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
// clean miss (unknown key, or a block-Jacobi entry with no wire form),
// 422 a build that failed.
func (s *Server) serveFactor(r *http.Request) (int, any) {
	data, err := s.ExportFactor(r.PathValue("key"))
	switch {
	case errors.Is(err, ErrUnknownMatrix), errors.Is(err, errNotExportable):
		return refuse(http.StatusNotFound, err)
	case err != nil:
		return refuse(http.StatusUnprocessableEntity, err)
	}
	return http.StatusOK, data
}

func (s *Server) serveMatrix(r *http.Request) (int, any) {
	key, known, err := s.importMatrix(r.Body)
	switch {
	case errors.Is(err, ErrClosed):
		return refuse(http.StatusServiceUnavailable, err)
	case err != nil:
		return refuse(http.StatusBadRequest, err)
	}
	return http.StatusOK, map[string]any{"key": key, "known": known}
}

func (s *Server) serveReplica(r *http.Request) (int, any) {
	known, err := s.importReplica(r.PathValue("key"), r.Body)
	if err != nil {
		return refuse(http.StatusUnprocessableEntity, err)
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
			return refuse(http.StatusBadRequest, fmt.Errorf("parsing view: %w", err))
		}
	}
	cl := s.cluster
	if cl == nil {
		return http.StatusNotFound, errorReply{"this daemon is not a cluster member"}
	}
	if push && cl.ms.merge(pushed) {
		s.onViewChange()
	}
	return http.StatusOK, cl.ms.snapshot()
}

// serveMember answers a join or a leave: the member's URL in, the
// changed view out.
func (s *Server) serveMember(rt peerRoute, change func(url string) (View, error)) func(*http.Request) (int, any) {
	return func(r *http.Request) (int, any) {
		var req memberRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			return refuse(http.StatusBadRequest, fmt.Errorf("parsing %s request: %w", rt.op, err))
		}
		if s.cluster == nil {
			return refuse(http.StatusBadRequest, errNotMember)
		}
		v, err := change(req.URL)
		if err != nil {
			return refuse(http.StatusBadRequest, err)
		}
		log.Printf("service: cluster %s of %s (epoch %d)", rt.op, req.URL, v.Epoch)
		return http.StatusOK, v
	}
}

// transientFetchErr splits peer-operation failures into transient (worth
// one bounded retry: transport errors, overload and server-side
// statuses) and permanent (auth rejection, config mismatch, malformed
// request — retrying cannot help). A clean miss is neither: the peer
// answered.
func transientFetchErr(err error) bool {
	if err == nil || errors.Is(err, errPeerMiss) {
		return false
	}
	var se *peerStatusError
	if errors.As(err, &se) {
		return se.code == http.StatusTooManyRequests || se.code >= 500
	}
	// Transport-level: dial refused, connection reset, timeout — the
	// classic shapes of a daemon mid-restart or a dropped packet.
	return true
}

const (
	fetchRetryBase = 25 * time.Millisecond
	fetchRetryMax  = 250 * time.Millisecond
)

// retryBackoff picks the pause before the one retried peer operation:
// the peer breaker's retry-after hint when one is pending (the breaker
// already knows when the peer is worth probing again), otherwise a
// jittered slice around the base so colliding fetchers don't retry in
// lock-step. Always bounded by fetchRetryMax.
func (cl *cluster) retryBackoff(peer string) time.Duration {
	base := fetchRetryBase
	cl.mu.Lock()
	if hint, ok := cl.brk.retryAfter(peer); ok && hint > 0 && hint < fetchRetryMax {
		base = hint
	}
	jitter := time.Duration(cl.rng.Int63n(int64(base)))
	cl.mu.Unlock()
	d := base/2 + jitter
	if d > fetchRetryMax {
		d = fetchRetryMax
	}
	return d
}

// getFactorRetry is getFactor plus the bounded retry: one extra attempt,
// only on a transient failure, after a jittered backoff.
func (cl *cluster) getFactorRetry(peer, key string) ([]byte, error) {
	data, err := cl.getFactor(peer, key)
	if err == nil || !transientFetchErr(err) {
		return data, err
	}
	cl.fetchRetries.Add(1)
	time.Sleep(cl.retryBackoff(peer))
	return cl.getFactor(peer, key)
}

// fetchCandidate picks the next daemon worth asking for key: the owner,
// then its replicas, in HRW order — recomputed from the live view on
// every call, so a request in flight during a takeover retries against
// the updated view instead of failing with the stale one.
func (cl *cluster) fetchCandidate(key string, tried map[string]bool) string {
	r := cl.ranked(key)
	limit := 1 + cl.replicas
	if limit > len(r) {
		limit = len(r)
	}
	for _, p := range r[:limit] {
		if !tried[p] {
			return p
		}
	}
	return ""
}

// peerFetch tries to satisfy a cache miss from the cluster: the key's
// owner first, then its replicas. Failure of any kind — breaker open,
// candidates exhausted, decode mismatch — returns false and the caller
// builds locally, so no peer death can fail a request this daemon could
// answer alone. A clean miss from a healthy candidate stops the walk:
// nobody built this key yet, and a local build answers faster than more
// round-trips.
func (s *Server) peerFetch(key string) (*entry, bool) {
	cl := s.cluster
	if cl == nil {
		return nil, false
	}
	tried := map[string]bool{cl.self: true}
	for {
		peer := cl.fetchCandidate(key, tried)
		if peer == "" {
			return nil, false
		}
		tried[peer] = true
		if !cl.allow(peer) {
			continue
		}
		cl.fetches.Add(1)
		data, err := cl.getFactorRetry(peer, key)
		if err != nil {
			if errors.Is(err, errPeerMiss) {
				cl.fetchMisses.Add(1)
				cl.peerUp(peer)
				return nil, false
			}
			cl.fetchFailures.Add(1)
			cl.peerDown(peer)
			continue
		}
		cl.peerUp(peer)
		ent, err := s.importFactor(key, data)
		if err != nil {
			cl.fetchFailures.Add(1)
			continue
		}
		cl.fetchHits.Add(1)
		return ent, true
	}
}

// pushReplicas sends ent to the current HRW successors of its key when
// this daemon owns it and replication is on. Only the owner pushes, so R
// successors hold the bytes and the death of the owner promotes one of
// them for free. Block-Jacobi entries are not exportable and are skipped
// — they are the cheap rung. A push that does not fully land (breaker
// open, transport failure, peer rejection) marks the key pending so the
// probe loop retries it — a stable view must not strand a factor without
// its redundancy.
func (s *Server) pushReplicas(ent *entry) {
	cl := s.cluster
	if cl.replicas <= 0 || cl.owner(ent.key) != cl.self {
		return
	}
	body, err := encodeEntry(ent, s.cfg)
	if errors.Is(err, errNotExportable) {
		return // nothing to protect
	}
	if err != nil {
		cl.replicaPushFailures.Add(1)
		return
	}
	landed := true
	for _, peer := range cl.successors(ent.key) {
		if peer == cl.self {
			continue
		}
		if !cl.allow(peer) {
			landed = false
			continue
		}
		if _, err := cl.callOK(routeReplica, peer, ent.key, body); err != nil {
			cl.replicaPushFailures.Add(1)
			cl.peerDown(peer)
			landed = false
			continue
		}
		cl.replicasPushed.Add(1)
		cl.peerUp(peer)
	}
	cl.mu.Lock()
	if landed {
		delete(cl.pending, ent.key)
	} else {
		cl.pending[ent.key] = true
	}
	cl.mu.Unlock()
}

// retryPendingReplicas re-pushes owned keys whose last replica push did
// not fully land. The probe loop calls it every round, so a transient
// push failure heals within a probe interval instead of waiting for a
// view change that may never come.
func (s *Server) retryPendingReplicas() {
	cl := s.cluster
	cl.mu.Lock()
	keys := make([]string, 0, len(cl.pending))
	for k := range cl.pending {
		keys = append(keys, k)
	}
	cl.mu.Unlock()
	if len(keys) == 0 {
		return
	}
	sort.Strings(keys)
	for _, key := range keys {
		s.mu.Lock()
		it, ok := s.cache.items[key]
		s.mu.Unlock()
		if !ok || cl.replicas <= 0 || cl.owner(key) != cl.self {
			// Evicted, replication off, or ownership moved — the push is
			// no longer this daemon's job.
			cl.mu.Lock()
			delete(cl.pending, key)
			cl.mu.Unlock()
			continue
		}
		s.pushReplicas(it.val)
	}
}

// importReplica ingests a proactively pushed factorization (the body of
// a replica push). Idempotent: a key already cached answers known
// without reading the body — re-replication after view changes would
// otherwise re-import every key it already delivered.
func (s *Server) importReplica(key string, r io.Reader) (known bool, err error) {
	cl := s.cluster
	if cl == nil {
		return false, errNotMember
	}
	s.mu.Lock()
	_, have := s.cache.items[key]
	s.mu.Unlock()
	if have {
		return true, nil
	}
	data, err := io.ReadAll(r)
	if err != nil {
		return false, fmt.Errorf("service: reading replica body for %s: %w", key, err)
	}
	ent, err := s.importFactor(key, data)
	if err != nil {
		return false, err
	}
	s.admit(ent, originReplica)
	cl.replicaImports.Add(1)
	return false, nil
}

// onViewChange reacts to a membership change: every cached key this
// daemon now owns is re-replicated to the key's current successor set,
// and keys whose bytes arrived from a peer (fetch or replica push) are
// claimed — counted once as takeovers, the signature of inheriting a
// dead owner's keys. Runs synchronously on the probe/handler goroutine;
// pushes are bounded by the per-op timeout and the breaker.
func (s *Server) onViewChange() {
	cl := s.cluster
	if cl == nil {
		return
	}
	s.mu.Lock()
	owned := make([]*entry, 0, len(s.cache.items))
	for key, it := range s.cache.items {
		if cl.owner(key) == cl.self {
			owned = append(owned, it.val)
		}
	}
	s.mu.Unlock()
	for _, ent := range owned {
		if ent.origin != originLocal {
			cl.mu.Lock()
			first := !cl.claimed[ent.key]
			if first {
				cl.claimed[ent.key] = true
			}
			cl.mu.Unlock()
			if first {
				cl.takeovers.Add(1)
			}
		}
		s.pushReplicas(ent)
	}
}
