package service

// Proactive factor replication and owner-failure takeover. When a
// factorization is built on its owning daemon, the owner pushes the
// gob-encoded factor to its R HRW successors so an owner's death is
// absorbed by HRW itself: the first successor — already holding the
// bytes — becomes the new owner the moment the view writes the old one
// off, and a solve there is a cache hit, not a rebuild. On every view
// change each daemon re-walks its cache, claims keys it now owns, and
// re-replicates them to the current successor set. The one peer HTTP
// operation every cluster exchange goes through (call) and its wrappers
// live here too.
//
// This file is under the errdrop analyzer's strict cluster boundary:
// every error from the net/http, io and encoding layers must be handled
// (Close excepted) — a silently dropped replica push is a silently lost
// recovery path.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
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

// call is the one peer HTTP operation every cluster exchange goes
// through: method on peer+path with an optional body, bounded by the op
// timeout and carrying the cluster token. It answers the status and at
// most limit bytes of the response body; the rest is drained (bounded)
// so the connection can be reused. err is a transport failure only — the
// wrappers below decide what a status means.
func (cl *cluster) call(method, peer, path string, body []byte, limit int64) (status int, data []byte, err error) {
	ctx, cancel := context.WithTimeout(context.Background(), cl.timeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, peer+path, rd)
	if err != nil {
		return 0, nil, err
	}
	cl.authorize(req)
	resp, err := cl.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	if data, err = io.ReadAll(io.LimitReader(resp.Body, limit)); err != nil {
		return 0, nil, fmt.Errorf("service: reading answer of %s %s%s: %w", method, peer, path, err)
	}
	if _, err = io.Copy(io.Discard, io.LimitReader(resp.Body, maxDrainBytes)); err != nil {
		return 0, nil, fmt.Errorf("service: draining answer of %s %s%s: %w", method, peer, path, err)
	}
	return resp.StatusCode, data, nil
}

// maxDrainBytes bounds what call reads past the caller's limit to keep a
// connection reusable; beyond it, closing is cheaper than reading.
const maxDrainBytes = 1 << 16

// maxViewBytes bounds the JSON answers of the membership endpoints.
const maxViewBytes = 1 << 20

// callOK is call for the exchanges whose only good answer is 200: any
// other status becomes a *peerStatusError naming op.
func (cl *cluster) callOK(method, peer, path, op string, body []byte, limit int64) ([]byte, error) {
	status, data, err := cl.call(method, peer, path, body, limit)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, &peerStatusError{peer: peer, op: op, code: status}
	}
	return data, nil
}

// callView is callOK for the membership endpoints: an optional JSON
// request body in, the peer's view out.
func (cl *cluster) callView(method, peer, path, op string, in any) (View, error) {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return View{}, fmt.Errorf("service: encoding %s for %s: %w", op, peer, err)
		}
	}
	data, err := cl.callOK(method, peer, path, op, body, maxViewBytes)
	if err != nil {
		return View{}, err
	}
	var v View
	if err := json.Unmarshal(data, &v); err != nil {
		return View{}, fmt.Errorf("service: decoding %s answer from %s: %w", op, peer, err)
	}
	return v, nil
}

// getFactor fetches key's encoded factorization from peer; a 404 is the
// clean miss.
func (cl *cluster) getFactor(peer, key string) ([]byte, error) {
	status, data, err := cl.call(http.MethodGet, peer, "/v1/peer/factor/"+url.PathEscape(key), nil, maxMatrixWireBytes)
	switch {
	case err != nil:
		return nil, err
	case status == http.StatusNotFound:
		return nil, errPeerMiss
	case status != http.StatusOK:
		return nil, &peerStatusError{peer: peer, op: "factor fetch", code: status}
	}
	return data, nil
}

// putMatrix replicates a matrix body to its owner.
func (cl *cluster) putMatrix(peer string, body []byte) error {
	_, err := cl.callOK(http.MethodPost, peer, "/v1/peer/matrix", "matrix replication", body, 0)
	return err
}

// putReplica pushes an encoded factorization to one successor.
func (cl *cluster) putReplica(peer, key string, body []byte) error {
	_, err := cl.callOK(http.MethodPost, peer, "/v1/peer/replica/"+url.PathEscape(key), "replica push", body, 0)
	return err
}

// probeHealth asks one peer for its local (non-aggregated) health. The
// status in the body is the answer whatever the HTTP code: a draining
// peer says so under a 503.
func (cl *cluster) probeHealth(peer string) (string, error) {
	status, data, err := cl.call(http.MethodGet, peer, "/healthz?scope=local", nil, maxViewBytes)
	if err != nil {
		return "", err
	}
	var h struct {
		Status string `json:"status"`
	}
	if err := json.Unmarshal(data, &h); err != nil {
		return "", err
	}
	if h.Status == "" {
		return "", fmt.Errorf("peer answered %d with no status", status)
	}
	return h.Status, nil
}

// getView fetches a peer's current view; the probe loop uses it both as
// the liveness check and as anti-entropy (the answer merges into the
// local view, so independently observed deaths and joins converge).
func (cl *cluster) getView(peer string) (View, error) {
	return cl.callView(http.MethodGet, peer, "/v1/cluster/view", "view probe", nil)
}

// postView pushes a view to one peer (join/leave broadcast). The peer
// merges it and answers its own; merging the answer back closes the loop
// one gossip round earlier than waiting for the next probe.
func (cl *cluster) postView(peer string, v View) (View, error) {
	return cl.callView(http.MethodPost, peer, "/v1/cluster/view", "view push", v)
}

// postJoin asks a seed member to admit joiner, answering the seed's view.
func (cl *cluster) postJoin(seed, joiner string) (View, error) {
	return cl.callView(http.MethodPost, seed, "/v1/cluster/join", "join", map[string]string{"url": joiner})
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

// pushReplicas sends ent to the current HRW successors of its key.
// Only the owner pushes (callers check), so R successors hold the bytes
// and the death of the owner promotes one of them for free. Block-Jacobi
// entries are not exportable and are skipped — they are the cheap rung.
// A push that does not fully land (breaker open, transport failure,
// peer rejection) marks the key pending so the probe loop retries it —
// a stable view must not strand a factor without its redundancy.
func (s *Server) pushReplicas(ent *entry) {
	cl := s.cluster
	body, err := encodeEntry(ent, s.cfg)
	if errors.Is(err, ErrNotExportable) {
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
		if err := cl.putReplica(peer, ent.key, body); err != nil {
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

// maybeReplicate pushes a freshly built entry to its successors when
// this daemon owns the key. Runs asynchronously after a local build.
func (s *Server) maybeReplicate(ent *entry) {
	cl := s.cluster
	if cl == nil || cl.replicas <= 0 {
		return
	}
	if cl.owner(ent.key) != cl.self {
		return
	}
	s.pushReplicas(ent)
}

// ImportReplica ingests a proactively pushed factorization (the body of
// POST /v1/peer/replica/{key}). Idempotent: a key already cached answers
// known without decoding — re-replication after view changes would
// otherwise re-import every key it already delivered.
func (s *Server) ImportReplica(key string, r io.Reader) (known bool, err error) {
	cl := s.cluster
	if cl == nil {
		return false, errors.New("service: this daemon is not a cluster member")
	}
	s.mu.Lock()
	_, have := s.cache.items[key]
	s.mu.Unlock()
	if have {
		return true, nil
	}
	data, err := io.ReadAll(io.LimitReader(r, maxMatrixWireBytes))
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
		if cl.replicas > 0 {
			s.pushReplicas(ent)
		}
	}
}
