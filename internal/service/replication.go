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
// The peer routes these exchanges travel, their client (cluster.call)
// and their handlers live in routes.go.
//
// This file is under the errdrop analyzer's strict cluster boundary:
// every error from the net/http, io and encoding layers must be handled
// (Close excepted) — a silently dropped replica push is a silently lost
// recovery path.

import (
	"errors"
	"fmt"
	"io"
	"net/http"
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

// fetchRetryBase centres the pause before the one retried peer
// operation.
const fetchRetryBase = 25 * time.Millisecond

// retryBackoff picks that pause: a jittered slice in [base/2, 3·base/2),
// so colliding fetchers don't retry in lock-step.
func (cl *cluster) retryBackoff() time.Duration {
	cl.mu.Lock()
	jitter := time.Duration(cl.rng.Int63n(int64(fetchRetryBase)))
	cl.mu.Unlock()
	return fetchRetryBase/2 + jitter
}

// getFactorRetry is getFactor plus the bounded retry: one extra attempt,
// only on a transient failure, after a jittered backoff.
func (cl *cluster) getFactorRetry(peer, key string) ([]byte, error) {
	data, err := cl.getFactor(peer, key)
	if err == nil || !transientFetchErr(err) {
		return data, err
	}
	cl.fetchRetries.Add(1)
	time.Sleep(cl.retryBackoff())
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
// them for free. A push that does not fully land (breaker open,
// transport failure, peer rejection) marks the key pending so the probe
// loop retries it — a stable view must not strand a factor without its
// redundancy.
func (s *Server) pushReplicas(ent *entry) {
	cl := s.cluster
	if cl.replicas <= 0 || cl.owner(ent.key) != cl.self {
		return
	}
	body, err := encodeEntry(ent, s.cfg)
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
			if it.val.origin != originLocal && !it.val.claimed {
				it.val.claimed = true
				cl.takeovers.Add(1)
			}
		}
	}
	s.mu.Unlock()
	for _, ent := range owned {
		s.pushReplicas(ent)
	}
}
