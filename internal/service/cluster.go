package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/sparse"
)

// ClusterConfig makes a server one member of a pilutd cluster. Every
// daemon must run the same Procs, Seed and Params — ownership transfers
// factorizations, and a piece factored under one layout cannot be
// applied under another. Matrix fingerprints are routed across the
// *live* member view by rendezvous (highest-random-weight) hashing:
// each key has exactly one owning daemon, every daemon computes the
// same owner from the same view with no coordination, and a member's
// death or departure reassigns only the keys it owned. Membership is
// dynamic — Peers only seeds the initial view; daemons join at runtime
// via POST /v1/cluster/join and are written off by failed health
// probes (see membership.go).
type ClusterConfig struct {
	// Self is this daemon's advertised base URL; when Peers is non-empty
	// it must appear there.
	Self string
	// Peers seeds the member view, e.g.
	// ["http://10.0.0.1:8417", "http://10.0.0.2:8417"]. Order does not
	// matter (ownership hashes the URL strings, not the positions).
	// Empty means a single-member seed cluster that others join.
	Peers []string
	// OpTimeout bounds each peer HTTP operation (factor fetch, matrix
	// replication, view exchange, health probe). Default 10s.
	OpTimeout time.Duration
	// Replicas is how many HRW successors receive a proactive copy of
	// each factorization built on its owner, so an owner's death is
	// absorbed by a replica promotion instead of a rebuild. Default 1;
	// negative disables replication.
	Replicas int
	// ProbeInterval is the membership heartbeat period: every interval
	// each daemon probes all non-left members and merges their views.
	// Default 1s; negative disables probing (the view then changes only
	// through joins, leaves and pushed views — the static-cluster mode
	// tests use).
	ProbeInterval time.Duration
	// Token, when non-empty, is the shared secret every /v1/peer/* and
	// /v1/cluster/* request must present (pilutd -cluster-token /
	// PILUT_CLUSTER_TOKEN). All members must agree on it.
	Token string
}

func (c *ClusterConfig) withDefaults() (*ClusterConfig, error) {
	if c == nil {
		return nil, nil
	}
	out := *c
	if out.Self == "" {
		return nil, errors.New("service: cluster config needs Self")
	}
	if out.OpTimeout <= 0 {
		out.OpTimeout = 10 * time.Second
	}
	if out.Replicas == 0 {
		out.Replicas = 1
	}
	if out.Replicas < 0 {
		out.Replicas = 0
	}
	if out.ProbeInterval == 0 {
		out.ProbeInterval = time.Second
	}
	if len(out.Peers) == 0 {
		out.Peers = []string{out.Self}
	}
	seen := make(map[string]bool, len(out.Peers))
	selfFound := false
	for _, p := range out.Peers {
		if p == "" {
			return nil, errors.New("service: cluster peer list contains an empty URL")
		}
		if seen[p] {
			return nil, fmt.Errorf("service: duplicate cluster peer %q", p)
		}
		seen[p] = true
		if p == out.Self {
			selfFound = true
		}
	}
	if !selfFound {
		return nil, fmt.Errorf("service: cluster self %q is not in the peer list", out.Self)
	}
	return &out, nil
}

// ClusterStats counts cross-daemon traffic and the membership view for
// the stats endpoint.
type ClusterStats struct {
	Peers             int    `json:"peers"` // routable members (alive + suspect), self included
	Self              string `json:"self"`
	Epoch             uint64 `json:"epoch"`
	MembersAlive      int    `json:"members_alive"`
	MembersSuspect    int    `json:"members_suspect"`
	MembersDead       int    `json:"members_dead"`
	MembersLeft       int    `json:"members_left"`
	ReplicationFactor int    `json:"replication_factor"`
	PeerFetches       int64  `json:"peer_fetches"`        // factor fetches attempted
	PeerFetchHits     int64  `json:"peer_fetch_hits"`     // answered from a peer's cache
	PeerFetchMisses   int64  `json:"peer_fetch_misses"`   // peer did not have it (built locally)
	PeerFetchFailures int64  `json:"peer_fetch_failures"` // transport/decode failures
	PeerFetchRetries  int64  `json:"peer_fetch_retries"`  // bounded retries after a transient failure
	PeerServes        int64  `json:"peer_serves"`         // factor exports served to peers
	ReplicationsSent  int64  `json:"replications_sent"`   // matrices pushed to their owner
	ReplicationsLost  int64  `json:"replications_lost"`   // pushes that failed (owner down)
	ReplicasPushed    int64  `json:"replicas_pushed"`     // factor copies delivered to successors
	ReplicaPushFails  int64  `json:"replica_push_failures"`
	ReplicaImports    int64  `json:"replica_imports"` // factor copies accepted from owners
	TakeoverKeys      int64  `json:"takeover_keys"`   // peer-imported keys claimed after a view change
	Joins             int64  `json:"joins"`           // members admitted by this daemon
	Leaves            int64  `json:"leaves"`          // tombstones written by this daemon
	RejectedPeerReqs  int64  `json:"rejected_peer_requests"`
}

// cluster is the server's runtime view of its peer group: the live
// membership behind HRW routing, one HTTP client, and a per-peer circuit
// breaker (the same state machine that guards matrix keys) so a dead
// daemon stops costing a timeout per request long before the probe loop
// writes it off.
type cluster struct {
	self          string
	ms            *membership
	client        *http.Client
	timeout       time.Duration
	token         string
	replicas      int
	probeInterval time.Duration

	mu      sync.Mutex
	brk     *breaker
	pending map[string]bool // owned keys whose last replica push did not fully land
	rng     *rand.Rand      // retry-backoff jitter; guarded by mu

	fetches, fetchHits, fetchMisses, fetchFailures atomic.Int64
	fetchRetries                                   atomic.Int64
	serves, replSent, replLost                     atomic.Int64
	replicasPushed, replicaPushFailures            atomic.Int64
	replicaImports, takeovers                      atomic.Int64
	joins, leaves, rejected                        atomic.Int64
}

func newCluster(cfg *ClusterConfig) *cluster {
	return &cluster{
		self:          cfg.Self,
		ms:            newMembership(cfg.Self, cfg.Peers),
		client:        &http.Client{Timeout: cfg.OpTimeout},
		timeout:       cfg.OpTimeout,
		token:         cfg.Token,
		replicas:      cfg.Replicas,
		probeInterval: cfg.ProbeInterval,
		brk:           newBreaker(),
		pending:       make(map[string]bool),
		rng:           rand.New(rand.NewSource(1)),
	}
}

// ClusterTokenHeader carries the shared cluster secret on every
// /v1/peer/* and /v1/cluster/* request.
const ClusterTokenHeader = "X-Pilut-Cluster-Token"

// ranked orders the routable members for key by rendezvous hashing,
// best first: ranked[0] is the owner, ranked[1:1+R] the replica
// successors. Every daemon computes the same order from the same view,
// and removing one member deletes exactly its slot — the keys of every
// surviving member stay put (the minimal-disruption property the
// remapping test pins).
func (cl *cluster) ranked(key string) []string {
	peers := cl.ms.routable()
	type cand struct {
		url string
		sum [sha256.Size]byte
	}
	cands := make([]cand, len(peers))
	h := sha256.New()
	for i, peer := range peers {
		h.Reset()
		io.WriteString(h, peer)
		h.Write([]byte{0})
		io.WriteString(h, key)
		cands[i].url = peer
		h.Sum(cands[i].sum[:0])
	}
	sort.Slice(cands, func(i, j int) bool {
		return bytes.Compare(cands[i].sum[:], cands[j].sum[:]) > 0
	})
	out := make([]string, len(cands))
	for i := range cands {
		out[i] = cands[i].url
	}
	return out
}

// owner returns the daemon that currently owns key: the head of the
// rendezvous ranking over the live view. A lone daemon owns everything.
func (cl *cluster) owner(key string) string {
	r := cl.ranked(key)
	if len(r) == 0 {
		return cl.self
	}
	return r[0]
}

// successors returns the R daemons after the owner in key's ranking —
// the replica set that receives proactive factor pushes.
func (cl *cluster) successors(key string) []string {
	r := cl.ranked(key)
	if len(r) < 2 || cl.replicas <= 0 {
		return nil
	}
	end := 1 + cl.replicas
	if end > len(r) {
		end = len(r)
	}
	return r[1:end]
}

// allow asks the peer's circuit breaker whether an operation may
// proceed; peerUp/peerDown report the outcome back.
func (cl *cluster) allow(peer string) bool {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	_, ok := cl.brk.allow(peer)
	return ok
}

func (cl *cluster) peerUp(peer string) {
	cl.mu.Lock()
	cl.brk.success(peer)
	cl.mu.Unlock()
}

func (cl *cluster) peerDown(peer string) {
	cl.mu.Lock()
	cl.brk.failure(peer)
	cl.mu.Unlock()
}

func (cl *cluster) breakerOpen(peer string) bool {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	for _, k := range cl.brk.openKeys() {
		if k == peer {
			return true
		}
	}
	return false
}

func (cl *cluster) snapshot() *ClusterStats {
	alive, suspect, dead, left := cl.ms.counts()
	return &ClusterStats{
		Peers:             alive + suspect,
		Self:              cl.self,
		Epoch:             cl.ms.epochNow(),
		MembersAlive:      alive,
		MembersSuspect:    suspect,
		MembersDead:       dead,
		MembersLeft:       left,
		ReplicationFactor: cl.replicas,
		PeerFetches:       cl.fetches.Load(),
		PeerFetchHits:     cl.fetchHits.Load(),
		PeerFetchMisses:   cl.fetchMisses.Load(),
		PeerFetchFailures: cl.fetchFailures.Load(),
		PeerFetchRetries:  cl.fetchRetries.Load(),
		PeerServes:        cl.serves.Load(),
		ReplicationsSent:  cl.replSent.Load(),
		ReplicationsLost:  cl.replLost.Load(),
		ReplicasPushed:    cl.replicasPushed.Load(),
		ReplicaPushFails:  cl.replicaPushFailures.Load(),
		ReplicaImports:    cl.replicaImports.Load(),
		TakeoverKeys:      cl.takeovers.Load(),
		Joins:             cl.joins.Load(),
		Leaves:            cl.leaves.Load(),
		RejectedPeerReqs:  cl.rejected.Load(),
	}
}

// maxMatrixWireBytes bounds the flat bodies of the peer routes — a
// factorization, fetched or pushed as a replica, and a replicated matrix
// (routes.go's route table).
const maxMatrixWireBytes = 1 << 30

// checkPeerMatrix checks a matrix a peer sent: the bytes come from
// another process, and everything downstream indexes through RowPtr and
// Cols without looking.
func checkPeerMatrix(a *sparse.CSR) error {
	if err := a.Check(); err != nil {
		return fmt.Errorf("service: peer sent a malformed matrix: %w", err)
	}
	return nil
}

func partDigest(part []int) [sha256.Size]byte {
	buf := make([]byte, 8*len(part))
	for i, q := range part {
		binary.LittleEndian.PutUint64(buf[8*i:], uint64(q))
	}
	return sha256.Sum256(buf)
}

// errNotMember refuses a cluster operation on a standalone daemon.
var errNotMember = errors.New("service: this daemon is not a cluster member")

// encodeEntry is the one place a cache entry becomes wire bytes, for a
// fetching peer (ExportFactor) and for a replica push alike.
func encodeEntry(ent *entry, cfg Config) ([]byte, error) {
	wf := &wireFactor{
		Key:           ent.key,
		Matrix:        ent.a,
		Procs:         cfg.Procs,
		Seed:          cfg.Seed,
		Params:        cfg.Params,
		MISRounds:     cfg.MISRounds,
		LadderStep:    ent.ladderStep,
		Degraded:      ent.degraded,
		Levels:        ent.levels,
		FactorSeconds: ent.factorSeconds,
		Pieces:        make([]core.WirePrecond, len(ent.pcs)),
		PartDigest:    partDigest(ent.lay.PartOf),
	}
	for q, pc := range ent.pcs {
		wf.Pieces[q] = pc.Wire()
	}
	data, err := encodeFactor(wf)
	if err != nil {
		return nil, fmt.Errorf("service: encoding factorization %s: %w", ent.key, err)
	}
	return data, nil
}

// ExportFactor encodes key's factorization for a peer daemon. The entry
// is resolved strictly locally — cache hit or local build, never a
// fetch from another peer — so daemons with disagreeing peer lists
// cannot route a fetch in a cycle. Unknown keys surface
// ErrUnknownMatrix (the factor route answers 404 and the fetcher builds
// locally).
func (s *Server) ExportFactor(key string) ([]byte, error) {
	s.mu.Lock()
	a, ok := s.matrixLocked(key)
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownMatrix, key)
	}
	ent, _, err := s.entryForLocal(key, a)
	if err != nil {
		return nil, err
	}
	data, err := encodeEntry(ent, s.cfg)
	if err != nil {
		return nil, err
	}
	if s.cluster != nil {
		s.cluster.serves.Add(1)
	}
	return data, nil
}

// importFactor decodes a peer's factorization and rebuilds a cache
// entry around it. Nothing on the wire is trusted before it is checked:
// the configuration must be this daemon's, the matrix well-formed and
// fingerprinting to the requested key, the exporter's partition the one
// this daemon derives (its own symbolic front end — a cached analysis or
// a fresh one — against the wire's digest), every piece must fit the
// plan (core.FromWire), and the pieces must fit together into the
// solves' exchange plan (core.CheckExchange). The preconditioner rows then
// come straight off the wire; the operators are cloned from the cached
// templates or, on a symbolic miss, set up in a run that moves no
// floating-point data. The caller admits the entry under its origin.
func (s *Server) importFactor(key string, data []byte) (ent *entry, err error) {
	defer func() {
		if r := recover(); r != nil {
			ent, err = nil, fmt.Errorf("service: importing factorization %s: %v", key, r)
		}
	}()
	wf, err := decodeFactor(data)
	if err != nil {
		return nil, fmt.Errorf("service: decoding factorization %s: %w", key, err)
	}
	if wf.Key != key {
		return nil, fmt.Errorf("service: peer served factorization %s for requested key %s", wf.Key, key)
	}
	cfg := s.cfg
	if wf.Procs != cfg.Procs || wf.Seed != cfg.Seed || wf.Params != cfg.Params || wf.MISRounds != cfg.MISRounds {
		return nil, fmt.Errorf("service: peer factored %s with procs=%d seed=%d params=%+v mis-rounds=%d, this daemon runs procs=%d seed=%d params=%+v mis-rounds=%d — cluster members must share configuration",
			key, wf.Procs, wf.Seed, wf.Params, wf.MISRounds, cfg.Procs, cfg.Seed, cfg.Params, cfg.MISRounds)
	}
	if len(wf.Pieces) != wf.Procs {
		return nil, fmt.Errorf("service: factorization %s carries %d pieces for %d processors", key, len(wf.Pieces), wf.Procs)
	}
	a := wf.Matrix
	if err := checkPeerMatrix(a); err != nil {
		return nil, err
	}
	if got := sparse.Fingerprint(a); got != key {
		return nil, fmt.Errorf("service: peer-served matrix fingerprints to %s, want %s", got, key)
	}

	an, err := s.analysisFor(key, a)
	if err != nil {
		return nil, err
	}
	if partDigest(an.plan.Lay.PartOf) != wf.PartDigest {
		return nil, fmt.Errorf("service: peer partitioned %s differently from this daemon (another partitioner version, or none declared) — its pieces do not fit the local plan", key)
	}
	plan, err := rungPlan(key, an, wf.LadderStep)
	if err != nil {
		return nil, err
	}
	ent, setup, err := newEntry(key, an, plan)
	if err != nil {
		return nil, err
	}
	ent.levels, ent.factorSeconds = wf.Levels, wf.FactorSeconds
	ent.degraded, ent.ladderStep = wf.Degraded, wf.LadderStep
	for q := range wf.Pieces {
		if ent.pcs[q], err = core.FromWire(plan, wf.Pieces[q]); err != nil {
			return nil, err
		}
	}
	if err := core.CheckExchange(ent.pcs); err != nil {
		return nil, err
	}
	if setup != nil {
		if _, rerr := s.run("import", key, setup); rerr != nil {
			return nil, fmt.Errorf("service: ghost plans for imported %s: %w", key, rerr)
		}
	}
	s.publish(an, ent.mats, false)
	// The importing daemon now holds the matrix too: while the matrix
	// tier keeps it, a later cache eviction can rebuild locally without
	// resubmission. The key was checked against the matrix above.
	s.mu.Lock()
	s.putMatrixLocked(key, a)
	s.mu.Unlock()
	return ent, nil
}

// importMatrix ingests a matrix a peer replicated to this daemon (the
// matrix body of wire.go).
func (s *Server) importMatrix(r io.Reader) (key string, known bool, err error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return "", false, fmt.Errorf("service: reading replicated matrix: %w", err)
	}
	a, err := decodeMatrix(data)
	if err != nil {
		return "", false, fmt.Errorf("service: decoding replicated matrix: %w", err)
	}
	if err := checkPeerMatrix(a); err != nil {
		return "", false, err
	}
	return s.Submit(a)
}

// replicateMatrix pushes a freshly submitted matrix to its owning
// daemon so ownership works in the submit-anywhere flow: the owner can
// then build (and serve) the factorization even though the client never
// talked to it. Best-effort — a dead owner costs one gated attempt and
// the submit still succeeds locally.
func (s *Server) replicateMatrix(key string, a *sparse.CSR) {
	cl := s.cluster
	if cl == nil {
		return
	}
	owner := cl.owner(key)
	if owner == cl.self || !cl.allow(owner) {
		return
	}
	body, err := encodeMatrix(a)
	if err != nil {
		cl.replLost.Add(1)
		return
	}
	if _, err := cl.callOK(routeMatrix, owner, "", body); err != nil {
		cl.replLost.Add(1)
		cl.peerDown(owner)
		return
	}
	cl.replSent.Add(1)
	cl.peerUp(owner)
}

// peerHealth is one member's row in the aggregated cluster health.
type peerHealth struct {
	URL string `json:"url"`
	// Status: the peer's own reported status ("ok", "draining"), or
	// "down" when it cannot be reached, "left" for administratively
	// drained members (not probed), or "self" for this daemon.
	Status string `json:"status"`
	// State is the membership view's verdict for the member ("alive",
	// "suspect", "dead", "left") — the probe loop's accumulated opinion,
	// versus Status which is this one health check's live probe.
	State string `json:"state"`
	// BreakerOpen reports this daemon's circuit breaker for the peer;
	// an open breaker means recent operations kept failing and fetches
	// are currently being skipped.
	BreakerOpen bool   `json:"breaker_open"`
	Error       string `json:"error,omitempty"`
}

// clusterHealth is the cluster-wide health answer: this daemon's local
// health plus one row per member of the view and the view's epoch.
// Status degrades to "degraded" when any non-left member is unreachable
// or written off — the cluster still answers everything this daemon can
// serve alone, so degradation is a warning, not an outage.
type clusterHealth struct {
	Health
	Epoch   uint64       `json:"epoch,omitempty"`
	Cluster []peerHealth `json:"cluster,omitempty"`
}

// clusterHealthCheck probes every live member's local health and
// aggregates it with the membership view; outside a cluster, or when
// local, it is this daemon's health alone. Probes run concurrently; a
// dead peer costs one OpTimeout, not one per peer.
func (s *Server) clusterHealthCheck(local bool) clusterHealth {
	out := clusterHealth{Health: s.Health()}
	cl := s.cluster
	if cl == nil || local {
		return out
	}
	view := cl.ms.snapshot()
	out.Epoch = view.Epoch
	rows := make([]peerHealth, len(view.Members))
	var wg sync.WaitGroup
	for i, m := range view.Members {
		rows[i] = peerHealth{URL: m.URL, State: m.State, BreakerOpen: cl.breakerOpen(m.URL)}
		switch {
		case m.URL == cl.self:
			rows[i].Status = "self"
			continue
		case m.State == stateLeft.String():
			rows[i].Status = "left"
			continue
		}
		wg.Add(1)
		go func(i int, peer string) {
			defer wg.Done()
			status, err := cl.probeHealth(peer)
			if err != nil {
				rows[i].Status = "down"
				rows[i].Error = err.Error()
				return
			}
			rows[i].Status = status
		}(i, m.URL)
	}
	wg.Wait()
	for _, row := range rows {
		if out.Status == "ok" && row.Status != "self" && row.Status != "ok" && row.Status != "left" {
			out.Status = "degraded"
		}
	}
	out.Cluster = rows
	return out
}
