package service

// Gossip-lite cluster membership. Every daemon keeps a versioned view of
// the member set: one record per member carrying a state and the epoch
// stamp of its last state change. Views merge by last-writer-wins per
// member (higher stamp takes the record), the view epoch is the maximum
// stamp ever seen, and a member never accepts a rumor of its own death —
// it refutes by re-stamping itself alive above the rumor. Periodic
// probes walk each peer through alive → suspect → dead on consecutive
// failures and straight back to alive on the first success; `left` is an
// administrative tombstone (POST /v1/cluster/leave) that stops both
// routing and probing until an explicit re-join.
//
// This file is under the errdrop analyzer's strict cluster boundary:
// every error from the net/http, io and encoding layers must be handled
// (Close excepted), because a swallowed probe or view-exchange error is
// exactly how split views go unnoticed.

import (
	"errors"
	"fmt"
	"net/url"
	"sort"
	"sync"
	"time"
)

// memberState is the probe-driven lifecycle of one cluster member.
type memberState int

const (
	stateAlive   memberState = iota // answering probes; routable
	stateSuspect                    // missed probes, not yet written off; still routable
	stateDead                       // written off; excluded from routing until it answers again
	stateLeft                       // administratively drained; excluded from routing and probing
)

func (s memberState) String() string {
	switch s {
	case stateAlive:
		return "alive"
	case stateSuspect:
		return "suspect"
	case stateDead:
		return "dead"
	case stateLeft:
		return "left"
	}
	return fmt.Sprintf("memberState(%d)", int(s))
}

func parseMemberState(s string) (memberState, error) {
	switch s {
	case "alive":
		return stateAlive, nil
	case "suspect":
		return stateSuspect, nil
	case "dead":
		return stateDead, nil
	case "left":
		return stateLeft, nil
	}
	return 0, fmt.Errorf("service: unknown member state %q", s)
}

// MemberRecord is one member's row in a gossiped view.
type MemberRecord struct {
	URL   string `json:"url"`
	State string `json:"state"`
	// Stamp is the view epoch at this member's last state change; when
	// two views disagree about a member, the higher stamp wins.
	Stamp uint64 `json:"stamp"`
}

// View is the versioned cluster view exchanged on /v1/cluster/view: the
// full member set plus the epoch (the highest stamp any record carries).
// Members are sorted by URL so views are deterministic to compare.
type View struct {
	Epoch   uint64         `json:"epoch"`
	Members []MemberRecord `json:"members"`
}

// member is the mutable in-memory record behind a MemberRecord.
type member struct {
	url   string
	state memberState
	stamp uint64
	fails int // consecutive probe failures since the last success
}

// membership is the daemon's live view of the cluster. All methods are
// safe for concurrent use; the probe loop, HTTP handlers and the router
// all read through it.
type membership struct {
	mu           sync.Mutex
	self         string
	epoch        uint64
	members      map[string]*member
	suspectAfter int // consecutive failures: alive → suspect
	deadAfter    int // consecutive failures: suspect → dead
}

func newMembership(self string, peers []string, suspectAfter, deadAfter int) *membership {
	if suspectAfter <= 0 {
		suspectAfter = 1
	}
	if deadAfter <= suspectAfter {
		deadAfter = suspectAfter + 1
	}
	ms := &membership{
		self:         self,
		epoch:        1,
		members:      make(map[string]*member, len(peers)+1),
		suspectAfter: suspectAfter,
		deadAfter:    deadAfter,
	}
	for _, p := range peers {
		ms.members[p] = &member{url: p, state: stateAlive, stamp: 1}
	}
	if _, ok := ms.members[self]; !ok {
		ms.members[self] = &member{url: self, state: stateAlive, stamp: 1}
	}
	return ms
}

// snapshot renders the view for gossip and health reports.
func (ms *membership) snapshot() View {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	v := View{Epoch: ms.epoch, Members: make([]MemberRecord, 0, len(ms.members))}
	for _, m := range ms.members {
		v.Members = append(v.Members, MemberRecord{URL: m.url, State: m.state.String(), Stamp: m.stamp})
	}
	sort.Slice(v.Members, func(i, j int) bool { return v.Members[i].URL < v.Members[j].URL })
	return v
}

// routable lists the members HRW routing may target: alive and suspect
// (a suspect peer has merely missed probes; writing it off early would
// remap keys on every network hiccup), sorted for determinism.
func (ms *membership) routable() []string {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	out := make([]string, 0, len(ms.members))
	for _, m := range ms.members {
		if m.state == stateAlive || m.state == stateSuspect {
			out = append(out, m.url)
		}
	}
	sort.Strings(out)
	return out
}

// probeTargets lists the members the health loop probes: everyone but
// self and the administratively departed. Dead members stay probed so a
// restarted daemon rejoins on its first answered probe.
func (ms *membership) probeTargets() []string {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	out := make([]string, 0, len(ms.members))
	for _, m := range ms.members {
		if m.url != ms.self && m.state != stateLeft {
			out = append(out, m.url)
		}
	}
	sort.Strings(out)
	return out
}

// stateOf reports a member's current state.
func (ms *membership) stateOf(url string) (memberState, bool) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	m, ok := ms.members[url]
	if !ok {
		return 0, false
	}
	return m.state, true
}

func (ms *membership) epochNow() uint64 {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	return ms.epoch
}

// observeAlive records an answered probe: the member's failure streak
// resets and any suspect/dead member is promoted straight back to alive
// under a fresh stamp. Reports whether the state changed.
func (ms *membership) observeAlive(url string) bool {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	m, ok := ms.members[url]
	if !ok || m.state == stateLeft {
		return false
	}
	m.fails = 0
	if m.state == stateAlive {
		return false
	}
	ms.epoch++
	m.state, m.stamp = stateAlive, ms.epoch
	return true
}

// observeFailure records a failed probe and walks the member down the
// alive → suspect → dead ladder at the configured failure counts.
// Reports whether the state changed and the state after the observation.
func (ms *membership) observeFailure(url string) (changed bool, after memberState) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	m, ok := ms.members[url]
	if !ok || m.state == stateLeft {
		return false, stateLeft
	}
	m.fails++
	want := m.state
	switch {
	case m.fails >= ms.deadAfter:
		want = stateDead
	case m.fails >= ms.suspectAfter && m.state == stateAlive:
		want = stateSuspect
	}
	if want == m.state {
		return false, m.state
	}
	ms.epoch++
	m.state, m.stamp = want, ms.epoch
	return true, want
}

// join admits (or revives) a member under a fresh stamp. Reports whether
// the view changed; joining an already-alive member is idempotent.
func (ms *membership) join(url string) bool {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	m, ok := ms.members[url]
	if ok && m.state == stateAlive {
		return false
	}
	ms.epoch++
	if !ok {
		m = &member{url: url}
		ms.members[url] = m
	}
	m.state, m.stamp, m.fails = stateAlive, ms.epoch, 0
	return true
}

// leave writes a member's administrative tombstone. Unknown members are
// an error (a typoed URL must not silently create a tombstone).
func (ms *membership) leave(url string) (changed bool, err error) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	m, ok := ms.members[url]
	if !ok {
		return false, fmt.Errorf("service: %q is not a cluster member", url)
	}
	if m.state == stateLeft {
		return false, nil
	}
	ms.epoch++
	m.state, m.stamp = stateLeft, ms.epoch
	return true, nil
}

// merge folds a gossiped view into the local one: per member, the higher
// stamp wins; the epoch ratchets to the maximum stamp seen. A rumor of
// our own death (or departure) is refuted by re-stamping self alive
// above it — the refutation then wins every future merge. Reports
// whether any member's state or the member set changed.
func (ms *membership) merge(v View) bool {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	changed := false
	if v.Epoch > ms.epoch {
		ms.epoch = v.Epoch
	}
	for _, r := range v.Members {
		st, err := parseMemberState(r.State)
		if err != nil || r.URL == "" {
			continue // a malformed record must not poison the view
		}
		if r.Stamp > ms.epoch {
			ms.epoch = r.Stamp
		}
		m, ok := ms.members[r.URL]
		if !ok {
			ms.members[r.URL] = &member{url: r.URL, state: st, stamp: r.Stamp}
			changed = true
			continue
		}
		if r.Stamp <= m.stamp {
			continue
		}
		if m.state != st {
			changed = true
		}
		m.state, m.stamp = st, r.Stamp
		if st == stateAlive {
			m.fails = 0
		}
	}
	if self, ok := ms.members[ms.self]; ok && self.state != stateAlive {
		ms.epoch++
		self.state, self.stamp, self.fails = stateAlive, ms.epoch, 0
		changed = true
	}
	return changed
}

// counts tallies members per state for stats and metrics.
func (ms *membership) counts() (alive, suspect, dead, left int) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	for _, m := range ms.members {
		switch m.state {
		case stateAlive:
			alive++
		case stateSuspect:
			suspect++
		case stateDead:
			dead++
		case stateLeft:
			left++
		}
	}
	return alive, suspect, dead, left
}

// probeLoop is the membership heartbeat: every ProbeInterval it probes
// all non-left members, re-replicates owned keys when the view changed,
// and retries replica pushes that did not fully land. It runs in its own
// goroutine from New and stops when stop closes (Shutdown).
func (s *Server) probeLoop(stop <-chan struct{}) {
	t := time.NewTicker(s.cluster.probeInterval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		if s.probeOnce() {
			s.onViewChange()
		}
		s.retryPendingReplicas()
	}
}

// probeOnce probes every probe target concurrently, folds the answers
// into the view, and reports whether the view changed. A dead peer costs
// one OpTimeout per round, not one per request.
func (s *Server) probeOnce() bool {
	cl := s.cluster
	targets := cl.ms.probeTargets()
	changed := make([]bool, len(targets))
	var wg sync.WaitGroup
	for i, peer := range targets {
		wg.Add(1)
		go func(i int, peer string) {
			defer wg.Done()
			v, err := cl.getView(peer)
			if err != nil {
				ch, _ := cl.ms.observeFailure(peer)
				changed[i] = ch
				return
			}
			ch := cl.ms.observeAlive(peer)
			if cl.ms.merge(v) {
				ch = true
			}
			changed[i] = ch
		}(i, peer)
	}
	wg.Wait()
	for _, ch := range changed {
		if ch {
			return true
		}
	}
	return false
}

// ClusterView answers GET /v1/cluster/view; ok is false outside a
// cluster.
func (s *Server) ClusterView() (View, bool) {
	if s.cluster == nil {
		return View{}, false
	}
	return s.cluster.ms.snapshot(), true
}

// MergeView folds a pushed view (POST /v1/cluster/view) into the local
// one, re-replicating owned keys when the view changed, and answers the
// merged view.
func (s *Server) MergeView(v View) (View, bool) {
	if s.cluster == nil {
		return View{}, false
	}
	if s.cluster.ms.merge(v) {
		s.onViewChange()
	}
	return s.cluster.ms.snapshot(), true
}

// HandleJoin admits a member (POST /v1/cluster/join) and answers the
// updated view. The joiner's URL must be absolute — it is what every
// member will dial.
func (s *Server) HandleJoin(raw string) (View, error) {
	cl := s.cluster
	if cl == nil {
		return View{}, errors.New("service: this daemon is not a cluster member")
	}
	u, err := url.Parse(raw)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return View{}, fmt.Errorf("service: join URL %q is not an absolute base URL", raw)
	}
	changed := cl.ms.join(raw)
	v := cl.ms.snapshot()
	if changed {
		cl.joins.Add(1)
		s.onViewChange()
		s.broadcastView(v, raw)
	}
	return v, nil
}

// HandleLeave tombstones a member (POST /v1/cluster/leave) and answers
// the updated view. Leaving self is allowed: the daemon keeps serving
// what it holds, but stops being routed to — the administrative drain.
func (s *Server) HandleLeave(raw string) (View, error) {
	cl := s.cluster
	if cl == nil {
		return View{}, errors.New("service: this daemon is not a cluster member")
	}
	changed, err := cl.ms.leave(raw)
	if err != nil {
		return View{}, err
	}
	v := cl.ms.snapshot()
	if changed {
		cl.leaves.Add(1)
		s.onViewChange()
		s.broadcastView(v, "")
	}
	return v, nil
}

// broadcastView pushes a fresh view to every routable peer so a join or
// leave propagates now instead of at the next probe round. Best-effort
// and asynchronous: an unreachable peer just converges via gossip later,
// but the failure still feeds its breaker.
func (s *Server) broadcastView(v View, skip string) {
	cl := s.cluster
	for _, peer := range cl.ms.routable() {
		if peer == cl.self || peer == skip {
			continue
		}
		go func(peer string) {
			if _, err := cl.postView(peer, v); err != nil {
				cl.peerDown(peer)
				return
			}
			cl.peerUp(peer)
		}(peer)
	}
}

// JoinCluster dials a seed member and merges its view, making this
// daemon a member of an existing cluster (pilutd -join). Retries briefly
// so daemons started together don't race each other's listeners.
func (s *Server) JoinCluster(seed string) error {
	cl := s.cluster
	if cl == nil {
		return errors.New("service: this daemon is not a cluster member")
	}
	var lastErr error
	for attempt := 0; attempt < joinAttempts; attempt++ {
		if attempt > 0 {
			time.Sleep(joinRetryDelay)
		}
		v, err := cl.postJoin(seed, cl.self)
		if err != nil {
			lastErr = err
			continue
		}
		if cl.ms.merge(v) {
			s.onViewChange()
		}
		return nil
	}
	return fmt.Errorf("service: joining cluster via %s: %w", seed, lastErr)
}

const (
	joinAttempts   = 5
	joinRetryDelay = 500 * time.Millisecond
)
