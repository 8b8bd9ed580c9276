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

var stateNames = [...]string{stateAlive: "alive", stateSuspect: "suspect", stateDead: "dead", stateLeft: "left"}

func (s memberState) String() string {
	if s >= 0 && int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("memberState(%d)", int(s))
}

func parseMemberState(name string) (memberState, error) {
	for s, n := range stateNames {
		if n == name {
			return memberState(s), nil
		}
	}
	return 0, fmt.Errorf("service: unknown member state %q", name)
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
	mu      sync.Mutex
	self    string
	epoch   uint64
	members map[string]*member
}

// The probe ladder: consecutive probe failures that demote a member.
const (
	suspectAfter = 1 // alive → suspect
	deadAfter    = 2 // → dead
)

func newMembership(self string, peers []string) *membership {
	ms := &membership{
		self:    self,
		epoch:   1,
		members: make(map[string]*member, len(peers)+1),
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
// alive → suspect → dead ladder at suspectAfter and deadAfter failures.
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
	case m.fails >= deadAfter:
		want = stateDead
	case m.fails >= suspectAfter && m.state == stateAlive:
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

// A gossiped stamp must leave room to count. Every state change stamps
// the epoch plus one, so a view stamped at the top of the uint64 range
// would wrap the refutation it provokes to 0, which then loses every
// merge. So merge takes a stamp or view epoch only up to 2^62, which one
// change at a time never reaches, or stampStep past its own epoch, so a
// peer holding a rumour near 2^62 still takes the refutation. A forged
// view lifts an epoch by at most stampStep: 3·2^42 of them fit above 2^62.
const (
	maxStamp  = 1 << 62
	stampStep = 1 << 20
)

// merge folds a gossiped view into the local one: per member, the higher
// stamp wins; the epoch ratchets to the maximum stamp seen. A rumor of
// our own death (or departure) is refuted by re-stamping self alive
// above it — the refutation then wins every future merge. A record with
// an unknown state, a URL a join refuses or a stamp without room to
// count is skipped. Reports whether any member's state or the member
// set changed.
func (ms *membership) merge(v View) bool {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	changed := false
	limit := max(maxStamp, ms.epoch+stampStep)
	if v.Epoch > ms.epoch && v.Epoch <= limit {
		ms.epoch = v.Epoch
	}
	for _, r := range v.Members {
		st, err := parseMemberState(r.State)
		if err != nil || checkMemberURL(r.URL) != nil || r.Stamp > limit {
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
			v, err := cl.callView(routeView, peer, nil)
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

// checkMemberURL admits a member's URL: it must be absolute, since every
// member will dial it.
func checkMemberURL(raw string) error {
	u, err := url.Parse(raw)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return fmt.Errorf("service: join URL %q is not an absolute base URL", raw)
	}
	return nil
}

// joinMember admits a member and answers the updated view.
func (s *Server) joinMember(raw string) (View, error) {
	cl := s.cluster
	if err := checkMemberURL(raw); err != nil {
		return View{}, err
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

// leaveMember tombstones a member and answers the updated view. Leaving
// self is allowed: the daemon keeps serving what it holds, but stops
// being routed to — the administrative drain.
func (s *Server) leaveMember(raw string) (View, error) {
	cl := s.cluster
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
			if _, err := cl.callView(routeViewPush, peer, v); err != nil {
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
		return errNotMember
	}
	var lastErr error
	for attempt := 0; attempt < joinAttempts; attempt++ {
		if attempt > 0 {
			time.Sleep(joinRetryDelay)
		}
		v, err := cl.callView(routeJoin, seed, memberRequest{URL: cl.self})
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
