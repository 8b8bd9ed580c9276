package service

// Tests for the gossip-lite membership layer, the HRW minimal-disruption
// property routing rests on, the bounded peer-fetch retry, and the
// replication/takeover path: owner builds, successor inherits, solves
// stay bitwise identical across the failover.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/matgen"
	"repro/internal/sparse"
)

func TestMembershipProbeLadder(t *testing.T) {
	ms := newMembership("a", []string{"a", "b", "c"}, 1, 3)
	e0 := ms.epoch

	// One failure: alive → suspect, still routable.
	if ch, after := ms.observeFailure("b"); !ch || after != stateSuspect {
		t.Fatalf("first failure: changed=%v state=%v, want true/suspect", ch, after)
	}
	if r := ms.routable(); len(r) != 3 {
		t.Fatalf("suspect member dropped from routing: %v", r)
	}
	// Second failure: suspect stays suspect (deadAfter=3), no change.
	if ch, after := ms.observeFailure("b"); ch || after != stateSuspect {
		t.Fatalf("second failure: changed=%v state=%v, want false/suspect", ch, after)
	}
	// Third failure: dead, out of routing, still probed for rejoin.
	if ch, after := ms.observeFailure("b"); !ch || after != stateDead {
		t.Fatalf("third failure: changed=%v state=%v, want true/dead", ch, after)
	}
	if r := ms.routable(); len(r) != 2 {
		t.Fatalf("dead member still routable: %v", r)
	}
	if pt := ms.probeTargets(); len(pt) != 2 {
		t.Fatalf("dead member must stay probed (rejoin path): targets %v", pt)
	}
	if ms.epoch <= e0 {
		t.Fatal("state changes did not advance the epoch")
	}

	// First answered probe: straight back to alive, failure streak reset.
	if !ms.observeAlive("b") {
		t.Fatal("revival did not report a view change")
	}
	if st, _ := ms.stateOf("b"); st != stateAlive {
		t.Fatalf("revived member is %v, want alive", st)
	}
	if ch, after := ms.observeFailure("b"); !ch || after != stateSuspect {
		t.Fatalf("failure streak not reset by revival: changed=%v state=%v", ch, after)
	}

	// Administrative leave: out of routing AND probing; unknown URL errors.
	if _, err := ms.leave("nobody"); err == nil {
		t.Error("leave of an unknown member did not error")
	}
	if ch, err := ms.leave("c"); !ch || err != nil {
		t.Fatalf("leave(c): changed=%v err=%v", ch, err)
	}
	if pt := ms.probeTargets(); len(pt) != 1 || pt[0] != "b" {
		t.Fatalf("left member still probed: targets %v", pt)
	}
	if ch, _ := ms.observeFailure("c"); ch {
		t.Error("probe observation mutated a left member")
	}
	// Re-join revives the tombstone.
	if !ms.join("c") {
		t.Fatal("re-join of a left member did not change the view")
	}
	if st, _ := ms.stateOf("c"); st != stateAlive {
		t.Fatalf("re-joined member is %v, want alive", st)
	}
	// Joining an already-alive member is idempotent.
	if ms.join("c") {
		t.Error("idempotent join reported a view change")
	}
}

func TestMembershipMergeLastWriterWins(t *testing.T) {
	ms := newMembership("a", []string{"a", "b", "c"}, 1, 2)

	// A higher-stamped record wins; a lower-stamped one is ignored.
	changed := ms.merge(View{Epoch: 9, Members: []MemberRecord{
		{URL: "b", State: "dead", Stamp: 9},
		{URL: "c", State: "suspect", Stamp: 0}, // stale: local stamp is 1
		{URL: "d", State: "alive", Stamp: 5},   // new member
		{URL: "", State: "alive", Stamp: 99},   // malformed: no URL
		{URL: "e", State: "zombie", Stamp: 99}, // malformed: unknown state
	}})
	if !changed {
		t.Fatal("merge with new information reported no change")
	}
	if st, _ := ms.stateOf("b"); st != stateDead {
		t.Errorf("higher-stamped death did not win: b is %v", st)
	}
	if st, _ := ms.stateOf("c"); st != stateAlive {
		t.Errorf("stale record overwrote c: %v", st)
	}
	if st, ok := ms.stateOf("d"); !ok || st != stateAlive {
		t.Errorf("new member not admitted by merge: %v %v", st, ok)
	}
	if _, ok := ms.stateOf("e"); ok {
		t.Error("malformed record created a member")
	}
	if ms.epochNow() < 9 {
		t.Errorf("epoch %d did not ratchet to the merged view's 9", ms.epochNow())
	}

	// Merging the same view again is a no-op (stamps are not >).
	if ms.merge(View{Epoch: 9, Members: []MemberRecord{{URL: "b", State: "dead", Stamp: 9}}}) {
		t.Error("idempotent re-merge reported a change")
	}

	// Self-refutation: a rumor of our own death is refuted under a fresh
	// stamp above the rumor's, so the refutation wins every future merge.
	if !ms.merge(View{Epoch: 30, Members: []MemberRecord{{URL: "a", State: "dead", Stamp: 30}}}) {
		t.Fatal("self-death rumor reported no change")
	}
	if st, _ := ms.stateOf("a"); st != stateAlive {
		t.Fatalf("self was not refuted back to alive: %v", st)
	}
	v := ms.snapshot()
	if v.Epoch <= 30 {
		t.Errorf("refutation stamp %d does not exceed the rumor's 30", v.Epoch)
	}
	for _, m := range v.Members {
		if m.URL == "a" && m.Stamp <= 30 {
			t.Errorf("self record stamp %d would lose the next merge against the rumor", m.Stamp)
		}
	}
}

// TestHRWMinimalDisruption pins the property failover rests on: removing
// one member from the view remaps ONLY the keys that member owned —
// every surviving owner keeps every key it had. Checked across cluster
// sizes, both by shrinking the configured peer list and by marking the
// member dead through the probe ladder (the two must agree).
func TestHRWMinimalDisruption(t *testing.T) {
	const keys = 300
	for _, n := range []int{2, 3, 5, 8} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			peers := make([]string, n)
			for i := range peers {
				peers[i] = fmt.Sprintf("http://node-%d:8417", i)
			}
			mk := func(list []string) *cluster {
				return newCluster(&ClusterConfig{Self: list[0], Peers: list, OpTimeout: time.Second}, 3, time.Second)
			}
			full := mk(peers)
			before := make(map[string]string, keys)
			for i := 0; i < keys; i++ {
				k := fmt.Sprintf("sha256:%08d", i)
				before[k] = full.owner(k)
			}

			// Remove the last peer (never Self) two ways.
			removed := peers[n-1]
			shrunk := mk(peers[:n-1])
			probed := mk(peers)
			for f := 0; f < 2; f++ { // default deadAfter = 2
				probed.ms.observeFailure(removed)
			}

			moved := 0
			for k, own := range before {
				so, po := shrunk.owner(k), probed.owner(k)
				if so != po {
					t.Fatalf("key %s: shrunk list says %s, dead member says %s", k, so, po)
				}
				if own == removed {
					moved++
					if so == removed {
						t.Fatalf("key %s still maps to the removed member", k)
					}
					continue
				}
				if so != own {
					t.Fatalf("key %s moved %s → %s although its owner survived", k, own, so)
				}
			}
			if moved == 0 {
				t.Fatal("removed member owned no keys; test has no teeth")
			}
			// Sanity: the removed member's share is roughly 1/n, not the
			// whole space (a degenerate hash would shuffle everything).
			if moved > 3*keys/n {
				t.Errorf("removed member owned %d/%d keys — far above the ~1/%d fair share", moved, keys, n)
			}
		})
	}
}

func TestTransientFetchErrClassification(t *testing.T) {
	status := func(code int) error { return &peerStatusError{peer: "p", op: "t", code: code} }
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"clean miss", errPeerMiss, false},
		{"wrapped miss", fmt.Errorf("fetch: %w", errPeerMiss), false},
		{"429 overload", status(429), true},
		{"500", status(500), true},
		{"503", status(503), true},
		{"wrapped 503", fmt.Errorf("fetch: %w", status(503)), true},
		{"403 auth", status(403), false},
		{"400 bad request", status(400), false},
		{"422 mismatch", status(422), false},
		{"transport", errors.New("dial tcp: connection refused"), true},
	}
	for _, tc := range cases {
		if got := transientFetchErr(tc.err); got != tc.want {
			t.Errorf("%s: transient=%v, want %v", tc.name, got, tc.want)
		}
	}
}

// retryCluster builds a bare cluster whose only peer is ts, for driving
// getFactorRetry directly.
func retryCluster(ts *httptest.Server) *cluster {
	return newCluster(&ClusterConfig{
		Self:      "http://self.invalid",
		Peers:     []string{"http://self.invalid", ts.URL},
		OpTimeout: 5 * time.Second,
	}, 3, time.Minute)
}

func TestGetFactorRetryOnceOnTransient(t *testing.T) {
	hits := 0
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits++
		if hits == 1 {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte("factor-bytes"))
	}))
	defer ts.Close()
	cl := retryCluster(ts)
	data, err := cl.getFactorRetry(ts.URL, "k")
	if err != nil || string(data) != "factor-bytes" {
		t.Fatalf("retry did not recover: %q, %v", data, err)
	}
	if hits != 2 {
		t.Errorf("server saw %d requests, want 2 (original + one retry)", hits)
	}
	if got := cl.fetchRetries.Load(); got != 1 {
		t.Errorf("fetchRetries = %d, want 1", got)
	}
}

func TestGetFactorRetryBounded(t *testing.T) {
	hits := 0
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits++
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer ts.Close()
	cl := retryCluster(ts)
	_, err := cl.getFactorRetry(ts.URL, "k")
	var se *peerStatusError
	if !errors.As(err, &se) || se.code != http.StatusServiceUnavailable {
		t.Fatalf("error %v, want 503 peerStatusError", err)
	}
	if hits != 2 {
		t.Errorf("server saw %d requests, want exactly 2 (one bounded retry)", hits)
	}
}

func TestGetFactorRetrySkipsPermanentAndMiss(t *testing.T) {
	for _, tc := range []struct {
		name string
		code int
	}{{"auth rejection", http.StatusForbidden}, {"clean miss", http.StatusNotFound}} {
		t.Run(tc.name, func(t *testing.T) {
			hits := 0
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				hits++
				w.WriteHeader(tc.code)
			}))
			defer ts.Close()
			cl := retryCluster(ts)
			if _, err := cl.getFactorRetry(ts.URL, "k"); err == nil {
				t.Fatal("no error surfaced")
			}
			if hits != 1 {
				t.Errorf("server saw %d requests, want 1 (no retry)", hits)
			}
			if got := cl.fetchRetries.Load(); got != 0 {
				t.Errorf("fetchRetries = %d, want 0", got)
			}
		})
	}
}

func TestPeerAuthToken(t *testing.T) {
	srv := New(Config{Procs: 2, Workers: 1, Backend: "real", Cluster: &ClusterConfig{
		Self: "http://a", Peers: []string{"http://a"}, Token: "s3cret",
		ProbeInterval: -1, Replicas: -1,
	}})
	defer srv.Shutdown(context.Background())
	if !srv.PeerAuthOK("s3cret") {
		t.Error("correct token rejected")
	}
	if srv.PeerAuthOK("") || srv.PeerAuthOK("wrong") {
		t.Error("bad token accepted")
	}
	if got := srv.cluster.snapshot().RejectedPeerReqs; got != 2 {
		t.Errorf("rejected counter = %d, want 2", got)
	}

	open := New(Config{Procs: 2, Workers: 1, Backend: "real", Cluster: &ClusterConfig{
		Self: "http://a", Peers: []string{"http://a"},
		ProbeInterval: -1, Replicas: -1,
	}})
	defer open.Shutdown(context.Background())
	if !open.PeerAuthOK("") || !open.PeerAuthOK("anything") {
		t.Error("tokenless cluster rejected a request")
	}
	// Outgoing requests carry the header when configured.
	req, _ := http.NewRequest(http.MethodGet, "http://a/x", nil)
	srv.cluster.authorize(req)
	if req.Header.Get(ClusterTokenHeader) != "s3cret" {
		t.Error("authorize did not attach the configured token")
	}
}

// memberHandler is peerHandler plus the membership/replication surface —
// the subset of pilutd the dynamic-cluster service layer talks to.
func memberHandler(get func() *Server) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(get().Health())
	})
	mux.HandleFunc("GET /v1/peer/factor/{key}", func(w http.ResponseWriter, r *http.Request) {
		data, err := get().ExportFactor(r.PathValue("key"))
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		w.Write(data)
	})
	mux.HandleFunc("POST /v1/peer/matrix", func(w http.ResponseWriter, r *http.Request) {
		if _, _, err := get().ImportMatrix(r.Body); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
		}
	})
	mux.HandleFunc("POST /v1/peer/replica/{key}", func(w http.ResponseWriter, r *http.Request) {
		known, err := get().ImportReplica(r.PathValue("key"), r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusUnprocessableEntity)
			return
		}
		json.NewEncoder(w).Encode(map[string]bool{"known": known})
	})
	mux.HandleFunc("GET /v1/cluster/view", func(w http.ResponseWriter, r *http.Request) {
		v, ok := get().ClusterView()
		if !ok {
			http.Error(w, "not a member", http.StatusNotFound)
			return
		}
		json.NewEncoder(w).Encode(v)
	})
	mux.HandleFunc("POST /v1/cluster/view", func(w http.ResponseWriter, r *http.Request) {
		var v View
		if err := json.NewDecoder(r.Body).Decode(&v); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		merged, ok := get().MergeView(v)
		if !ok {
			http.Error(w, "not a member", http.StatusNotFound)
			return
		}
		json.NewEncoder(w).Encode(merged)
	})
	mux.HandleFunc("POST /v1/cluster/join", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			URL string `json:"url"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		v, err := get().HandleJoin(req.URL)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		json.NewEncoder(w).Encode(v)
	})
	return mux
}

// clusterTrio builds three servers joined into one cluster with
// replication enabled and probing under manual control.
func clusterTrio(t *testing.T) (srvs [3]*Server, tss [3]*httptest.Server, shutdown func()) {
	t.Helper()
	var s [3]*Server
	for i := range tss {
		i := i
		tss[i] = httptest.NewServer(memberHandler(func() *Server { return s[i] }))
	}
	peers := []string{tss[0].URL, tss[1].URL, tss[2].URL}
	for i := range s {
		s[i] = New(Config{Procs: 2, Workers: 1, Backend: "real", Cluster: &ClusterConfig{
			Self: peers[i], Peers: peers, OpTimeout: 5 * time.Second,
			Replicas: 1, ProbeInterval: -1,
		}})
	}
	return s, tss, func() {
		for _, ts := range tss {
			ts.Close()
		}
		for _, srv := range s {
			srv.Shutdown(context.Background())
		}
	}
}

// TestReplicationAndTakeover is the service-layer failover contract: the
// owner's freshly built factor lands on its HRW successor proactively;
// when the owner dies the successor claims the key and answers from the
// replica — bitwise identical, zero local factorizations — and a third
// daemon's in-flight-style fetch walks past the dead owner to the new
// one.
func TestReplicationAndTakeover(t *testing.T) {
	srvs, tss, shutdown := clusterTrio(t)
	defer shutdown()

	a := matgen.Grid2D(12, 12)
	key := sparse.Fingerprint(a)
	ranked := srvs[0].cluster.ranked(key)
	byURL := map[string]int{}
	for i, srv := range srvs {
		byURL[srv.cluster.self] = i
	}
	owner := srvs[byURL[ranked[0]]]
	successor := srvs[byURL[ranked[1]]]
	third := srvs[byURL[ranked[2]]]

	b := make([]float64, a.N)
	for i := range b {
		b[i] = float64(i%5) - 2
	}
	if _, _, err := owner.Submit(a); err != nil {
		t.Fatal(err)
	}
	want, err := owner.Solve(context.Background(), key, b, SolveOptions{Tol: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	if !want.Converged {
		t.Fatal("baseline solve did not converge")
	}

	// The proactive push runs off the request path; wait for it to land
	// and for the owner to have counted it, which it does only after the
	// successor has answered.
	deadline := time.Now().Add(10 * time.Second)
	for successor.cluster.snapshot().ReplicaImports == 0 || owner.cluster.snapshot().ReplicasPushed == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("replica never reached the successor: owner=%+v successor=%+v",
				owner.cluster.snapshot(), successor.cluster.snapshot())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := owner.cluster.snapshot().ReplicasPushed; got != 1 {
		t.Errorf("owner pushed %d replicas, want 1 (R=1)", got)
	}

	// Kill the owner's listener. The third daemon still believes the dead
	// owner is routable; its fetch walk must absorb the failure (with the
	// bounded transient retry) and land on the replica-holding successor.
	tss[byURL[ranked[0]]].Close()
	if _, _, err := third.Submit(a); err != nil {
		t.Fatal(err)
	}
	got3, err := third.Solve(context.Background(), key, b, SolveOptions{Tol: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	if !bitsEqual(want.X, got3.X) {
		t.Error("third daemon's solve differs bitwise")
	}
	ts3 := third.cluster.snapshot()
	if ts3.PeerFetchHits != 1 {
		t.Errorf("third daemon fetch hits = %d, want 1 (served by the replica holder)", ts3.PeerFetchHits)
	}
	if ts3.PeerFetchFailures == 0 || ts3.PeerFetchRetries == 0 {
		t.Errorf("third daemon's walk past the dead owner recorded no failure/retry: %+v", ts3)
	}
	if f := third.StatsSnapshot().Cache.Factorizations; f != 0 {
		t.Errorf("third daemon built %d factorizations instead of fetching", f)
	}

	// Walk the owner to dead on the successor (deadAfter defaults to 2);
	// the view change must claim the key and re-replicate it onward.
	for f := 0; f < 2; f++ {
		successor.cluster.ms.observeFailure(ranked[0])
	}
	successor.onViewChange()
	if successor.cluster.owner(key) != successor.cluster.self {
		t.Fatal("successor did not inherit ownership after the owner died")
	}
	ss := successor.cluster.snapshot()
	if ss.TakeoverKeys != 1 {
		t.Errorf("takeover_keys = %d, want 1", ss.TakeoverKeys)
	}
	if ss.ReplicasPushed == 0 {
		t.Errorf("view change did not re-replicate the claimed key: %+v", ss)
	}

	// Solve on the new owner: answered from the replica, not rebuilt.
	if _, _, err := successor.Submit(a); err != nil {
		t.Fatal(err)
	}
	got, err := successor.Solve(context.Background(), key, b, SolveOptions{Tol: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	if !bitsEqual(want.X, got.X) || want.Iterations != got.Iterations {
		t.Error("post-takeover solve differs from the pre-kill owner's answer")
	}
	if f := successor.StatsSnapshot().Cache.Factorizations; f != 0 {
		t.Errorf("successor built %d factorizations; the replica should have served", f)
	}
}

// TestProbeWalksPeerToDead drives probeOnce manually: a closed listener
// walks alive → suspect → dead in two rounds, the view epoch advances,
// and /healthz-style aggregation reports the membership verdict.
func TestProbeWalksPeerToDead(t *testing.T) {
	srvs, tss, shutdown := clusterTrio(t)
	defer shutdown()

	if srvs[0].probeOnce() {
		t.Fatal("probe round over a healthy cluster changed the view")
	}
	e0 := srvs[0].cluster.ms.epochNow()
	tss[2].Close()
	victim := srvs[2].cluster.self

	if !srvs[0].probeOnce() {
		t.Fatal("first failed probe round reported no change")
	}
	if st, _ := srvs[0].cluster.ms.stateOf(victim); st != stateSuspect {
		t.Fatalf("after one failed round: %v, want suspect", st)
	}
	if !srvs[0].probeOnce() {
		t.Fatal("second failed probe round reported no change")
	}
	if st, _ := srvs[0].cluster.ms.stateOf(victim); st != stateDead {
		t.Fatalf("after two failed rounds: %v, want dead", st)
	}
	if e := srvs[0].cluster.ms.epochNow(); e <= e0 {
		t.Errorf("epoch %d did not advance across state changes (was %d)", e, e0)
	}

	h := srvs[0].ClusterHealthCheck()
	if h.Status != "degraded" {
		t.Errorf("cluster health %q, want degraded", h.Status)
	}
	var row *PeerHealth
	for i := range h.Cluster {
		if h.Cluster[i].URL == victim {
			row = &h.Cluster[i]
		}
	}
	if row == nil || row.State != "dead" {
		t.Errorf("health row for the dead peer: %+v, want state dead", row)
	}
}

// TestJoinPropagatesMembership covers the runtime join path end to end
// at the service layer: a fourth daemon joins via a seed, the seed
// admits and broadcasts, and every member converges on a 4-member view.
func TestJoinPropagatesMembership(t *testing.T) {
	srvs, _, shutdown := clusterTrio(t)
	defer shutdown()

	var joiner *Server
	ts := httptest.NewServer(memberHandler(func() *Server { return joiner }))
	defer ts.Close()
	joiner = New(Config{Procs: 2, Workers: 1, Backend: "real", Cluster: &ClusterConfig{
		Self: ts.URL, OpTimeout: 5 * time.Second, Replicas: 1, ProbeInterval: -1,
	}})
	defer joiner.Shutdown(context.Background())

	if err := joiner.JoinCluster(srvs[0].cluster.self); err != nil {
		t.Fatalf("JoinCluster: %v", err)
	}
	if got := len(joiner.cluster.ms.routable()); got != 4 {
		t.Fatalf("joiner sees %d routable members, want 4", got)
	}
	if got := srvs[0].cluster.snapshot().Joins; got != 1 {
		t.Errorf("seed join counter = %d, want 1", got)
	}
	// The seed broadcast the new view; the other members converge without
	// waiting for a probe round.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if len(srvs[1].cluster.ms.routable()) == 4 && len(srvs[2].cluster.ms.routable()) == 4 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("broadcast did not converge: %v / %v",
				srvs[1].cluster.ms.routable(), srvs[2].cluster.ms.routable())
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Leave tombstones the joiner everywhere and stops routing to it.
	if _, err := srvs[0].HandleLeave(ts.URL); err != nil {
		t.Fatalf("HandleLeave: %v", err)
	}
	if got := len(srvs[0].cluster.ms.routable()); got != 3 {
		t.Errorf("after leave the seed routes to %d members, want 3", got)
	}
	if got := srvs[0].cluster.snapshot().Leaves; got != 1 {
		t.Errorf("seed leave counter = %d, want 1", got)
	}
	if _, err := srvs[0].HandleLeave("http://never-joined.invalid"); err == nil ||
		!strings.Contains(err.Error(), "not a cluster member") {
		t.Errorf("leave of a non-member: err %v, want not-a-member error", err)
	}
}

// TestPendingReplicaRetry is the stable-view redundancy contract: a
// replica push that fails (peer up but rejecting) marks the key pending,
// the probe-loop retry keeps re-pushing while the failure lasts, and the
// first clean push delivers the factor and clears the backlog. Stale
// pending keys (evicted from the cache) are dropped without a push.
func TestPendingReplicaRetry(t *testing.T) {
	var s [2]*Server
	var failReplica atomic.Bool
	var tss [2]*httptest.Server
	for i := range tss {
		i := i
		inner := memberHandler(func() *Server { return s[i] })
		tss[i] = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if failReplica.Load() && strings.HasPrefix(r.URL.Path, "/v1/peer/replica/") {
				http.Error(w, "synthetic push failure", http.StatusInternalServerError)
				return
			}
			inner.ServeHTTP(w, r)
		}))
	}
	peers := []string{tss[0].URL, tss[1].URL}
	for i := range s {
		s[i] = New(Config{Procs: 2, Workers: 1, Backend: "real", Cluster: &ClusterConfig{
			Self: peers[i], Peers: peers, OpTimeout: 5 * time.Second,
			Replicas: 1, ProbeInterval: -1,
		}})
	}
	defer func() {
		for _, ts := range tss {
			ts.Close()
		}
		for _, srv := range s {
			srv.Shutdown(context.Background())
		}
	}()

	a := matgen.Grid2D(12, 12)
	key := sparse.Fingerprint(a)
	owner, other := s[0], s[1]
	if owner.cluster.owner(key) != owner.cluster.self {
		owner, other = other, owner
	}
	pendingHas := func(srv *Server, k string) bool {
		srv.cluster.mu.Lock()
		defer srv.cluster.mu.Unlock()
		return srv.cluster.pending[k]
	}

	failReplica.Store(true)
	if _, _, err := owner.Submit(a); err != nil {
		t.Fatal(err)
	}
	b := make([]float64, a.N)
	for i := range b {
		b[i] = 1
	}
	if _, err := owner.Solve(context.Background(), key, b, SolveOptions{Tol: 1e-8}); err != nil {
		t.Fatal(err)
	}
	// The push runs off the request path; wait for its failure to land.
	deadline := time.Now().Add(10 * time.Second)
	for owner.cluster.snapshot().ReplicaPushFails == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("rejected push never recorded: %+v", owner.cluster.snapshot())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !pendingHas(owner, key) {
		t.Fatal("failed push did not mark the key pending")
	}

	// A retry while the peer still rejects keeps the key pending.
	owner.retryPendingReplicas()
	if !pendingHas(owner, key) {
		t.Error("key left the pending set while the peer still rejects pushes")
	}
	if got := owner.cluster.snapshot().ReplicaPushFails; got < 2 {
		t.Errorf("push failures = %d, want >= 2 after one retry", got)
	}
	if got := other.cluster.snapshot().ReplicaImports; got != 0 {
		t.Fatalf("peer imported %d replicas while rejecting pushes", got)
	}

	// First clean retry delivers and clears the backlog.
	failReplica.Store(false)
	owner.retryPendingReplicas()
	if pendingHas(owner, key) {
		t.Error("delivered key still pending")
	}
	if got := owner.cluster.snapshot().ReplicasPushed; got != 1 {
		t.Errorf("replicas pushed = %d, want 1", got)
	}
	if got := other.cluster.snapshot().ReplicaImports; got != 1 {
		t.Errorf("peer replica imports = %d, want 1", got)
	}

	// A pending key no longer in the cache is dropped, not pushed.
	owner.cluster.mu.Lock()
	owner.cluster.pending["not-a-cached-key"] = true
	owner.cluster.mu.Unlock()
	owner.retryPendingReplicas()
	if pendingHas(owner, "not-a-cached-key") {
		t.Error("evicted key was not dropped from the pending set")
	}
	if got := owner.cluster.snapshot().ReplicasPushed; got != 1 {
		t.Errorf("stale pending key triggered a push: pushed = %d, want 1", got)
	}
}
