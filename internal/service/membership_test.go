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
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/matgen"
	"repro/internal/sparse"
)

func TestMembershipProbeLadder(t *testing.T) {
	ms := newMembership("a", []string{"a", "b", "c"})
	e0 := ms.epoch

	// One failure: alive → suspect, still routable.
	if ch, after := ms.observeFailure("b"); !ch || after != stateSuspect {
		t.Fatalf("first failure: changed=%v state=%v, want true/suspect", ch, after)
	}
	if r := ms.routable(); len(r) != 3 {
		t.Fatalf("suspect member dropped from routing: %v", r)
	}
	// Second failure: dead, out of routing, still probed for rejoin.
	if ch, after := ms.observeFailure("b"); !ch || after != stateDead {
		t.Fatalf("second failure: changed=%v state=%v, want true/dead", ch, after)
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
	// Merge admits only the absolute URLs a join admits.
	ms := newMembership("http://a", []string{"http://a", "http://b", "http://c"})

	// A higher-stamped record wins; a lower-stamped one is ignored.
	changed := ms.merge(View{Epoch: 9, Members: []MemberRecord{
		{URL: "http://b", State: "dead", Stamp: 9},
		{URL: "http://c", State: "suspect", Stamp: 0}, // stale: local stamp is 1
		{URL: "http://d", State: "alive", Stamp: 5},   // new member
		{URL: "", State: "alive", Stamp: 99},          // malformed: no URL
		{URL: "http://e", State: "zombie", Stamp: 99}, // malformed: unknown state
	}})
	if !changed {
		t.Fatal("merge with new information reported no change")
	}
	if st, _ := ms.stateOf("http://b"); st != stateDead {
		t.Errorf("higher-stamped death did not win: b is %v", st)
	}
	if st, _ := ms.stateOf("http://c"); st != stateAlive {
		t.Errorf("stale record overwrote c: %v", st)
	}
	if st, ok := ms.stateOf("http://d"); !ok || st != stateAlive {
		t.Errorf("new member not admitted by merge: %v %v", st, ok)
	}
	if _, ok := ms.stateOf("http://e"); ok {
		t.Error("malformed record created a member")
	}
	if ms.epochNow() < 9 {
		t.Errorf("epoch %d did not ratchet to the merged view's 9", ms.epochNow())
	}

	// Merging the same view again is a no-op (stamps are not >).
	if ms.merge(View{Epoch: 9, Members: []MemberRecord{{URL: "http://b", State: "dead", Stamp: 9}}}) {
		t.Error("idempotent re-merge reported a change")
	}

	// Self-refutation: a rumor of our own death is refuted under a fresh
	// stamp above the rumor's, so the refutation wins every future merge.
	if !ms.merge(View{Epoch: 30, Members: []MemberRecord{{URL: "http://a", State: "dead", Stamp: 30}}}) {
		t.Fatal("self-death rumor reported no change")
	}
	if st, _ := ms.stateOf("http://a"); st != stateAlive {
		t.Fatalf("self was not refuted back to alive: %v", st)
	}
	v := ms.snapshot()
	if v.Epoch <= 30 {
		t.Errorf("refutation stamp %d does not exceed the rumor's 30", v.Epoch)
	}
	for _, m := range v.Members {
		if m.URL == "http://a" && m.Stamp <= 30 {
			t.Errorf("self record stamp %d would lose the next merge against the rumor", m.Stamp)
		}
	}
}

// TestMergeRefusesStampWithoutRoom: a view stamping a daemon dead at the
// top of the uint64 range is refused whole, so the daemon's refutation
// does not wrap its epoch to 0 and a peer holding the same rumour keeps
// routing to it. A rumour at the 2^62 ceiling is taken, and the
// refutation above the ceiling still reaches that peer.
func TestMergeRefusesStampWithoutRoom(t *testing.T) {
	for _, stamp := range []uint64{math.MaxUint64, 1 << 62} {
		peers := []string{"http://a", "http://b"}
		a, b := newMembership(peers[0], peers), newMembership(peers[1], peers)
		rumour := View{Epoch: stamp, Members: []MemberRecord{{URL: peers[0], State: "dead", Stamp: stamp}}}
		a.merge(rumour)
		b.merge(rumour)
		if e := a.epochNow(); e == 0 {
			t.Errorf("stamp %d: the refutation wrapped daemon a's epoch to 0", stamp)
		}
		b.merge(a.snapshot())
		if r := b.routable(); !slices.Contains(r, peers[0]) {
			t.Errorf("stamp %d: peer b routes only %v after a's refutation", stamp, r)
		}
	}
}

// TestMergeRefusesMalformedMember: a gossiped member whose URL a join
// would refuse is not admitted, so HRW never routes a key to it.
func TestMergeRefusesMalformedMember(t *testing.T) {
	ms := newMembership("http://a", []string{"http://a", "http://b"})
	ms.merge(View{Epoch: 5, Members: []MemberRecord{{URL: "not a url", State: "alive", Stamp: 5}}})
	if _, ok := ms.stateOf("not a url"); ok {
		t.Errorf("merge admitted a member a join refuses; routable: %v", ms.routable())
	}
}

// FuzzViewBody decodes each input as the view push's body is decoded
// (serveView) and merges it into daemon a's membership, then hands a's
// view to peer b, which merged the same input. No input may panic, leave
// a other than alive and routable, lower a's epoch, make a member
// routable that a join refuses, or keep b from taking a's refutation.
func FuzzViewBody(f *testing.F) {
	f.Add(`{"epoch":18446744073709551615,"members":[{"url":"http://a","state":"dead","stamp":18446744073709551615}]}`)
	f.Add(`{"epoch":5,"members":[{"url":"not a url","state":"alive","stamp":5}]}`)
	f.Add(`{"epoch":9,"members":[{"url":"http://b","state":"dead","stamp":9},{"url":"http://c","state":"alive","stamp":3}]}`)
	f.Fuzz(func(t *testing.T, body string) {
		var v View
		if err := json.NewDecoder(strings.NewReader(body)).Decode(&v); err != nil {
			return
		}
		peers := []string{"http://a", "http://b"}
		a, b := newMembership(peers[0], peers), newMembership(peers[1], peers)
		before := a.epochNow()
		a.merge(v)
		if st, _ := a.stateOf(peers[0]); st != stateAlive {
			t.Fatalf("self is %v after merging %q", st, body)
		}
		if after := a.epochNow(); after < before {
			t.Fatalf("epoch went down from %d to %d merging %q", before, after, body)
		}
		for _, m := range a.routable() {
			if err := checkMemberURL(m); err != nil {
				t.Fatalf("routable member %q fails the join check: %v", m, err)
			}
		}
		b.merge(v)
		b.merge(a.snapshot())
		if !slices.Contains(b.routable(), peers[0]) {
			t.Fatalf("peer b does not route to a after a refuted %q", body)
		}
	})
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
				return newCluster(&ClusterConfig{Self: list[0], Peers: list, OpTimeout: time.Second})
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
			for f := 0; f < 2; f++ { // deadAfter = 2
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
	})
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
	if !srv.peerAuthOK("s3cret") {
		t.Error("correct token rejected")
	}
	if srv.peerAuthOK("") || srv.peerAuthOK("wrong") {
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
	if !open.peerAuthOK("") || !open.peerAuthOK("anything") {
		t.Error("tokenless cluster rejected a request")
	}
}

// TestPeerRoutesBoundBodies: each peer route reads the request body its
// declaration allows and not one byte more. A JSON body padded inside
// its braces to exactly the bound reaches the handler; one more byte is
// refused before the value closes.
func TestPeerRoutesBoundBodies(t *testing.T) {
	_, tss := startCluster(t, 1, Config{Procs: 2, Workers: 1, Backend: "real"}, replicatingMember, nil)
	for _, tc := range []struct {
		rt         route
		head, want string // want: the handler's answer at the bound
	}{
		{routeViewPush, `{`, ""},
		{routeJoin, `{"url":"not-a-url"`, "not an absolute base URL"},
		{routeLeave, `{"url":"http://never-joined.invalid"`, "not a cluster member"},
	} {
		for _, extra := range []int{0, 1} {
			body := tc.head + strings.Repeat(" ", int(tc.rt.maxBody)-len(tc.head)-1+extra) + "}"
			resp, err := http.Post(tss[0].URL+tc.rt.path, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			var got struct{ Error string }
			err = json.NewDecoder(resp.Body).Decode(&got)
			resp.Body.Close()
			want := tc.want
			if extra > 0 {
				want = "request body too large"
			}
			if err != nil || !strings.Contains(got.Error, want) || (want == "") != (resp.StatusCode == http.StatusOK) {
				t.Errorf("%s with %d bytes: %d %q (%v), want %q", tc.rt.op, len(body), resp.StatusCode, got.Error, err, want)
			}
		}
	}
}

// replicatingMember is the cluster setting of the membership tests:
// replication on, probing under manual control.
var replicatingMember = ClusterConfig{OpTimeout: 5 * time.Second, Replicas: 1, ProbeInterval: -1}

// clusterTrio builds three servers joined into one replicating cluster.
func clusterTrio(t *testing.T) ([]*Server, []*httptest.Server) {
	return startCluster(t, 3, Config{Procs: 2, Workers: 1, Backend: "real"}, replicatingMember, nil)
}

// TestReplicationAndTakeover is the service-layer failover contract: the
// owner's freshly built factor lands on its HRW successor proactively;
// when the owner dies the successor claims the key and answers from the
// replica — bitwise identical, zero local factorizations — and a third
// daemon's in-flight-style fetch walks past the dead owner to the new
// one.
func TestReplicationAndTakeover(t *testing.T) {
	srvs, tss := clusterTrio(t)

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

	// Walk the owner to dead on the successor (deadAfter is 2);
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
	srvs, tss := clusterTrio(t)

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

	h := srvs[0].clusterHealthCheck(false)
	if h.Status != "degraded" {
		t.Errorf("cluster health %q, want degraded", h.Status)
	}
	var row *peerHealth
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
	srvs, _ := clusterTrio(t)
	joiners, tss := startCluster(t, 1, Config{Procs: 2, Workers: 1, Backend: "real"}, replicatingMember, nil)
	joiner, ts := joiners[0], tss[0]

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
	if _, err := srvs[0].leaveMember(ts.URL); err != nil {
		t.Fatalf("leaveMember: %v", err)
	}
	if got := len(srvs[0].cluster.ms.routable()); got != 3 {
		t.Errorf("after leave the seed routes to %d members, want 3", got)
	}
	if got := srvs[0].cluster.snapshot().Leaves; got != 1 {
		t.Errorf("seed leave counter = %d, want 1", got)
	}
	if _, err := srvs[0].leaveMember("http://never-joined.invalid"); err == nil ||
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
	var failReplica atomic.Bool
	s, _ := startCluster(t, 2, Config{Procs: 2, Workers: 1, Backend: "real"}, replicatingMember, func(_ int, routes http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if failReplica.Load() && strings.HasPrefix(r.URL.Path, "/v1/peer/replica/") {
				http.Error(w, "synthetic push failure", http.StatusInternalServerError)
				return
			}
			routes.ServeHTTP(w, r)
		})
	})

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
