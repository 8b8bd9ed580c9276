package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/matgen"
	"repro/internal/sparse"
)

func TestClusterConfigValidation(t *testing.T) {
	var nilCfg *ClusterConfig
	if got, err := nilCfg.withDefaults(); got != nil || err != nil {
		t.Fatalf("nil config: got %v, %v; want nil, nil", got, err)
	}
	cases := []struct {
		name string
		cfg  ClusterConfig
		want string // error substring; "" = valid
	}{
		{"valid", ClusterConfig{Self: "a", Peers: []string{"a", "b"}}, ""},
		// A single-member cluster is legal now that peers can join at
		// runtime — the seed daemon starts alone.
		{"one peer", ClusterConfig{Self: "a", Peers: []string{"a"}}, ""},
		{"no peers", ClusterConfig{Self: "a"}, ""},
		{"empty url", ClusterConfig{Self: "a", Peers: []string{"a", ""}}, "empty URL"},
		{"duplicate", ClusterConfig{Self: "a", Peers: []string{"a", "a"}}, "duplicate"},
		{"self missing", ClusterConfig{Self: "c", Peers: []string{"a", "b"}}, "not in the peer list"},
	}
	for _, tc := range cases {
		out, err := tc.cfg.withDefaults()
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			} else if out.OpTimeout <= 0 {
				t.Errorf("%s: OpTimeout not defaulted", tc.name)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

// TestClusterOwnerDeterministic pins the routing properties everything
// else rests on: the owner is a pure function of (peer set, key) —
// independent of list order and of which daemon asks — and keys spread
// across all peers rather than piling onto one.
func TestClusterOwnerDeterministic(t *testing.T) {
	peers := []string{"http://a:1", "http://b:1", "http://c:1"}
	mk := func(order []string) *cluster {
		return newCluster(&ClusterConfig{Self: order[0], Peers: order, OpTimeout: time.Second}, 3, time.Second)
	}
	c1 := mk(peers)
	c2 := mk([]string{peers[2], peers[0], peers[1]})
	counts := map[string]int{}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 300; i++ {
		key := fmt.Sprintf("sha256:%016x", rng.Uint64())
		o1, o2 := c1.owner(key), c2.owner(key)
		if o1 != o2 {
			t.Fatalf("key %s: owner depends on peer-list order (%s vs %s)", key, o1, o2)
		}
		counts[o1]++
	}
	for _, p := range peers {
		if counts[p] == 0 {
			t.Errorf("peer %s owns no keys out of 300; rendezvous hash is not spreading", p)
		}
	}
}

// peerHandler exposes the subset of pilutd's HTTP surface the cluster
// layer talks to, backed by a Server resolved at request time (the
// server needs the listener's URL before it can be constructed).
func peerHandler(get func() *Server) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(get().Health())
	})
	mux.HandleFunc("/v1/peer/factor/", func(w http.ResponseWriter, r *http.Request) {
		key := strings.TrimPrefix(r.URL.Path, "/v1/peer/factor/")
		data, err := get().ExportFactor(key)
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		w.Write(data)
	})
	mux.HandleFunc("/v1/peer/matrix", func(w http.ResponseWriter, r *http.Request) {
		if _, _, err := get().ImportMatrix(r.Body); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
	})
	return mux
}

// clusterPair builds two servers joined into one cluster over httptest
// listeners. Returned in peer-list order.
func clusterPair(t *testing.T, cfg Config) (srvs [2]*Server, urls [2]string, shutdown func()) {
	t.Helper()
	var s [2]*Server
	ts0 := httptest.NewServer(peerHandler(func() *Server { return s[0] }))
	ts1 := httptest.NewServer(peerHandler(func() *Server { return s[1] }))
	peers := []string{ts0.URL, ts1.URL}
	for i := range s {
		c := cfg
		// Probing and replication are disabled so these tests exercise the
		// static on-demand fetch path deterministically; the membership
		// machinery has its own tests.
		c.Cluster = &ClusterConfig{
			Self: peers[i], Peers: peers, OpTimeout: 5 * time.Second,
			ProbeInterval: -1, Replicas: -1,
		}
		s[i] = New(c)
	}
	return s, [2]string{ts0.URL, ts1.URL}, func() {
		ts0.Close()
		ts1.Close()
		for _, srv := range s {
			srv.Shutdown(context.Background())
		}
	}
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestClusterPeerFetch is the ownership contract end to end at the
// service layer: a solve landing on the non-owning daemon fetches the
// owner's cached factorization instead of recomputing, and the solution
// is bitwise identical to the owner's own answer.
func TestClusterPeerFetch(t *testing.T) {
	srvs, _, shutdown := clusterPair(t, Config{Procs: 2, Workers: 1, Backend: "real"})
	defer shutdown()

	a := matgen.Grid2D(12, 12)
	key := sparse.Fingerprint(a)
	ownerIdx := 0
	if srvs[0].cluster.owner(key) != srvs[0].cluster.self {
		ownerIdx = 1
	}
	owner, other := srvs[ownerIdx], srvs[1-ownerIdx]

	b := make([]float64, a.N)
	for i := range b {
		b[i] = float64(i%7) - 3
	}
	if _, _, err := owner.Submit(a); err != nil {
		t.Fatal(err)
	}
	want, err := owner.Solve(context.Background(), key, b, SolveOptions{Tol: 1e-8})
	if err != nil {
		t.Fatal(err)
	}

	// The client resubmits to the other daemon (submit-anywhere) and
	// solves there; the factorization must come over the wire.
	if _, _, err := other.Submit(a); err != nil {
		t.Fatal(err)
	}
	got, err := other.Solve(context.Background(), key, b, SolveOptions{Tol: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	if !want.Converged || !got.Converged {
		t.Fatalf("solves did not converge (owner=%v peer=%v)", want.Converged, got.Converged)
	}
	if !bitsEqual(want.X, got.X) {
		t.Errorf("peer-fetched solve differs bitwise from the owner's")
	}
	if want.Iterations != got.Iterations {
		t.Errorf("iteration counts differ: owner %d, peer %d", want.Iterations, got.Iterations)
	}

	os := other.cluster.snapshot()
	if os.PeerFetches != 1 || os.PeerFetchHits != 1 {
		t.Errorf("fetcher counters: %+v, want 1 fetch / 1 hit", os)
	}
	if os.ReplicationsSent != 1 {
		t.Errorf("replications sent = %d, want 1 (submit-anywhere push to owner)", os.ReplicationsSent)
	}
	if ss := owner.cluster.snapshot(); ss.PeerServes != 1 {
		t.Errorf("owner served %d factor exports, want 1", ss.PeerServes)
	}
	// The import registered the factorization in the local cache: a
	// second solve must not fetch again.
	if _, err := other.Solve(context.Background(), key, b, SolveOptions{Tol: 1e-8}); err != nil {
		t.Fatal(err)
	}
	if os := other.cluster.snapshot(); os.PeerFetches != 1 {
		t.Errorf("second solve refetched (fetches=%d); entry was not cached", os.PeerFetches)
	}
}

// TestClusterPeerDeathFallsBack: killing the owner must not fail a
// request the surviving daemon can answer alone — the fetch fails, the
// breaker opens after enough failures, and the solve is built locally.
func TestClusterPeerDeathFallsBack(t *testing.T) {
	cfg := Config{Procs: 2, Workers: 1, Backend: "real", BreakerFailures: 2, BreakerCooldown: time.Hour}
	var s [2]*Server
	ts0 := httptest.NewServer(peerHandler(func() *Server { return s[0] }))
	ts1 := httptest.NewServer(peerHandler(func() *Server { return s[1] }))
	peers := []string{ts0.URL, ts1.URL}
	for i := range s {
		c := cfg
		c.Cluster = &ClusterConfig{
			Self: peers[i], Peers: peers, OpTimeout: 2 * time.Second,
			ProbeInterval: -1, Replicas: -1,
		}
		s[i] = New(c)
	}
	defer ts1.Close()
	defer func() {
		for _, srv := range s {
			srv.Shutdown(context.Background())
		}
	}()

	a := matgen.Grid2D(12, 12)
	key := sparse.Fingerprint(a)
	ownerIdx := 0
	if s[0].cluster.owner(key) != s[0].cluster.self {
		ownerIdx = 1
	}
	// Kill the owner's listener before the survivor ever talks to it.
	if ownerIdx == 0 {
		ts0.Close()
	} else {
		ts1.Close()
		defer ts0.Close()
	}
	survivor, ownerURL := s[1-ownerIdx], peers[ownerIdx]

	b := make([]float64, a.N)
	for i := range b {
		b[i] = 1
	}
	if _, _, err := survivor.Submit(a); err != nil {
		t.Fatal(err)
	}
	res, err := survivor.Solve(context.Background(), key, b, SolveOptions{Tol: 1e-8})
	if err != nil {
		t.Fatalf("solve with dead owner failed: %v", err)
	}
	if !res.Converged {
		t.Fatal("solve with dead owner did not converge")
	}
	st := survivor.cluster.snapshot()
	if st.PeerFetchFailures == 0 && st.ReplicationsLost == 0 {
		t.Errorf("no failed peer operations recorded against a dead owner: %+v", st)
	}
	// Drive the breaker open with repeated failures, then confirm fetch
	// attempts stop being spent on the dead peer.
	for i := 0; i < cfg.BreakerFailures; i++ {
		survivor.cluster.peerDown(ownerURL)
	}
	if !survivor.cluster.breakerOpen(ownerURL) {
		t.Fatalf("breaker still closed after %d consecutive failures", cfg.BreakerFailures)
	}
	before := survivor.cluster.snapshot().PeerFetches
	if ent, ok := survivor.peerFetch(key); ok || ent != nil {
		t.Error("peerFetch succeeded against an open breaker")
	}
	if after := survivor.cluster.snapshot().PeerFetches; after != before {
		t.Errorf("open breaker did not gate the fetch (attempts %d -> %d)", before, after)
	}
}

// TestClusterHealthAggregation: both peers up reports "ok" with a row
// per peer; a dead peer degrades the aggregate without marking this
// daemon unhealthy.
func TestClusterHealthAggregation(t *testing.T) {
	srvs, urls, shutdown := clusterPair(t, Config{Procs: 2, Workers: 1, Backend: "real"})
	defer shutdown()

	h := srvs[0].ClusterHealthCheck()
	if h.Status != "ok" {
		t.Fatalf("healthy cluster reports %q, want ok", h.Status)
	}
	if len(h.Cluster) != 2 {
		t.Fatalf("got %d peer rows, want 2", len(h.Cluster))
	}
	for _, row := range h.Cluster {
		want := "ok"
		if row.URL == urls[0] {
			want = "self"
		}
		if row.Status != want {
			t.Errorf("peer %s: status %q, want %q", row.URL, row.Status, want)
		}
	}

	// Shut down peer 1's listener: peer 0's aggregate degrades, and the
	// row carries the probe error.
	resp, err := http.Get(urls[1] + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	// (the Get above just proves the listener was up; now kill it)
	srvs[1].Shutdown(context.Background())
	h2 := srvs[0].ClusterHealthCheck()
	// A draining peer is not "ok", so the aggregate must degrade whether
	// the probe saw "draining" or a closed listener.
	if h2.Status != "degraded" {
		t.Fatalf("cluster with dead peer reports %q, want degraded", h2.Status)
	}
	if local := srvs[0].Health(); local.Status != "ok" {
		t.Errorf("local health polluted by peer death: %q", local.Status)
	}
}

// TestExportUnknownAndUnexportable pins the 404 contract of the peer
// endpoint: unknown keys and block-Jacobi entries both surface as
// errors the HTTP layer maps to 404, and the fetcher treats 404 as a
// clean miss (local build), not a peer failure.
func TestExportUnknownAndUnexportable(t *testing.T) {
	srv := New(Config{Procs: 2, Workers: 1, Backend: "real"})
	defer srv.Shutdown(context.Background())
	if _, err := srv.ExportFactor("sha256:nope"); err == nil {
		t.Fatal("exporting an unknown key succeeded")
	}
}

// TestImportRejectsForeignPartition: the importer binds a peer's pieces
// to the partition it derives itself, so pieces factored under any
// other assignment — a tampered digest, or an exporter too old to send
// one — must be refused, which sends the fetch down its failure path to
// a local build.
func TestImportRejectsForeignPartition(t *testing.T) {
	a := matgen.Grid2D(10, 10)
	key := sparse.Fingerprint(a)
	exp := New(Config{Procs: 2, Workers: 1, Backend: "real"})
	defer exp.Shutdown(context.Background())
	if _, _, err := exp.Submit(a); err != nil {
		t.Fatal(err)
	}
	data, err := exp.ExportFactor(key)
	if err != nil {
		t.Fatal(err)
	}
	var wf wireFactor
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&wf); err != nil {
		t.Fatal(err)
	}
	if wf.PartDigest == ([sha256.Size]byte{}) {
		t.Fatal("export carries no partition digest")
	}

	imp := New(Config{Procs: 2, Workers: 1, Backend: "real"})
	defer imp.Shutdown(context.Background())
	tampered, absent := wf, wf
	tampered.PartDigest[7] ^= 1
	absent.PartDigest = [sha256.Size]byte{}
	for name, w := range map[string]wireFactor{"tampered": tampered, "absent": absent} {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&w); err != nil {
			t.Fatal(err)
		}
		if _, err := imp.importFactor(key, buf.Bytes()); err == nil || !strings.Contains(err.Error(), "partitioned") {
			t.Errorf("%s digest: err %v, want partition mismatch", name, err)
		}
	}
	if _, err := imp.importFactor(key, data); err != nil {
		t.Errorf("untouched export refused: %v", err)
	}
}

// TestClusterFetchOfMalformedFactorRebuildsLocally: an owner that serves
// a factorization whose rows do not fit the plan — here an L column past
// the matrix — costs the fetcher one failed fetch; the import returns an
// error instead of laying out a piece that would index out of range
// inside a run, and the solve is answered from a local build.
func TestClusterFetchOfMalformedFactorRebuildsLocally(t *testing.T) {
	var s [2]*Server
	corrupt := -1 // index of the server whose exports are tampered with
	handler := func(i int) http.Handler {
		h := peerHandler(func() *Server { return s[i] })
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if i != corrupt || !strings.HasPrefix(r.URL.Path, "/v1/peer/factor/") {
				h.ServeHTTP(w, r)
				return
			}
			data, err := s[i].ExportFactor(strings.TrimPrefix(r.URL.Path, "/v1/peer/factor/"))
			if err != nil {
				http.Error(w, err.Error(), http.StatusNotFound)
				return
			}
			var wf wireFactor
			if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&wf); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			for li, cols := range wf.Pieces[0].LCols {
				if len(cols) > 0 {
					wf.Pieces[0].LCols[li][0] = wf.Matrix.N + 7
					break
				}
			}
			if err := gob.NewEncoder(w).Encode(&wf); err != nil {
				t.Errorf("re-encoding the tampered export: %v", err)
			}
		})
	}
	ts0 := httptest.NewServer(handler(0))
	ts1 := httptest.NewServer(handler(1))
	defer ts0.Close()
	defer ts1.Close()
	peers := []string{ts0.URL, ts1.URL}
	for i := range s {
		s[i] = New(Config{Procs: 2, Workers: 1, Backend: "real", Cluster: &ClusterConfig{
			Self: peers[i], Peers: peers, OpTimeout: 5 * time.Second,
			ProbeInterval: -1, Replicas: -1,
		}})
	}
	defer func() {
		for _, srv := range s {
			srv.Shutdown(context.Background())
		}
	}()

	a := matgen.Grid2D(12, 12)
	key := sparse.Fingerprint(a)
	corrupt = 0
	if s[0].cluster.owner(key) != s[0].cluster.self {
		corrupt = 1
	}
	owner, other := s[corrupt], s[1-corrupt]
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
	if _, _, err := other.Submit(a); err != nil {
		t.Fatal(err)
	}
	got, err := other.Solve(context.Background(), key, b, SolveOptions{Tol: 1e-8})
	if err != nil {
		t.Fatalf("solve after a malformed peer factor failed: %v", err)
	}
	if !got.Converged || !bitsEqual(want.X, got.X) {
		t.Errorf("the local rebuild does not reproduce the owner's answer (converged=%v)", got.Converged)
	}
	st := other.cluster.snapshot()
	if st.PeerFetches != 1 || st.PeerFetchFailures != 1 || st.PeerFetchHits != 0 {
		t.Errorf("fetcher counters: %+v, want 1 fetch, 1 failure, 0 hits", st)
	}
	if fs := other.StatsSnapshot().Cache; fs.Factorizations != 1 {
		t.Errorf("fetcher ran %d local factorizations, want 1", fs.Factorizations)
	}
}

// TestImportRejectsMismatchedConfig: a daemon must refuse a peer
// factorization computed under a different layout configuration, since
// applying it would silently change the preconditioner.
func TestImportRejectsMismatchedConfig(t *testing.T) {
	a := matgen.Grid2D(10, 10)
	key := sparse.Fingerprint(a)
	exp := New(Config{Procs: 2, Workers: 1, Backend: "real"})
	defer exp.Shutdown(context.Background())
	if _, _, err := exp.Submit(a); err != nil {
		t.Fatal(err)
	}
	data, err := exp.ExportFactor(key)
	if err != nil {
		t.Fatal(err)
	}

	imp := New(Config{Procs: 4, Workers: 1, Backend: "real"})
	defer imp.Shutdown(context.Background())
	if _, err := imp.importFactor(key, data); err == nil || !strings.Contains(err.Error(), "must share configuration") {
		t.Fatalf("mismatched procs import: err %v, want configuration mismatch", err)
	}

	ok := New(Config{Procs: 2, Workers: 1, Backend: "real"})
	defer ok.Shutdown(context.Background())
	ent, err := ok.importFactor(key, data)
	if err != nil {
		t.Fatalf("matching import failed: %v", err)
	}
	if ent.key != key || len(ent.pcs) != 2 {
		t.Fatalf("imported entry malformed: key %s, %d pieces", ent.key, len(ent.pcs))
	}
	if _, err := imp.importFactor(key, data[:len(data)/2]); err == nil {
		t.Error("truncated body import succeeded")
	}
}
