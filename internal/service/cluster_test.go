package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/ilu"
	"repro/internal/matgen"
	"repro/internal/pcomm"
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
// a local build. So must a body whose key, piece count or matrix is not
// what was asked for, before the partition is even looked at.
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
	// The checks that stand before the digest are held here too, one
	// tampering each: a body for another key, a piece short, and a sound
	// matrix that is not the one the key names.
	otherKey, shortPieces, otherValues := wf, wf, wf
	otherKey.Key = "0123456789abcdef0123456789abcdef"
	shortPieces.Pieces = wf.Pieces[:1]
	otherValues.Matrix.Vals = append([]float64(nil), wf.Matrix.Vals...)
	otherValues.Matrix.Vals[0] *= 2
	for name, tc := range map[string]struct {
		w    wireFactor
		want string
	}{
		"tampered digest": {tampered, "partitioned"},
		"absent digest":   {absent, "partitioned"},
		"other key":       {otherKey, "for requested key"},
		"short pieces":    {shortPieces, "carries 1 pieces for 2 processors"},
		"other values":    {otherValues, "fingerprints to"},
	} {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&tc.w); err != nil {
			t.Fatal(err)
		}
		if _, err := imp.importFactor(key, buf.Bytes()); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err %v, want %q", name, err, tc.want)
		}
	}
	if _, err := imp.importFactor(key, data); err != nil {
		t.Errorf("untouched export refused: %v", err)
	}
	// The accepted import published the pattern's analysis, so the same
	// refusal must now come off the symbolic-hit path: the digest is held
	// against the cached layout, not skipped because the analysis was.
	before := imp.StatsSnapshot().Cache
	if before.SymbolicEntries != 1 {
		t.Fatalf("accepted import left %d symbolic entries, want 1", before.SymbolicEntries)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&tampered); err != nil {
		t.Fatal(err)
	}
	if _, err := imp.importFactor(key, buf.Bytes()); err == nil || !strings.Contains(err.Error(), "partitioned") {
		t.Errorf("tampered digest on a warm symbolic tier: err %v, want partition mismatch", err)
	}
	if after := imp.StatsSnapshot().Cache; after.SymbolicHits != before.SymbolicHits+1 || after.SymbolicMisses != before.SymbolicMisses {
		t.Errorf("the warm refusal did not go through the symbolic hit path: %+v -> %+v", before, after)
	}
}

// TestClusterFetchOfMalformedFactorRebuildsLocally: an owner that serves
// a factorization whose rows do not fit the plan (an L column past the
// matrix) or whose matrix is not a CSR at all (a column past M) costs the
// fetcher one failed fetch; the import returns an error — from
// core.FromWire, from CSR.Check before the bytes are even fingerprinted —
// instead of indexing out of range, and the solve is answered from a
// local build.
func TestClusterFetchOfMalformedFactorRebuildsLocally(t *testing.T) {
	t.Run("piece", func(t *testing.T) {
		fetchOfMalformedFactorRebuildsLocally(t, "wire precond", func(wf *wireFactor) {
			for li, cols := range wf.Pieces[0].LCols {
				if len(cols) > 0 {
					wf.Pieces[0].LCols[li][0] = wf.Matrix.N + 7
					break
				}
			}
		})
	})
	t.Run("matrix", func(t *testing.T) {
		fetchOfMalformedFactorRebuildsLocally(t, "malformed matrix", func(wf *wireFactor) {
			wf.Matrix.Cols[len(wf.Matrix.Cols)/2] = wf.Matrix.M + 7
		})
	})
}

func fetchOfMalformedFactorRebuildsLocally(t *testing.T, wantErr string, tamper func(wf *wireFactor)) {
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
			tamper(&wf)
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
	// The failed fetch above is only a counter; name the check that made it.
	served, err := other.cluster.getFactor(peers[corrupt], key)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.importFactor(key, served); err == nil || !strings.Contains(err.Error(), wantErr) {
		t.Errorf("import of the tampered export: err %v, want %q", err, wantErr)
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

	// The exporter ran the defaults: ILUT*(10, 1e-4, 2), MISRounds 0,
	// Seed 0. Every field that shapes the factors is part of the shared
	// configuration; a daemon that differs in one must refuse the bytes.
	def := ilu.Params{M: 10, Tau: 1e-4, K: 2}
	var imp *Server
	for name, cfg := range map[string]Config{
		"procs":     {Procs: 4},
		"seed":      {Procs: 2, Seed: 5},
		"tau":       {Procs: 2, Params: ilu.Params{M: def.M, Tau: 1e-3, K: def.K}},
		"m":         {Procs: 2, Params: ilu.Params{M: 20, Tau: def.Tau, K: def.K}},
		"k":         {Procs: 2, Params: ilu.Params{M: def.M, Tau: def.Tau, K: 3}},
		"misrounds": {Procs: 2, MISRounds: 3},
	} {
		cfg.Workers, cfg.Backend = 1, "real"
		imp = New(cfg)
		defer imp.Shutdown(context.Background())
		if _, err := imp.importFactor(key, data); err == nil || !strings.Contains(err.Error(), "must share configuration") {
			t.Errorf("mismatched %s import: err %v, want configuration mismatch", name, err)
		}
	}
	// An exporter that predates the fields sends their zero values, which
	// no daemon runs: refused like any other mismatch.
	var wf wireFactor
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&wf); err != nil {
		t.Fatal(err)
	}
	if wf.Params != def || wf.MISRounds != 0 {
		t.Fatalf("export declares params %+v / %d rounds, want the exporter's configured %+v / 0", wf.Params, wf.MISRounds, def)
	}
	wf.Params = ilu.Params{}
	var old bytes.Buffer
	if err := gob.NewEncoder(&old).Encode(&wf); err != nil {
		t.Fatal(err)
	}

	ok := New(Config{Procs: 2, Workers: 1, Backend: "real"})
	defer ok.Shutdown(context.Background())
	if _, err := ok.importFactor(key, old.Bytes()); err == nil || !strings.Contains(err.Error(), "must share configuration") {
		t.Errorf("import from an exporter without parameters: err %v, want configuration mismatch", err)
	}
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

// TestImportMatrixRejectsMalformedCSR: a /v1/peer/matrix body that gob
// decodes but is not a CSR is refused before it is fingerprinted or
// stored — stored, it would sit under its key and fail (a recovered
// panic) inside every build that ever touches it.
func TestImportMatrixRejectsMalformedCSR(t *testing.T) {
	srv := New(Config{Procs: 2, Workers: 1, Backend: "real"})
	defer srv.Shutdown(context.Background())
	good := matgen.Grid2D(6, 6)
	for name, edit := range map[string]func(w *wireCSR){
		"column past M":    func(w *wireCSR) { w.Cols[3] = w.M + 2 },
		"short RowPtr":     func(w *wireCSR) { w.RowPtr = w.RowPtr[:w.N-1] },
		"RowPtr overshoot": func(w *wireCSR) { w.RowPtr[w.N] = len(w.Cols) + 5 },
		"values missing":   func(w *wireCSR) { w.Vals = w.Vals[:len(w.Vals)/2] },
		"NaN":              func(w *wireCSR) { w.Vals[0] = math.NaN() },
	} {
		w := csrToWire(good.Clone())
		edit(&w)
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(w); err != nil {
			t.Fatal(err)
		}
		if _, _, err := srv.ImportMatrix(&buf); err == nil || !strings.Contains(err.Error(), "malformed matrix") {
			t.Errorf("%s: err %v, want a malformed-matrix refusal", name, err)
		}
	}
	if n := srv.StatsSnapshot().Matrices; n != 0 {
		t.Errorf("%d malformed matrices were stored", n)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(csrToWire(good)); err != nil {
		t.Fatal(err)
	}
	if key, _, err := srv.ImportMatrix(&buf); err != nil || key != sparse.Fingerprint(good) {
		t.Errorf("sound matrix: key %s, err %v", key, err)
	}
}

// TestSubmitRefusesNonFiniteValues: the MatrixMarket reader refuses a NaN
// or an infinity where it stands, and Submit refuses a matrix that holds
// one however it was built, so neither is ever stored under a key.
func TestSubmitRefusesNonFiniteValues(t *testing.T) {
	srv := New(Config{Procs: 2, Workers: 1, Backend: "real"})
	defer srv.Shutdown(context.Background())
	if _, err := sparse.ReadMatrixMarket(strings.NewReader(
		"%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 4\n2 2 inf\n")); err == nil || !strings.Contains(err.Error(), "line 4") {
		t.Errorf("reader: err %v, want a refusal naming line 4", err)
	}
	for _, v := range []float64{math.NaN(), math.Inf(-1)} {
		bad := matgen.Grid2D(6, 6)
		bad.Vals[7] = v
		if _, _, err := srv.Submit(bad); err == nil || !strings.Contains(err.Error(), "non-finite") {
			t.Errorf("Submit with %v: err %v, want a non-finite refusal", v, err)
		}
	}
	if n := srv.StatsSnapshot().Matrices; n != 0 {
		t.Errorf("%d non-finite matrices were stored", n)
	}
}

// shiftRungMatrix returns a matrix whose configured factorization breaks
// down and whose "shift" rung succeeds: a grid block plus enough
// decoupled rows with an explicit zero diagonal that more than a quarter
// of all pivots need the floor repair — until the shift gives each a
// diagonal. (The pivot fault of chaos_test.go cannot stop there: it
// scales the pivots of every distributed rung alike and lands on
// block-Jacobi, which has no wire form.) scale multiplies every value,
// so two scales share one pattern. The system is consistent for a
// right-hand side that is zero on the decoupled rows.
func shiftRungMatrix(scale float64) (a *sparse.CSR, coupled int) {
	g := matgen.Grid2D(12, 12)
	n := g.N + 80
	b := sparse.NewBuilder(n, n)
	for i := 0; i < g.N; i++ {
		cols, vals := g.Row(i)
		for k, j := range cols {
			b.Add(i, j, scale*vals[k])
		}
	}
	for i := g.N; i < n; i++ {
		b.Add(i, i, 0)
	}
	return b.Build(), g.N
}

// TestImportThroughSymbolicLRUIsTheSameImport: build, peer fetch and
// replica import share the symbolic front end, so the first import of a
// pattern records a miss and publishes the analysis, the second — other
// values, same pattern — a hit, and neither counts as a factorization or
// a refactor build. What matters is that the route changes nothing: both
// imported entries solve bitwise like the owner's and like an import into
// a daemon whose symbolic tier is cold. Run for a configured
// factorization and for a "shift"-rung one, whose plan is not the
// analysis's.
func TestImportThroughSymbolicLRUIsTheSameImport(t *testing.T) {
	grid := matgen.Evolve(matgen.Grid2D(12, 12), 2, 0.1, 3)
	shiftA, coupled := shiftRungMatrix(1)
	shiftB, _ := shiftRungMatrix(1.25)
	for _, tc := range []struct {
		step string
		mats []*sparse.CSR
		live int // rows with a non-zero right-hand side
	}{
		{"", grid[:2], grid[0].N},
		{"shift", []*sparse.CSR{shiftA, shiftB}, coupled},
	} {
		t.Run("rung="+tc.step, func(t *testing.T) {
			cfg := chaosConfig(t, "")
			b := rhs(tc.mats[0].N, 11)
			for i := tc.live; i < len(b); i++ {
				b[i] = 0
			}
			owner := New(cfg)
			defer owner.Shutdown(context.Background())
			var keys []string
			var exports [][]byte
			var want []SolveResult
			for _, a := range tc.mats {
				key, _, err := owner.Submit(a)
				if err != nil {
					t.Fatal(err)
				}
				res, err := owner.Solve(context.Background(), key, b, SolveOptions{Tol: 1e-8})
				if err != nil || !res.Converged || res.LadderStep != tc.step {
					t.Fatalf("owner solve: converged=%v step=%q err=%v, want rung %q", res.Converged, res.LadderStep, err, tc.step)
				}
				data, err := owner.ExportFactor(key)
				if err != nil {
					t.Fatal(err)
				}
				keys, exports, want = append(keys, key), append(exports, data), append(want, res)
			}
			if keys[0] == keys[1] || sparse.PatternFingerprint(tc.mats[0]) != sparse.PatternFingerprint(tc.mats[1]) {
				t.Fatal("test matrices must differ in values only")
			}

			// importAndSolve is what peerFetch and ImportReplica do with the
			// bytes, then a solve through the admitted entry.
			importAndSolve := func(s *Server, i int) (*entry, SolveResult) {
				t.Helper()
				ent, err := s.importFactor(keys[i], exports[i])
				if err != nil {
					t.Fatalf("import %d: %v", i, err)
				}
				s.admit(ent, originPeer)
				res, err := s.Solve(context.Background(), keys[i], b, SolveOptions{Tol: 1e-8})
				if err != nil || !res.CacheHit {
					t.Fatalf("solve through import %d: hit=%v err=%v", i, res.CacheHit, err)
				}
				return ent, res
			}
			imp := New(cfg)
			defer imp.Shutdown(context.Background())
			ent0, got0 := importAndSolve(imp, 0)
			first := imp.StatsSnapshot().Cache
			if ent0.symbolicHit || first.SymbolicMisses != 1 || first.SymbolicHits != 0 || first.SymbolicEntries != 1 {
				t.Fatalf("first import: hit=%v stats %+v, want one symbolic miss that published the analysis", ent0.symbolicHit, first)
			}
			ent1, got1 := importAndSolve(imp, 1)
			second := imp.StatsSnapshot().Cache
			if !ent1.symbolicHit || second.SymbolicHits != 1 || second.SymbolicMisses != 1 {
				t.Fatalf("second import: hit=%v stats %+v, want a symbolic hit and no new miss", ent1.symbolicHit, second)
			}
			if second.RefactorBuilds != 0 || second.Factorizations != 0 {
				t.Errorf("imports counted as builds: %d refactor builds, %d factorizations", second.RefactorBuilds, second.Factorizations)
			}
			if ent1.ladderStep != tc.step || ent1.degraded != (tc.step != "") {
				t.Errorf("imported entry is rung %q degraded=%v, want %q", ent1.ladderStep, ent1.degraded, tc.step)
			}

			cold := New(cfg)
			defer cold.Shutdown(context.Background())
			entCold, gotCold := importAndSolve(cold, 1)
			if entCold.symbolicHit {
				t.Fatal("the cold importer reports a symbolic hit")
			}
			for i, got := range []SolveResult{got0, got1} {
				if !bitsEqual(got.X, want[i].X) || got.Iterations != want[i].Iterations {
					t.Errorf("import %d solves differently from the owner (iterations %d vs %d)", i, got.Iterations, want[i].Iterations)
				}
			}
			if !bitsEqual(gotCold.X, got1.X) || gotCold.Iterations != got1.Iterations {
				t.Error("an import through a warm symbolic tier solves differently from one through a cold tier")
			}
		})
	}
}

// TestImportReplicaRefusals: a replica push is an import like any other —
// a daemon outside a cluster takes none, a body that fails importFactor
// is an error and caches nothing — and a key already cached answers
// known without the body being read at all.
func TestImportReplicaRefusals(t *testing.T) {
	a := matgen.Grid2D(10, 10)
	key := sparse.Fingerprint(a)
	alone := New(Config{Procs: 2, Workers: 1, Backend: "real"})
	defer alone.Shutdown(context.Background())
	if _, _, err := alone.Submit(a); err != nil {
		t.Fatal(err)
	}
	data, err := alone.ExportFactor(key)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := alone.ImportReplica(key, bytes.NewReader(data)); err == nil || !strings.Contains(err.Error(), "not a cluster member") {
		t.Errorf("standalone daemon: err %v, want not-a-member", err)
	}

	member := New(Config{Procs: 2, Workers: 1, Backend: "real", Cluster: &ClusterConfig{
		Self: "http://a", Peers: []string{"http://a"}, ProbeInterval: -1, Replicas: -1,
	}})
	defer member.Shutdown(context.Background())
	if _, err := member.ImportReplica(key, strings.NewReader("not gob")); err == nil {
		t.Error("garbage replica body accepted")
	}
	if _, err := member.ImportReplica("another-key", bytes.NewReader(data)); err == nil || !strings.Contains(err.Error(), "for requested key") {
		t.Errorf("replica pushed under another key: err %v", err)
	}
	if st := member.StatsSnapshot(); st.Cache.Entries != 0 || st.Cluster.ReplicaImports != 0 {
		t.Fatalf("refused pushes left %d entries, %d imports", st.Cache.Entries, st.Cluster.ReplicaImports)
	}
	if known, err := member.ImportReplica(key, bytes.NewReader(data)); err != nil || known {
		t.Fatalf("sound push: known=%v err=%v", known, err)
	}
	if known, err := member.ImportReplica(key, strings.NewReader("not gob")); err != nil || !known {
		t.Errorf("repeated push: known=%v err=%v, want known without decoding", known, err)
	}
	if st := member.StatsSnapshot(); st.Cache.Entries != 1 || st.Cluster.ReplicaImports != 1 || st.Cache.Factorizations != 0 {
		t.Errorf("after one sound push: %+v / %+v", st.Cache, st.Cluster)
	}
}

// TestImportRunFailureIsAFailedImport: the one run an import may need —
// the ghost-plan setup of a symbolic miss — is a run like any other, on
// the configured backend under the fault layer and the watchdog. A
// processor that dies in it fails the import with the structured error
// (a fetch then falls back to a local build, as for every failed import),
// caches and publishes nothing, and leaves the daemon importing cleanly
// once the one-shot fault is spent.
func TestImportRunFailureIsAFailedImport(t *testing.T) {
	a := matgen.Grid2D(12, 12)
	key := sparse.Fingerprint(a)
	exp := New(chaosConfig(t, ""))
	defer exp.Shutdown(context.Background())
	if _, _, err := exp.Submit(a); err != nil {
		t.Fatal(err)
	}
	data, err := exp.ExportFactor(key)
	if err != nil {
		t.Fatal(err)
	}

	imp := New(chaosConfig(t, "seed=1,panic=1@1"))
	defer imp.Shutdown(context.Background())
	_, err = imp.importFactor(key, data)
	var ip *fault.InjectedPanic
	var re *pcomm.RunError
	if !errors.As(err, &ip) || !errors.As(err, &re) || re.Rank != 1 {
		t.Fatalf("import under a panic fault: err %v, want the injected panic of rank 1 in a *pcomm.RunError", err)
	}
	if st := imp.StatsSnapshot().Cache; st.SymbolicEntries != 0 || st.Entries != 0 {
		t.Errorf("the failed import left %d analyses and %d entries behind", st.SymbolicEntries, st.Entries)
	}
	ent, err := imp.importFactor(key, data)
	if err != nil || ent.symbolicHit {
		t.Fatalf("import after the spent fault: hit=%v err=%v", ent != nil && ent.symbolicHit, err)
	}
	if st := imp.StatsSnapshot().Cache; st.SymbolicEntries != 1 || st.SymbolicMisses != 2 {
		t.Errorf("after the clean import: %+v, want the analysis published on the second miss", st)
	}
}
