package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"repro/internal/matgen"
	"repro/internal/sparse"
)

// freePort reserves an ephemeral port and releases it for the daemon to
// rebind. The tiny reuse window is acceptable in a test.
func freePort(t *testing.T) int {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port
}

// hrwOwner reimplements the service's rendezvous hash so the test can
// route requests knowingly; a drift between the two would show up as a
// missing peer fetch below, failing the counters check.
func hrwOwner(peers []string, key string) string {
	best, bestSum := "", []byte(nil)
	for _, peer := range peers {
		h := sha256.New()
		h.Write([]byte(peer))
		h.Write([]byte{0})
		h.Write([]byte(key))
		sum := h.Sum(nil)
		if best == "" || bytes.Compare(sum, bestSum) > 0 {
			best, bestSum = peer, sum
		}
	}
	return best
}

type daemon struct {
	url  string
	cmd  *exec.Cmd
	done chan struct{} // closed once the process has exited
}

func startDaemon(t *testing.T, bin string, args ...string) *daemon {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Stderr = testWriter{t}
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting pilutd: %v", err)
	}
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	go func() { cmd.Wait(); close(d.done) }()
	t.Cleanup(func() {
		select {
		case <-d.done:
		default:
			cmd.Process.Kill()
			<-d.done
		}
	})
	return d
}

type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Logf("%s", bytes.TrimRight(p, "\n"))
	return len(p), nil
}

func waitHealthy(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(base + "/healthz?scope=local")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never became healthy: %v", base, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func postJSON(t *testing.T, url string, payload any, out any) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(payload)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(buf.Bytes(), out); err != nil {
			t.Fatalf("POST %s reply %s: %v", url, buf.Bytes(), err)
		}
	}
	return resp.StatusCode, buf.Bytes()
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: decoding: %v", url, err)
		}
	}
	return resp.StatusCode
}

type clusterSolveReply struct {
	X         []float64 `json:"x"`
	Converged bool      `json:"converged"`
	CacheHit  bool      `json:"cache_hit"`
}

func submitMatrix(t *testing.T, base string, a *sparse.CSR) string {
	t.Helper()
	var mm bytes.Buffer
	if err := sparse.WriteMatrixMarket(&mm, a); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/matrices", "text/plain", &mm)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sub struct {
		Key string `json:"key"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil || sub.Key == "" {
		t.Fatalf("submit to %s: %v (status %d)", base, err, resp.StatusCode)
	}
	return sub.Key
}

// TestClusterEndToEnd drives a two-daemon pilutd cluster over real HTTP:
// a solve routed to the non-owning daemon must fetch the owner's cached
// factorization (no recomputation) and answer with the same solution
// bytes; killing one peer must degrade /healthz without failing
// requests for keys the survivor can answer.
func TestClusterEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster smoke test builds and runs binaries")
	}
	bin := filepath.Join(t.TempDir(), "pilutd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building pilutd: %v\n%s", err, out)
	}

	p0, p1 := freePort(t), freePort(t)
	urls := []string{
		fmt.Sprintf("http://127.0.0.1:%d", p0),
		fmt.Sprintf("http://127.0.0.1:%d", p1),
	}
	peerFlag := urls[0] + "," + urls[1]
	// -replicas 0: with proactive replication on, the non-owner would hold
	// the factor before the test ever solves there — this test pins the
	// on-demand fetch path, so replication is disabled.
	common := []string{"-procs", "2", "-backend", "real", "-peers", peerFlag, "-peer-timeout-ms", "5000", "-replicas", "0"}
	daemons := []*daemon{
		startDaemon(t, bin, append([]string{"-addr", fmt.Sprintf("127.0.0.1:%d", p0), "-self", urls[0]}, common...)...),
		startDaemon(t, bin, append([]string{"-addr", fmt.Sprintf("127.0.0.1:%d", p1), "-self", urls[1]}, common...)...),
	}
	for _, u := range urls {
		waitHealthy(t, u)
	}

	// Aggregated health with both peers up: "ok", one row per peer.
	var health struct {
		Status  string `json:"status"`
		Cluster []struct {
			URL    string `json:"url"`
			Status string `json:"status"`
		} `json:"cluster"`
	}
	if code := getJSON(t, urls[0]+"/healthz", &health); code != http.StatusOK {
		t.Fatalf("healthz: status %d", code)
	}
	if health.Status != "ok" || len(health.Cluster) != 2 {
		t.Fatalf("aggregated health = %+v, want ok with 2 peer rows", health)
	}

	// Matrix A: solve on its owner first so the factorization is cached
	// there, then solve on the other daemon — the peer-fetch path.
	a := matgen.Grid2D(24, 24)
	b := make([]float64, a.N)
	for i := range b {
		b[i] = float64(i%5) - 2
	}
	keyA := submitMatrix(t, urls[0], a)
	ownerA := hrwOwner(urls, keyA)
	otherA := urls[0]
	if otherA == ownerA {
		otherA = urls[1]
	}
	// Submit-anywhere: make sure both daemons know the matrix whichever
	// one the first submit landed on (replication covers the owner, but
	// the non-owner needs its own copy for the fallback path).
	submitMatrix(t, otherA, a)

	var ownerSolve, peerSolve clusterSolveReply
	if code, body := postJSON(t, ownerA+"/v1/solve", map[string]any{"key": keyA, "b": b, "tol": 1e-8}, &ownerSolve); code != http.StatusOK {
		t.Fatalf("owner solve: status %d: %s", code, body)
	}
	if !ownerSolve.Converged {
		t.Fatal("owner solve did not converge")
	}
	if code, body := postJSON(t, otherA+"/v1/solve", map[string]any{"key": keyA, "b": b, "tol": 1e-8}, &peerSolve); code != http.StatusOK {
		t.Fatalf("peer-routed solve: status %d: %s", code, body)
	}
	if !peerSolve.Converged {
		t.Fatal("peer-routed solve did not converge")
	}
	if len(ownerSolve.X) != len(peerSolve.X) {
		t.Fatalf("solution lengths differ: %d vs %d", len(ownerSolve.X), len(peerSolve.X))
	}
	for i := range ownerSolve.X {
		if math.Float64bits(ownerSolve.X[i]) != math.Float64bits(peerSolve.X[i]) {
			t.Fatalf("solution differs at %d: owner %x peer %x — factorization was recomputed, not fetched",
				i, math.Float64bits(ownerSolve.X[i]), math.Float64bits(peerSolve.X[i]))
		}
	}

	// The non-owner must have fetched exactly one factorization; the
	// owner must have served exactly one.
	var stats struct {
		Cluster struct {
			PeerFetches   int64 `json:"peer_fetches"`
			PeerFetchHits int64 `json:"peer_fetch_hits"`
			PeerServes    int64 `json:"peer_serves"`
		} `json:"cluster"`
		Cache struct {
			Factorizations int64 `json:"factorizations"`
		} `json:"cache"`
	}
	getJSON(t, otherA+"/v1/stats", &stats)
	if stats.Cluster.PeerFetchHits != 1 {
		t.Errorf("non-owner fetch hits = %d, want 1 (fetches=%d)", stats.Cluster.PeerFetchHits, stats.Cluster.PeerFetches)
	}
	if stats.Cache.Factorizations != 0 {
		t.Errorf("non-owner factored %d matrices locally; the wire copy should have been used", stats.Cache.Factorizations)
	}
	getJSON(t, ownerA+"/v1/stats", &stats)
	if stats.Cluster.PeerServes != 1 {
		t.Errorf("owner served %d exports, want 1", stats.Cluster.PeerServes)
	}

	// Matrix B lives on its own owner; kill the *other* daemon and the
	// survivor must keep answering B while /healthz degrades.
	bm := matgen.Grid2D(23, 23)
	bb := make([]float64, bm.N)
	for i := range bb {
		bb[i] = 1
	}
	keyB := submitMatrix(t, urls[0], bm)
	submitMatrix(t, urls[1], bm)
	ownerB := hrwOwner(urls, keyB)
	victim := urls[0]
	if victim == ownerB {
		victim = urls[1]
	}
	var bSolve clusterSolveReply
	if code, body := postJSON(t, ownerB+"/v1/solve", map[string]any{"key": keyB, "b": bb, "tol": 1e-8}, &bSolve); code != http.StatusOK {
		t.Fatalf("pre-kill solve of B: status %d: %s", code, body)
	}

	for i, u := range urls {
		if u == victim {
			daemons[i].cmd.Process.Kill()
			<-daemons[i].done
		}
	}

	if code := getJSON(t, ownerB+"/healthz", &health); code != http.StatusOK {
		t.Fatalf("healthz after peer death: status %d, want 200 (degraded, not dead)", code)
	}
	if health.Status != "degraded" {
		t.Fatalf("healthz after peer death reports %q, want degraded", health.Status)
	}
	for _, row := range health.Cluster {
		if row.URL == victim && row.Status != "down" {
			t.Errorf("dead peer row reports %q, want down", row.Status)
		}
	}

	var afterKill clusterSolveReply
	if code, body := postJSON(t, ownerB+"/v1/solve", map[string]any{"key": keyB, "b": bb, "tol": 1e-8}, &afterKill); code != http.StatusOK {
		t.Fatalf("survivor solve after peer death: status %d: %s", code, body)
	}
	if !afterKill.Converged || !afterKill.CacheHit {
		t.Fatalf("survivor solve after peer death: converged=%v cache_hit=%v, want true/true",
			afterKill.Converged, afterKill.CacheHit)
	}
	for i := range bSolve.X {
		if math.Float64bits(bSolve.X[i]) != math.Float64bits(afterKill.X[i]) {
			t.Fatalf("survivor's answer changed after peer death at %d", i)
		}
	}
}

// TestClusterSpawnPeers exercises the one-command cluster launcher: the
// first daemon starts its peer itself, and both answer local health.
func TestClusterSpawnPeers(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster smoke test builds and runs binaries")
	}
	bin := filepath.Join(t.TempDir(), "pilutd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building pilutd: %v\n%s", err, out)
	}
	p0, p1 := freePort(t), freePort(t)
	urls := []string{
		fmt.Sprintf("http://127.0.0.1:%d", p0),
		fmt.Sprintf("http://127.0.0.1:%d", p1),
	}
	startDaemon(t, bin,
		"-addr", fmt.Sprintf("127.0.0.1:%d", p0),
		"-procs", "2", "-backend", "real",
		"-peers", urls[0]+","+urls[1], "-self", urls[0], "-spawn-peers")
	for _, u := range urls {
		waitHealthy(t, u)
	}
	var health struct {
		Status string `json:"status"`
	}
	if code := getJSON(t, urls[0]+"/healthz", &health); code != http.StatusOK || health.Status != "ok" {
		t.Fatalf("spawned cluster health: status %d %q, want 200 ok", code, health.Status)
	}
}

// clusterStatsReply is the slice of /v1/stats these e2e tests assert on.
type clusterStatsReply struct {
	Cache struct {
		Factorizations int64 `json:"factorizations"`
		RefactorBuilds int64 `json:"refactor_builds"`
	} `json:"cache"`
	Cluster struct {
		PeerFetchHits  int64 `json:"peer_fetch_hits"`
		ReplicasPushed int64 `json:"replicas_pushed"`
		ReplicaImports int64 `json:"replica_imports"`
		TakeoverKeys   int64 `json:"takeover_keys"`
		Joins          int64 `json:"joins"`
	} `json:"cluster"`
}

// pollUntil re-evaluates cond every 20ms until it holds or the deadline
// lapses, failing the test with desc.
func pollUntil(t *testing.T, timeout time.Duration, desc string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", desc)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func buildPilutd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "pilutd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building pilutd: %v\n%s", err, out)
	}
	return bin
}

// TestClusterKillOwnerTakeover is the failover acceptance path: three
// daemons with R=1, hard-kill a key's owner mid-workload, and the next
// solve of that key is served from the proactively pushed replica —
// bitwise identical to the pre-kill answer, zero rebuilds — while
// /healthz writes the dead peer off within a probe interval or two.
func TestClusterKillOwnerTakeover(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster failover test builds and runs binaries")
	}
	bin := buildPilutd(t)
	ports := []int{freePort(t), freePort(t), freePort(t)}
	urls := make([]string, 3)
	for i, p := range ports {
		urls[i] = fmt.Sprintf("http://127.0.0.1:%d", p)
	}
	peerFlag := urls[0] + "," + urls[1] + "," + urls[2]
	common := []string{"-procs", "2", "-backend", "real", "-peers", peerFlag,
		"-peer-timeout-ms", "5000", "-probe-interval-ms", "150", "-replicas", "1"}
	daemons := make(map[string]*daemon, 3)
	for i, u := range urls {
		daemons[u] = startDaemon(t, bin, append([]string{"-addr", fmt.Sprintf("127.0.0.1:%d", ports[i]), "-self", u}, common...)...)
	}
	for _, u := range urls {
		waitHealthy(t, u)
	}

	a := matgen.Grid2D(24, 24)
	b := make([]float64, a.N)
	for i := range b {
		b[i] = float64(i%5) - 2
	}
	// Submit at the owner and nowhere else. A successor that knew the
	// matrix would answer the owner's cache-miss fetch by building the
	// factor itself (one time in three with random ports), and an owner
	// holding a peer-built factor never pushes a replica.
	key := sparse.Fingerprint(a)
	owner := hrwOwner(urls, key)
	if got := submitMatrix(t, owner, a); got != key {
		t.Fatalf("owner keyed the matrix %s, want %s", got, key)
	}

	var preKill clusterSolveReply
	if code, body := postJSON(t, owner+"/v1/solve", map[string]any{"key": key, "b": b, "tol": 1e-8}, &preKill); code != http.StatusOK {
		t.Fatalf("pre-kill solve: status %d: %s", code, body)
	}
	if !preKill.Converged {
		t.Fatal("pre-kill solve did not converge")
	}

	// The owner pushes the factor to its HRW successor off the request
	// path; don't kill it before the replica has landed.
	pollUntil(t, 15*time.Second, "owner to push the replica", func() bool {
		var st clusterStatsReply
		getJSON(t, owner+"/v1/stats", &st)
		return st.Cluster.ReplicasPushed >= 1
	})

	daemons[owner].cmd.Process.Kill()
	<-daemons[owner].done

	survivors := make([]string, 0, 2)
	for _, u := range urls {
		if u != owner {
			survivors = append(survivors, u)
		}
	}
	newOwner := hrwOwner(survivors, key)

	// The probe loop (150ms period, dead after 2 misses) writes the old
	// owner off; /healthz then reports the membership verdict.
	var health struct {
		Status  string `json:"status"`
		Cluster []struct {
			URL   string `json:"url"`
			State string `json:"state"`
		} `json:"cluster"`
	}
	pollUntil(t, 10*time.Second, "the view to write the dead owner off", func() bool {
		getJSON(t, newOwner+"/healthz", &health)
		for _, row := range health.Cluster {
			if row.URL == owner && row.State == "dead" {
				return true
			}
		}
		return false
	})
	if health.Status != "degraded" {
		t.Errorf("health status %q with a dead member, want degraded", health.Status)
	}
	// The view change makes the successor claim the replica-held key.
	pollUntil(t, 10*time.Second, "the successor to claim the key", func() bool {
		var st clusterStatsReply
		getJSON(t, newOwner+"/v1/stats", &st)
		return st.Cluster.TakeoverKeys >= 1
	})

	// Solve on the new owner. The matrix was never submitted there: the
	// replica (which carries the matrix on the wire) must serve alone.
	var postKill clusterSolveReply
	if code, body := postJSON(t, newOwner+"/v1/solve", map[string]any{"key": key, "b": b, "tol": 1e-8}, &postKill); code != http.StatusOK {
		t.Fatalf("post-kill solve on the new owner: status %d: %s", code, body)
	}
	if !postKill.Converged || !postKill.CacheHit {
		t.Fatalf("post-kill solve: converged=%v cache_hit=%v, want true/true (replica hit)", postKill.Converged, postKill.CacheHit)
	}
	for i := range preKill.X {
		if math.Float64bits(preKill.X[i]) != math.Float64bits(postKill.X[i]) {
			t.Fatalf("solution changed across the failover at %d — the factor was rebuilt, not inherited", i)
		}
	}
	var st clusterStatsReply
	getJSON(t, newOwner+"/v1/stats", &st)
	if st.Cache.Factorizations != 0 || st.Cache.RefactorBuilds != 0 {
		t.Errorf("new owner rebuilt: factorizations=%d refactor_builds=%d, want 0/0", st.Cache.Factorizations, st.Cache.RefactorBuilds)
	}
	if st.Cluster.ReplicaImports < 1 {
		t.Errorf("new owner replica_imports = %d, want ≥ 1", st.Cluster.ReplicaImports)
	}

	// The other survivor holds the promoted owner's replica and agrees
	// bitwise.
	third := survivors[0]
	if third == newOwner {
		third = survivors[1]
	}
	// The promoted owner re-replicates the key to its own successor —
	// this daemon — off the request path, and that replica is the only
	// way the matrix (submitted at the dead owner and nowhere else) gets
	// here: before it lands, the solve below is a 404.
	pollUntil(t, 10*time.Second, "the promoted owner's replica to land on the remaining daemon", func() bool {
		var st clusterStatsReply
		getJSON(t, third+"/v1/stats", &st)
		return st.Cluster.ReplicaImports >= 1
	})
	var thirdSolve clusterSolveReply
	if code, body := postJSON(t, third+"/v1/solve", map[string]any{"key": key, "b": b, "tol": 1e-8}, &thirdSolve); code != http.StatusOK {
		t.Fatalf("solve on the remaining daemon: status %d: %s", code, body)
	}
	for i := range preKill.X {
		if math.Float64bits(preKill.X[i]) != math.Float64bits(thirdSolve.X[i]) {
			t.Fatalf("remaining daemon's solution differs at %d", i)
		}
	}
	getJSON(t, third+"/v1/stats", &st)
	if st.Cache.Factorizations != 0 {
		t.Errorf("remaining daemon factored locally (%d); the cluster should have served", st.Cache.Factorizations)
	}
}

// TestClusterJoinLeave: a daemon started with -join enters a running
// seed's cluster at runtime, work routes across both, and an
// administrative leave drains it from routing without degrading health.
func TestClusterJoinLeave(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster membership test builds and runs binaries")
	}
	bin := buildPilutd(t)
	pSeed, pJoin := freePort(t), freePort(t)
	seedURL := fmt.Sprintf("http://127.0.0.1:%d", pSeed)
	joinURL := fmt.Sprintf("http://127.0.0.1:%d", pJoin)

	startDaemon(t, bin, "-addr", fmt.Sprintf("127.0.0.1:%d", pSeed),
		"-procs", "2", "-backend", "real",
		"-peers", seedURL, "-self", seedURL, "-probe-interval-ms", "150")
	waitHealthy(t, seedURL)
	startDaemon(t, bin, "-addr", fmt.Sprintf("127.0.0.1:%d", pJoin),
		"-procs", "2", "-backend", "real",
		"-join", seedURL, "-self", joinURL, "-probe-interval-ms", "150")
	waitHealthy(t, joinURL)

	var health struct {
		Status  string `json:"status"`
		Cluster []struct {
			URL   string `json:"url"`
			State string `json:"state"`
		} `json:"cluster"`
	}
	for _, u := range []string{seedURL, joinURL} {
		pollUntil(t, 10*time.Second, "both members in "+u+"'s view", func() bool {
			getJSON(t, u+"/healthz", &health)
			return len(health.Cluster) == 2
		})
	}
	var st clusterStatsReply
	getJSON(t, seedURL+"/v1/stats", &st)
	if st.Cluster.Joins < 1 {
		t.Errorf("seed joins counter = %d, want ≥ 1", st.Cluster.Joins)
	}

	// Work routes across the joined pair: a solve on the non-owner is
	// served over the wire, not rebuilt.
	a := matgen.Grid2D(24, 24)
	b := make([]float64, a.N)
	for i := range b {
		b[i] = 1
	}
	urls := []string{seedURL, joinURL}
	key := submitMatrix(t, seedURL, a)
	submitMatrix(t, joinURL, a)
	owner := hrwOwner(urls, key)
	other := urls[0]
	if other == owner {
		other = urls[1]
	}
	var ownerSolve, otherSolve clusterSolveReply
	if code, body := postJSON(t, owner+"/v1/solve", map[string]any{"key": key, "b": b, "tol": 1e-8}, &ownerSolve); code != http.StatusOK {
		t.Fatalf("owner solve: status %d: %s", code, body)
	}
	if code, body := postJSON(t, other+"/v1/solve", map[string]any{"key": key, "b": b, "tol": 1e-8}, &otherSolve); code != http.StatusOK {
		t.Fatalf("non-owner solve: status %d: %s", code, body)
	}
	for i := range ownerSolve.X {
		if math.Float64bits(ownerSolve.X[i]) != math.Float64bits(otherSolve.X[i]) {
			t.Fatalf("joined pair disagrees bitwise at %d", i)
		}
	}

	// Administrative drain: the joiner leaves; the seed's view tombstones
	// it without degrading, and probing it stops.
	status, body := postJSON(t, seedURL+"/v1/cluster/leave", map[string]any{"url": joinURL}, nil)
	if status != http.StatusOK {
		t.Fatalf("leave: status %d: %s", status, body)
	}
	pollUntil(t, 10*time.Second, "the seed to tombstone the leaver", func() bool {
		getJSON(t, seedURL+"/healthz", &health)
		for _, row := range health.Cluster {
			if row.URL == joinURL {
				return row.State == "left"
			}
		}
		return false
	})
	if health.Status != "ok" {
		t.Errorf("health %q after an administrative leave, want ok (left is not a failure)", health.Status)
	}
}

// TestClusterKillPeerFault drives the chaos-lane killpeer fault: the
// armed daemon's listener dies at the deadline while its process stays
// up, and the surviving peer walks it to dead and keeps serving.
func TestClusterKillPeerFault(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test builds and runs binaries")
	}
	bin := buildPilutd(t)
	p0, p1 := freePort(t), freePort(t)
	urls := []string{
		fmt.Sprintf("http://127.0.0.1:%d", p0),
		fmt.Sprintf("http://127.0.0.1:%d", p1),
	}
	peerFlag := urls[0] + "," + urls[1]
	common := []string{"-procs", "2", "-backend", "real", "-peers", peerFlag,
		"-peer-timeout-ms", "2000", "-probe-interval-ms", "150"}
	// Started individually, NOT via -spawn-peers: the launcher copies
	// flags to children, and the fault must hit exactly one daemon.
	survivorD := startDaemon(t, bin, append([]string{"-addr", fmt.Sprintf("127.0.0.1:%d", p0), "-self", urls[0]}, common...)...)
	victimD := startDaemon(t, bin, append([]string{"-addr", fmt.Sprintf("127.0.0.1:%d", p1), "-self", urls[1],
		"-faults", "killpeer=500"}, common...)...)
	_ = survivorD
	waitHealthy(t, urls[0])
	waitHealthy(t, urls[1])

	// Keep a workload cached on the survivor before the victim goes deaf.
	a := matgen.Grid2D(24, 24)
	b := make([]float64, a.N)
	for i := range b {
		b[i] = 1
	}
	key := submitMatrix(t, urls[0], a)
	submitMatrix(t, urls[1], a)
	var preKill clusterSolveReply
	if code, body := postJSON(t, urls[0]+"/v1/solve", map[string]any{"key": key, "b": b, "tol": 1e-8}, &preKill); code != http.StatusOK {
		t.Fatalf("pre-fault solve: status %d: %s", code, body)
	}

	// The fault closes the listener ~500ms after startup; the survivor's
	// probes then walk the victim to dead.
	var health struct {
		Status  string `json:"status"`
		Cluster []struct {
			URL   string `json:"url"`
			State string `json:"state"`
		} `json:"cluster"`
	}
	pollUntil(t, 15*time.Second, "the survivor to write the victim off", func() bool {
		getJSON(t, urls[0]+"/healthz", &health)
		for _, row := range health.Cluster {
			if row.URL == urls[1] && row.State == "dead" {
				return true
			}
		}
		return false
	})
	if health.Status != "degraded" {
		t.Errorf("survivor health %q, want degraded", health.Status)
	}
	// The victim's process is deaf, not dead — a crashed daemon leaves a
	// process behind, and the fault models exactly that.
	select {
	case <-victimD.done:
		t.Fatal("killpeer terminated the process; it must only close the listener")
	default:
	}

	var postKill clusterSolveReply
	if code, body := postJSON(t, urls[0]+"/v1/solve", map[string]any{"key": key, "b": b, "tol": 1e-8}, &postKill); code != http.StatusOK {
		t.Fatalf("post-fault solve: status %d: %s", code, body)
	}
	for i := range preKill.X {
		if math.Float64bits(preKill.X[i]) != math.Float64bits(postKill.X[i]) {
			t.Fatalf("survivor's answer changed after the fault at %d", i)
		}
	}
}
