// Command pilutd runs the parallel-ILUT solver as a long-lived HTTP
// daemon on top of internal/service: submit a matrix once (MatrixMarket
// body, content-addressed), then solve any number of right-hand sides
// against its cached factorization. Concurrent solves of the same matrix
// are coalesced into multi-RHS runs.
//
//	POST /v1/matrices   MatrixMarket body      → {"key", "n", "nnz", "known"}
//	POST /v1/solve      {"key", "b", ...}      → solution + solver stats
//	POST /v1/sequences  {"keys", "b", ...}     → per-step solutions; same-pattern
//	                                             steps reuse the symbolic analysis
//	                                             and warm-start from the previous step
//	GET  /v1/stats                             → service counters
//	GET  /metrics                              → Prometheus text metrics
//	GET  /healthz                              → {"status", "queue_depth", ...}; 503 while draining
//
// internal/service serves every route (Server.Routes): these, the
// token-guarded daemon-to-daemon routes (/v1/peer/*, /v1/cluster/*;
// -peers, -join) and a JSON 404 for any other path.
//
// Submitted matrices are held in a 32 MiB LRU tier, and a matrix whose
// factorization is cached stays solvable beyond it. A solve of a key
// neither holds answers 404: resubmit the matrix (same key) and retry.
// A sequence needs all of its keys held when it is accepted, or it
// answers 404 naming the missing ones; a family whose matrices exceed
// the tier is solved as several sequences, each after submitting its own
// matrices, chained by passing the last step's x as the next call's
// "x0". A single matrix above the tier is held only until the next
// submission, so solve it first.
//
// Every error response is a JSON object {"error": "..."}. Overload (full
// queue) answers 429 and an open per-matrix circuit breaker answers 503,
// both with a Retry-After header. SIGINT/SIGTERM drain in-flight
// requests before exiting; /healthz reports "draining" (503) meanwhile.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/fault"
	"repro/internal/ilu"
	"repro/internal/machine"
	"repro/internal/pcomm/backend"
	"repro/internal/service"
)

// splitPeers parses the -peers list, trimming blanks.
func splitPeers(list string) []string {
	var out []string
	for _, p := range strings.Split(list, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// launchPeers is the cluster launcher: it re-executes this binary once
// per other -peers entry, with -self switched to that entry, -addr
// derived from its URL, and -spawn-peers off (exactly one process
// launches the cluster). Children inherit every other flag, so the
// whole cluster shares one configuration — which ownership transfer
// requires. Children die with the launcher (SIGKILL on parent death)
// and are otherwise left to run; each drains independently on SIGTERM.
func launchPeers(peerList []string, self string) error {
	for _, peer := range peerList {
		if peer == self {
			continue
		}
		u, err := url.Parse(peer)
		if err != nil || u.Host == "" {
			return fmt.Errorf("peer %q is not a URL with a host", peer)
		}
		args := []string{"-addr", u.Host, "-self", peer, "-spawn-peers=false"}
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "addr", "self", "spawn-peers", "join", "faults":
				// -join would make every child re-join (the static -peers
				// list already covers them); -faults (e.g. killpeer) must
				// hit only the daemon it was aimed at.
				return
			}
			args = append(args, "-"+f.Name+"="+f.Value.String())
		})
		cmd := exec.Command(os.Args[0], args...)
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := cmd.Start(); err != nil {
			return fmt.Errorf("starting daemon for %s: %w", peer, err)
		}
		log.Printf("pilutd: launched peer daemon %s (pid %d)", peer, cmd.Process.Pid)
		go func(peer string) {
			if err := cmd.Wait(); err != nil {
				log.Printf("pilutd: peer daemon %s exited: %v", peer, err)
			}
		}(peer)
	}
	return nil
}

func main() {
	addr := flag.String("addr", "127.0.0.1:8417", "listen address (host:port, port 0 picks a free one)")
	procs := flag.Int("procs", 4, "virtual processors per factorization/solve")
	m := flag.Int("m", 10, "ILUT fill bound per row")
	tau := flag.Float64("tau", 1e-4, "ILUT drop threshold")
	k := flag.Int("k", 2, "ILUT* parameter K (0 selects plain ILUT)")
	workers := flag.Int("workers", 2, "concurrent batch executors")
	maxBatch := flag.Int("max-batch", 8, "right-hand sides coalesced per run")
	cacheMB := flag.Int64("cache-mb", 256, "factorization cache budget in MiB")
	t3d := flag.Bool("t3d", false, "model Cray T3D communication costs instead of free communication")
	backendKind := flag.String("backend", "modelled", "communication backend: modelled (virtual time) or real (wall-clock shared memory)")
	peers := flag.String("peers", "", "comma-separated base URLs of every cluster daemon (including this one); empty runs standalone")
	self := flag.String("self", "", "this daemon's base URL in -peers (e.g. http://127.0.0.1:8417)")
	spawnPeers := flag.Bool("spawn-peers", false, "launch one child pilutd per other -peers entry, forming the whole cluster from one command")
	peerTimeoutMs := flag.Int("peer-timeout-ms", 10000, "per-operation timeout for daemon-to-daemon calls (factor fetch, replication, health probes)")
	joinURL := flag.String("join", "", "base URL of a running cluster member to join at startup (requires -self; works with or without -peers)")
	replicas := flag.Int("replicas", 1, "HRW successors that receive a proactive copy of every locally built factor (0 disables replication)")
	probeIntervalMs := flag.Int("probe-interval-ms", 1000, "membership probe period in milliseconds (0 disables probing)")
	clusterToken := flag.String("cluster-token", os.Getenv("PILUT_CLUSTER_TOKEN"), "shared secret required on /v1/peer/* and /v1/cluster/* requests (default $PILUT_CLUSTER_TOKEN; empty disables)")
	traceDir := flag.String("trace-dir", "", "write a Chrome trace JSON file per machine run into this directory")
	maxTimeoutMs := flag.Int("max-timeout-ms", 600000, "per-request deadline cap in milliseconds; requests without timeout_ms get this deadline (0 disables)")
	maxQueue := flag.Int("max-queue", 1024, "queued solve requests beyond which the server sheds load with 429")
	faults := flag.String("faults", os.Getenv(fault.EnvVar), "deterministic fault-injection spec, e.g. \"seed=7,delay=0.2,panic=1@5\" (default $"+fault.EnvVar+")")
	flag.Parse()

	var spec *fault.Spec
	if *faults != "" {
		s, err := fault.Parse(*faults)
		if err != nil {
			log.Fatalf("pilutd: parsing fault spec: %v", err)
		}
		spec = s
		log.Printf("pilutd: FAULT INJECTION ACTIVE: %s", spec)
	}

	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			log.Fatalf("pilutd: trace dir: %v", err)
		}
	}

	cost := machine.Zero()
	if *t3d {
		cost = machine.T3D()
	}
	// Validate, don't build: constructing a netcomm world here would
	// rendezvous a whole process group just to check a flag (the service
	// rejects multi-process backends anyway — cluster distribution
	// happens at this HTTP layer, via -peers).
	if err := backend.Validate(*backendKind); err != nil {
		log.Fatalf("pilutd: %v", err)
	}
	var clusterCfg *service.ClusterConfig
	if *peers != "" || *joinURL != "" {
		peerList := splitPeers(*peers)
		if *self == "" {
			log.Fatalf("pilutd: -peers/-join require -self (this daemon's URL)")
		}
		probe := time.Duration(*probeIntervalMs) * time.Millisecond
		if *probeIntervalMs <= 0 {
			probe = -1 // explicit "disabled" — zero means "default" to the service
		}
		repl := *replicas
		if repl <= 0 {
			repl = -1 // same: flag 0 disables, config 0 defaults
		}
		clusterCfg = &service.ClusterConfig{
			Self:          *self,
			Peers:         peerList,
			OpTimeout:     time.Duration(*peerTimeoutMs) * time.Millisecond,
			Replicas:      repl,
			ProbeInterval: probe,
			Token:         *clusterToken,
		}
		if *spawnPeers {
			if err := launchPeers(peerList, *self); err != nil {
				log.Fatalf("pilutd: launching peers: %v", err)
			}
		}
	} else if *spawnPeers {
		log.Fatalf("pilutd: -spawn-peers requires -peers")
	}
	svc := service.New(service.Config{
		Procs:      *procs,
		Params:     ilu.Params{M: *m, Tau: *tau, K: *k},
		Cost:       cost,
		Backend:    *backendKind,
		Workers:    *workers,
		MaxBatch:   *maxBatch,
		CacheBytes: *cacheMB << 20,
		TraceDir:   *traceDir,
		MaxQueue:   *maxQueue,
		Faults:     spec,
		Cluster:    clusterCfg,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("pilutd: listen: %v", err)
	}
	mux := http.NewServeMux()
	svc.Routes(mux, time.Duration(*maxTimeoutMs)*time.Millisecond)
	srv := &http.Server{Handler: mux}
	log.Printf("pilutd listening on %s (procs=%d workers=%d max-batch=%d)",
		ln.Addr(), *procs, *workers, *maxBatch)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	// killpeer fault: hard-stop the listener after the deadline without
	// exiting the process — the daemon goes deaf mid-workload exactly like
	// a crashed peer, so chaos runs can watch the cluster write it off.
	var killFired atomic.Bool
	if d, ok := spec.KillPeerAfter(); ok {
		time.AfterFunc(d, func() {
			killFired.Store(true)
			log.Printf("pilutd: FAULT killpeer: closing listener after %v", d)
			srv.Close()
		})
	}

	if *joinURL != "" {
		// Listener is serving, so the seed's join broadcast can reach us.
		if err := svc.JoinCluster(*joinURL); err != nil {
			log.Fatalf("pilutd: joining cluster via %s: %v", *joinURL, err)
		}
		log.Printf("pilutd: joined cluster via %s", *joinURL)
	}

	select {
	case err := <-serveErr:
		if errors.Is(err, http.ErrServerClosed) && killFired.Load() {
			// Stay alive but deaf until signalled, as a real crash would
			// leave the process table entry behind.
			<-ctx.Done()
			log.Printf("pilutd: killpeer daemon reaped")
			return
		}
		log.Fatalf("pilutd: serve: %v", err)
	case <-ctx.Done():
	}
	log.Printf("pilutd: signal received, draining in-flight solves")
	shutCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	// Start draining the service first so /healthz answers 503
	// ("draining") while the HTTP server is still up finishing in-flight
	// solves; then stop accepting connections and wait for both.
	svcDone := make(chan error, 1)
	go func() { svcDone <- svc.Shutdown(shutCtx) }()
	if err := srv.Shutdown(shutCtx); err != nil {
		log.Printf("pilutd: http shutdown: %v", err)
	}
	if err := <-svcDone; err != nil {
		log.Printf("pilutd: service shutdown: %v", err)
	}
	log.Printf("pilutd: bye")
}
