// Package service turns the paper's reproduction into a long-lived
// solver service: submitted matrices are content-addressed by their
// sparse fingerprint, factorizations are computed once per distinct
// matrix and kept in a byte-budgeted LRU cache, and solve requests are
// executed by a worker pool that coalesces concurrent right-hand sides
// for the same matrix into one multi-RHS lock-step GMRES run sharing a
// single preconditioner-application pipeline. Requests carry a
// context.Context whose deadline or cancellation aborts the simulated
// machine run collectively.
package service

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/ilu"
	"repro/internal/krylov"
	"repro/internal/machine"
	"repro/internal/pcomm"
	"repro/internal/pcomm/backend"
	"repro/internal/pcomm/netcomm"
	"repro/internal/sparse"
	"repro/internal/trace"
)

var (
	// ErrUnknownMatrix is returned by Solve for a key no Submit produced.
	ErrUnknownMatrix = errors.New("service: unknown matrix key")
	// ErrClosed is returned for requests arriving after Shutdown began.
	ErrClosed = errors.New("service: server is shutting down")
	// ErrOverloaded is the load-shedding sentinel: the bounded request
	// queue is full. Match the *OverloadedError for the retry hint.
	ErrOverloaded = errors.New("service: request queue full")
	// ErrBreakerOpen is the circuit-breaker sentinel: this matrix key
	// keeps failing and is short-circuited until a cooldown expires.
	// Match the *BreakerOpenError for the retry hint.
	ErrBreakerOpen = errors.New("service: circuit breaker open for matrix")
)

// OverloadedError is the shed verdict of the bounded request queue;
// RetryAfter is the client back-off hint (pilutd turns it into a 429
// with a Retry-After header).
type OverloadedError struct {
	QueueDepth int
	RetryAfter time.Duration
}

func (e *OverloadedError) Error() string {
	return fmt.Sprintf("service: request queue full (%d queued), retry in %v", e.QueueDepth, e.RetryAfter)
}

// Is makes errors.Is(err, ErrOverloaded) match.
func (e *OverloadedError) Is(target error) bool { return target == ErrOverloaded }

// BreakerOpenError rejects a request for a key whose circuit breaker is
// open; RetryAfter is the cooldown remaining until the next probe.
type BreakerOpenError struct {
	Key        string
	RetryAfter time.Duration
}

func (e *BreakerOpenError) Error() string {
	return fmt.Sprintf("service: circuit breaker open for matrix %s, retry in %v", e.Key, e.RetryAfter)
}

// Is makes errors.Is(err, ErrBreakerOpen) match.
func (e *BreakerOpenError) Is(target error) bool { return target == ErrBreakerOpen }

// Config configures a Server. The zero value of every field selects a
// sensible default.
type Config struct {
	// Procs is the number of virtual processors each factorization and
	// solve runs on. Default 4.
	Procs int
	// Params are the ILUT/ILUT* parameters. Default ILUT*(10, 1e-4, 2).
	Params ilu.Params
	// MISRounds and Seed are passed through to core.Factor.
	MISRounds int
	Seed      int64
	// Cost is the virtual machine cost model. The zero value models free
	// communication; use machine.T3D() for the paper's machine. Ignored by
	// the real backend.
	Cost machine.CostModel
	// Backend picks the communication backend every run uses: "" or
	// "modelled" for the simulated machine, "real" for wall-clock shared
	// memory. Both produce bitwise-identical factors and solutions;
	// ModelledSeconds becomes wall time under the real backend. The
	// multi-process "netcomm" backend is rejected: a server's request
	// streams live in one process, so distribution happens at the HTTP
	// layer (a pilutd cluster of single-process daemons), not inside a
	// run's world.
	Backend string
	// Workers is the number of concurrent batch executors. Default 2.
	Workers int
	// MaxBatch caps how many right-hand sides one machine run solves
	// together. Default 8.
	MaxBatch int
	// CacheBytes is the factorization cache budget. Default 256 MiB.
	CacheBytes int64
	// TraceDir, when non-empty, writes one Chrome trace-event JSON file
	// per machine run into the directory: factor-<key>-<stamp>.json for
	// factorizations and solve-<key>-<stamp>.json for solve batches. Empty
	// (the default) attaches no recorder, so runs pay no tracing cost.
	TraceDir string
	// Faults, when non-nil, wraps every run's world with the
	// deterministic fault-injection layer (internal/fault) and threads
	// Faults.PivotScale into the factorization's pivot perturbation.
	// Production servers leave it nil; chaos tests and the PILUT_FAULTS
	// environment drive it.
	Faults *fault.Spec
	// MaxQueue bounds the accepted-but-not-yet-running solve requests;
	// beyond it Solve sheds load with an *OverloadedError. Default 1024.
	MaxQueue int
	// Watchdog is the per-run deadlock timeout of every factorization
	// and solve run. Default 2 minutes.
	Watchdog time.Duration
	// BreakerFailures is the consecutive-failure count that opens a
	// matrix key's circuit breaker; BreakerCooldown is how long it stays
	// open before one probe request is admitted. Defaults 3 and 30s.
	BreakerFailures int
	BreakerCooldown time.Duration
	// Cluster, when non-nil, makes this server one member of a static
	// pilutd cluster: matrix fingerprints are routed across the peer
	// list by rendezvous hashing, cache misses for keys another daemon
	// owns are satisfied by fetching its factorization over the
	// /v1/peer/ API (falling back to a local build when the peer is
	// down), and new matrices are replicated to their owner. All peers
	// must run identical Procs, Seed and Params.
	Cluster *ClusterConfig
	// MaxRepairRate is the global pivot-repair rate above which a
	// factorization is declared broken down (see core.Options). Default
	// 0.25; negative disables breakdown detection.
	MaxRepairRate float64
}

// run executes f on every processor of one fresh world — the only way
// the service starts a machine run. The world is the configured backend
// wrapped in the fault-injection layer when Config.Faults is set, under
// the per-run watchdog; a failed run (processor panic, deadlock) comes
// back as an error. With TraceDir set the run's events are written to
// <kind>-<key>-<stamp>.json. New validates cfg.Backend, so an unknown
// kind here cannot happen for a server built through New.
func (s *Server) run(kind, key string, f func(pcomm.Comm)) (pcomm.Result, error) {
	w, err := backend.New(s.cfg.Backend, s.cfg.Procs, s.cfg.Cost)
	if err != nil {
		panic(err)
	}
	m := s.cfg.Faults.World(w)
	m.SetWatchdog(s.cfg.Watchdog)
	var rec *trace.Recorder
	if s.cfg.TraceDir != "" {
		rec = trace.NewRecorder(s.cfg.Procs)
		m.SetRecorder(rec)
	}
	res, err := pcomm.Guard(m, f)
	if rec != nil {
		writeRunTrace(s.cfg.TraceDir, kind, key, rec)
	}
	return res, err
}

func (c Config) withDefaults() Config {
	if c.Procs <= 0 {
		c.Procs = 4
	}
	if c.Params.M == 0 && c.Params.Tau == 0 && c.Params.K == 0 {
		c.Params = ilu.Params{M: 10, Tau: 1e-4, K: 2}
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 8
	}
	if c.CacheBytes <= 0 {
		c.CacheBytes = 256 << 20
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 1024
	}
	if c.Watchdog <= 0 {
		c.Watchdog = 2 * time.Minute
	}
	if c.BreakerFailures <= 0 {
		c.BreakerFailures = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 30 * time.Second
	}
	switch {
	case c.MaxRepairRate == 0:
		c.MaxRepairRate = 0.25
	case c.MaxRepairRate < 0:
		c.MaxRepairRate = 0 // disables the check in core.Factor
	}
	return c
}

// SolveOptions select the Krylov parameters of one request. Requests for
// the same matrix with identical Krylov parameters are batchable. Zero
// values take the krylov package defaults.
type SolveOptions struct {
	Restart   int
	Tol       float64
	MaxMatVec int
	// X0, when non-nil, warm-starts the solve from the given global
	// initial guess (length n); the classic use is a matrix sequence,
	// where the previous step's solution starts the next step a few
	// digits in. X0 does not split batches — each right-hand side carries
	// its own guess into its slot of the multi-RHS run.
	X0 []float64
}

// batchKey is the comparable batching identity of SolveOptions: requests
// for one matrix coalesce only when these agree. X0 is deliberately
// excluded (see SolveOptions.X0).
type batchKey struct {
	restart   int
	tol       float64
	maxMatVec int
}

func (o SolveOptions) batchKey() batchKey {
	return batchKey{restart: o.Restart, tol: o.Tol, maxMatVec: o.MaxMatVec}
}

// SolveResult is the answer to one solve request.
type SolveResult struct {
	Key        string    `json:"key"`
	X          []float64 `json:"x"`
	Converged  bool      `json:"converged"`
	Iterations int       `json:"iterations"` // matrix–vector products
	Restarts   int       `json:"restarts"`
	Residual   float64   `json:"residual"` // preconditioned relative residual
	CacheHit   bool      `json:"cache_hit"`
	BatchSize  int       `json:"batch_size"` // right-hand sides in the run that solved this
	// ModelledSeconds is the virtual machine time of the run (shared by
	// the whole batch), excluding factorization.
	ModelledSeconds float64 `json:"modelled_seconds"`
	// Degraded marks a solve answered through a recovery-ladder
	// preconditioner instead of the configured factorization;
	// LadderStep names the rung ("shift", "relaxed", "blockjacobi").
	Degraded   bool   `json:"degraded,omitempty"`
	LadderStep string `json:"ladder_step,omitempty"`
	// SymbolicHit marks a solve through an entry that was built (a
	// refactor-only build) or imported under a cached symbolic analysis;
	// WarmStarted marks a solve seeded with a caller initial guess.
	SymbolicHit bool `json:"symbolic_hit,omitempty"`
	WarmStarted bool `json:"warm_started,omitempty"`
}

type outcome struct {
	res SolveResult
	err error
}

type request struct {
	key  string
	b    []float64
	opt  SolveOptions
	ctx  context.Context
	enq  time.Time
	done chan outcome
}

// Server is the solver service. Create one with New, stop it with
// Shutdown.
type Server struct {
	cfg   Config
	stats *statsCollector

	mu        sync.Mutex
	cond      *sync.Cond
	matrices  *matrixStore
	cache     *lru[*entry]    // factorizations by matrix fingerprint
	symbolic  *lru[*symEntry] // analyses by pattern fingerprint
	breaker   *breaker
	cluster   *cluster              // nil outside a cluster
	pending   map[string][]*request // per key, FIFO
	scheduled map[string]bool       // key is queued or being run
	keyq      []string
	queued    int // requests in pending, for the MaxQueue bound
	running   int
	draining  bool // reject new requests
	aborting  bool // fail queued requests instead of solving them
	stopping  bool // workers exit once the queue is empty
	// factorizations counts completed local builds, refactors those of
	// them that reused a cached analysis; imports count as neither.
	factorizations int64
	refactors      int64

	reqWG    sync.WaitGroup // accepted, not-yet-answered requests
	workerWG sync.WaitGroup

	// Membership probe loop (cluster members with probing enabled).
	probeStop     chan struct{}
	stopProbeOnce sync.Once
	probeWG       sync.WaitGroup
	// Asynchronous replica pushes after local builds; drained by
	// Shutdown after the workers (their only spawner) have exited.
	replWG sync.WaitGroup
}

// New starts a Server with cfg.Workers executor goroutines. It panics on
// an unknown or unusable cfg.Backend so a misconfigured daemon fails at
// startup instead of on its first request. Validation must not build a
// world: constructing a netcomm world would rendezvous a whole process
// group just to be told no.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	if netcomm.IsSpec(cfg.Backend) {
		panic(fmt.Errorf("service: backend %q is multi-process; a server runs in one process — shard work across daemons with pilutd -peers instead", cfg.Backend))
	}
	if err := backend.Validate(cfg.Backend); err != nil {
		panic(err)
	}
	clusterCfg, err := cfg.Cluster.withDefaults()
	if err != nil {
		panic(err)
	}
	s := &Server{
		cfg:       cfg,
		stats:     newStatsCollector(),
		matrices:  newMatrixStore(),
		cache:     newLRU[*entry](cfg.CacheBytes),
		symbolic:  newLRU[*symEntry](symbolicBudget),
		breaker:   newBreaker(cfg.BreakerFailures, cfg.BreakerCooldown),
		pending:   make(map[string][]*request),
		scheduled: make(map[string]bool),
	}
	if clusterCfg != nil {
		s.cluster = newCluster(clusterCfg, cfg.BreakerFailures, cfg.BreakerCooldown)
		if s.cluster.probeInterval > 0 {
			s.probeStop = make(chan struct{})
			s.probeWG.Add(1)
			go func() {
				defer s.probeWG.Done()
				s.probeLoop(s.probeStop)
			}()
		}
	}
	s.cond = sync.NewCond(&s.mu)
	s.workerWG.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// Submit registers a matrix and returns its content key. Submitting the
// same matrix (by content, not by pointer) again returns the same key
// with known = true and costs nothing. The matrix must be square with at
// least Procs rows and finite values.
func (s *Server) Submit(a *sparse.CSR) (key string, known bool, err error) {
	if a == nil {
		return "", false, fmt.Errorf("service: nil matrix")
	}
	if a.N != a.M {
		return "", false, fmt.Errorf("service: matrix must be square, got %d×%d", a.N, a.M)
	}
	if a.N < s.cfg.Procs {
		return "", false, fmt.Errorf("service: matrix has %d rows, need at least one per processor (%d)", a.N, s.cfg.Procs)
	}
	for _, v := range a.Vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return "", false, fmt.Errorf("service: matrix holds a non-finite value %v", v)
		}
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return "", false, ErrClosed
	}
	key, known = s.matrices.put(a)
	s.mu.Unlock()
	if !known {
		// In a cluster, push new matrices to their owning daemon so
		// ownership works in the submit-anywhere flow (no-op otherwise).
		s.replicateMatrix(key, a)
	}
	return key, known, nil
}

// Solve solves A·x = b for the matrix registered under key and returns
// the solution. Concurrent Solve calls for the same key with the same
// options are coalesced into one multi-RHS run. A canceled or expired
// ctx makes Solve return an error wrapping krylov.ErrCanceled; a nil ctx
// never cancels.
func (s *Server) Solve(ctx context.Context, key string, b []float64, opt SolveOptions) (SolveResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return SolveResult{}, ErrClosed
	}
	a, ok := s.matrices.get(key)
	if !ok {
		s.mu.Unlock()
		return SolveResult{}, fmt.Errorf("%w: %q", ErrUnknownMatrix, key)
	}
	if len(b) != a.N {
		s.mu.Unlock()
		return SolveResult{}, fmt.Errorf("service: right-hand side has %d entries for an n=%d matrix", len(b), a.N)
	}
	if opt.X0 != nil {
		if len(opt.X0) != a.N {
			s.mu.Unlock()
			return SolveResult{}, fmt.Errorf("service: initial guess has %d entries for an n=%d matrix", len(opt.X0), a.N)
		}
		opt.X0 = append([]float64(nil), opt.X0...)
	}
	if wait, ok := s.breaker.allow(key); !ok {
		s.stats.count(&s.stats.v.BreakerRejected)
		s.mu.Unlock()
		return SolveResult{}, &BreakerOpenError{Key: key, RetryAfter: wait}
	}
	if s.queued >= s.cfg.MaxQueue {
		s.stats.count(&s.stats.v.Shed)
		depth := s.queued
		s.mu.Unlock()
		return SolveResult{}, &OverloadedError{QueueDepth: depth, RetryAfter: time.Second}
	}
	req := &request{
		key:  key,
		b:    append([]float64(nil), b...),
		opt:  opt,
		ctx:  ctx,
		enq:  time.Now(),
		done: make(chan outcome, 1),
	}
	s.stats.count(&s.stats.v.Requests)
	s.reqWG.Add(1)
	s.pending[key] = append(s.pending[key], req)
	s.queued++
	if !s.scheduled[key] {
		s.scheduled[key] = true
		s.keyq = append(s.keyq, key)
		s.cond.Signal()
	}
	s.mu.Unlock()

	select {
	case out := <-req.done:
		return out.res, out.err
	case <-ctx.Done():
		// The worker still owns the request and will drain req.done (it
		// is buffered); the caller gets the cancellation immediately.
		return SolveResult{}, fmt.Errorf("%w: %v", krylov.ErrCanceled, ctx.Err())
	}
}

// Health is the liveness summary served by pilutd's /healthz endpoint.
type Health struct {
	// Status is "ok" while the server accepts work and "draining" once
	// Shutdown has begun.
	Status string `json:"status"`
	// QueueDepth is the number of accepted-but-unanswered solve requests.
	QueueDepth int `json:"queue_depth"`
	// BreakerOpenKeys lists matrix keys whose circuit breaker is
	// currently open, sorted.
	BreakerOpenKeys []string `json:"breaker_open_keys"`
	// DegradedSolves counts solves answered through a recovery-ladder
	// preconditioner since startup.
	DegradedSolves int64 `json:"degraded_solves"`
}

// Health reports the server's failure-containment state.
func (s *Server) Health() Health {
	s.mu.Lock()
	h := Health{
		Status:          "ok",
		QueueDepth:      s.queued,
		BreakerOpenKeys: s.breaker.openKeys(),
	}
	if s.draining {
		h.Status = "draining"
	}
	s.mu.Unlock()
	s.stats.mu.Lock()
	h.DegradedSolves = s.stats.v.Degraded
	s.stats.mu.Unlock()
	if h.BreakerOpenKeys == nil {
		h.BreakerOpenKeys = []string{}
	}
	return h
}

// StatsSnapshot returns a point-in-time view of the service counters.
func (s *Server) StatsSnapshot() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	depth := 0
	for _, q := range s.pending {
		depth += len(q)
	}
	st := Stats{
		Matrices:   s.matrices.len(),
		QueueDepth: depth,
		Running:    s.running,
		Cache: CacheStats{
			Entries:         len(s.cache.items),
			Bytes:           s.cache.bytes,
			BudgetBytes:     s.cache.budget,
			Hits:            s.cache.hits,
			Misses:          s.cache.misses,
			Evictions:       s.cache.evictions,
			Factorizations:  s.factorizations,
			SymbolicEntries: len(s.symbolic.items),
			SymbolicBytes:   s.symbolic.bytes,
			SymbolicHits:    s.symbolic.hits,
			SymbolicMisses:  s.symbolic.misses,
			RefactorBuilds:  s.refactors,
		},
		Solves: s.stats.snapshot(),
	}
	if s.cluster != nil {
		st.Cluster = s.cluster.snapshot()
	}
	return st
}

// Shutdown stops the service gracefully: new Submit/Solve calls are
// rejected immediately, every already-accepted request is answered, then
// the workers exit. If ctx expires first, requests still waiting in the
// queue are failed with ErrClosed instead of being solved (batches
// already running always finish), and ctx's error is returned.
func (s *Server) Shutdown(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	// Stop the membership heartbeat first: a drain must not keep
	// mutating the view or re-pushing replicas.
	if s.probeStop != nil {
		s.stopProbeOnce.Do(func() { close(s.probeStop) })
	}

	drained := make(chan struct{})
	go func() {
		s.reqWG.Wait()
		close(drained)
	}()
	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		err = ctx.Err()
		s.mu.Lock()
		s.aborting = true
		s.cond.Broadcast()
		s.mu.Unlock()
		<-drained
	}

	s.mu.Lock()
	s.stopping = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.workerWG.Wait()
	s.probeWG.Wait()
	// Workers are gone, so no new replica pushes can start; wait out the
	// in-flight ones (each bounded by the cluster op timeout).
	s.replWG.Wait()
	return err
}

// worker executes batches. At most one batch per key runs at a time
// (entries hold per-processor state that a run uses exclusively), so a
// key is either in keyq or being run, never both.
func (s *Server) worker() {
	defer s.workerWG.Done()
	for {
		s.mu.Lock()
		for len(s.keyq) == 0 && !s.stopping {
			s.cond.Wait()
		}
		if len(s.keyq) == 0 {
			s.mu.Unlock()
			return
		}
		key := s.keyq[0]
		s.keyq = s.keyq[1:]
		batch := s.takeBatchLocked(key)
		aborting := s.aborting
		s.running++
		s.mu.Unlock()

		if aborting {
			s.failBatch(batch, ErrClosed)
		} else {
			s.runBatch(key, batch)
		}

		s.mu.Lock()
		s.running--
		if len(s.pending[key]) > 0 {
			s.keyq = append(s.keyq, key)
			s.cond.Signal()
		} else {
			delete(s.pending, key)
			delete(s.scheduled, key)
		}
		s.mu.Unlock()
	}
}

// takeBatchLocked removes up to MaxBatch requests for key that share the
// head request's options, preserving FIFO order of the rest.
func (s *Server) takeBatchLocked(key string) []*request {
	q := s.pending[key]
	if len(q) == 0 {
		return nil
	}
	head := q[0].opt.batchKey()
	var batch, rest []*request
	for _, r := range q {
		if len(batch) < s.cfg.MaxBatch && r.opt.batchKey() == head {
			batch = append(batch, r)
		} else {
			rest = append(rest, r)
		}
	}
	s.pending[key] = rest
	s.queued -= len(batch)
	return batch
}

func (s *Server) respond(r *request, out outcome) {
	r.done <- out
	s.reqWG.Done()
}

func (s *Server) failBatch(batch []*request, err error) {
	for _, r := range batch {
		if errors.Is(err, krylov.ErrCanceled) {
			s.stats.count(&s.stats.v.Canceled)
		} else {
			s.stats.count(&s.stats.v.Errors)
		}
		s.respond(r, outcome{err: err})
	}
}

// entryFor returns the cached factorization for key. On a miss, a
// cluster member first asks the key's owning daemon for its cached
// factorization (bitwise identical rows, no recomputation); any peer
// failure — or no cluster at all — falls through to a local build. The
// expensive paths run without the server lock; per-key exclusive
// dispatch guarantees no duplicate concurrent build.
func (s *Server) entryFor(key string) (*entry, bool, error) {
	s.mu.Lock()
	ent, ok := s.cache.lookup(key)
	s.mu.Unlock()
	if ok {
		return ent, true, nil
	}
	if ent, ok := s.peerFetch(key); ok {
		s.admit(ent, originPeer)
		return ent, false, nil
	}
	return s.entryForLocal(key)
}

// admit publishes a finished entry in the factor cache under its origin
// (originLocal, originPeer, originReplica), sized here and nowhere else.
// Only locally built entries count as factorizations; peer-imported ones
// are visible in ClusterStats.PeerFetchHits and ReplicaImports instead.
func (s *Server) admit(ent *entry, origin string) {
	ent.origin = origin
	bytes := ent.a.SizeBytes()
	for q := range ent.pcs {
		bytes += ent.pcs[q].SizeBytes() + ent.mats[q].SizeBytes()
	}
	s.mu.Lock()
	s.cache.insert(ent.key, ent, bytes)
	if origin == originLocal {
		s.factorizations++
	}
	s.mu.Unlock()
}

// entryForLocal resolves key strictly on this daemon: cache hit or
// local build, never a peer fetch. The peer-serve path uses it so two
// daemons with disagreeing peer lists cannot route a fetch in a cycle.
func (s *Server) entryForLocal(key string) (*entry, bool, error) {
	s.mu.Lock()
	// Uncounted: the caller either already recorded the miss (entryFor)
	// or is a peer serve, which must not perturb local cache counters.
	ent, ok := s.cache.peek(key)
	if ok {
		s.mu.Unlock()
		return ent, true, nil
	}
	a, ok := s.matrices.get(key)
	s.mu.Unlock()
	if !ok {
		return nil, false, fmt.Errorf("%w: %q", ErrUnknownMatrix, key)
	}
	ent, err := s.buildEntry(key, a)
	if err != nil {
		return nil, false, err
	}
	s.admit(ent, originLocal)
	// The owner protects a fresh factorization by pushing it to its HRW
	// successors; off the request path so the build's caller never waits
	// on peer round-trips.
	if s.cluster != nil {
		s.replWG.Add(1)
		go func() {
			defer s.replWG.Done()
			s.maybeReplicate(ent)
		}()
	}
	return ent, false, nil
}

// mergedContext returns a context that cancels only when every member
// request's context is done: as long as one right-hand side of the batch
// is still wanted, the run continues and the others simply ignore their
// (already answered) results.
func mergedContext(reqs []*request) (context.Context, func()) {
	if len(reqs) == 1 {
		return reqs[0].ctx, func() {}
	}
	ctx, cancel := context.WithCancel(context.Background())
	var remaining atomic.Int64
	remaining.Store(int64(len(reqs)))
	stops := make([]func() bool, 0, len(reqs))
	for _, r := range reqs {
		stops = append(stops, context.AfterFunc(r.ctx, func() {
			if remaining.Add(-1) == 0 {
				cancel()
			}
		}))
	}
	return ctx, func() {
		for _, stop := range stops {
			stop()
		}
		cancel()
	}
}

// recordOutcome feeds one batch verdict to the key's circuit breaker.
// Cancellations say nothing about the matrix: they only revert a pending
// half-open probe. Unknown keys are client errors, not matrix failures.
func (s *Server) recordOutcome(key string, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case err == nil:
		s.breaker.success(key)
	case errors.Is(err, krylov.ErrCanceled):
		s.breaker.cancel(key)
	case errors.Is(err, ErrUnknownMatrix):
	default:
		s.breaker.failure(key)
	}
}

// runBatch factors (or fetches) the matrix and solves the batch in one
// simulated machine run.
func (s *Server) runBatch(key string, batch []*request) {
	if len(batch) == 0 {
		return
	}
	ent, hit, err := s.entryFor(key)
	if err != nil {
		s.recordOutcome(key, err)
		s.failBatch(batch, err)
		return
	}

	// Requests whose context died while queued are answered without
	// occupying a right-hand-side slot.
	var live []*request
	for _, r := range batch {
		if cause := r.ctx.Err(); cause != nil {
			s.stats.count(&s.stats.v.Canceled)
			s.respond(r, outcome{err: fmt.Errorf("%w: %v", krylov.ErrCanceled, cause)})
			continue
		}
		live = append(live, r)
	}
	if len(live) == 0 {
		return
	}

	bctx, stop := mergedContext(live)
	defer stop()
	B := len(live)
	o := live[0].opt
	opt := krylov.Options{Restart: o.Restart, Tol: o.Tol, MaxMatVec: o.MaxMatVec, Ctx: bctx}

	bParts := make([][][]float64, B)
	x0Parts := make([][][]float64, B)
	xsParts := make([][][]float64, B)
	for bi, r := range live {
		bParts[bi] = ent.lay.Scatter(r.b)
		if r.opt.X0 != nil {
			x0Parts[bi] = ent.lay.Scatter(r.opt.X0)
		}
		xsParts[bi] = make([][]float64, s.cfg.Procs)
	}
	perRes := make([]krylov.Result, B)
	procErrs := make([]error, s.cfg.Procs)

	mres, runErr := s.run("solve", key, func(proc pcomm.Comm) {
		xs := make([][]float64, B)
		bs := make([][]float64, B)
		for bi := 0; bi < B; bi++ {
			xs[bi] = make([]float64, ent.lay.NLocal(proc.ID()))
			if x0Parts[bi] != nil {
				copy(xs[bi], x0Parts[bi][proc.ID()])
			}
			bs[bi] = bParts[bi][proc.ID()]
		}
		rs, serr := krylov.DistGMRESBatch(proc, ent.mats[proc.ID()], ent.pcs[proc.ID()], xs, bs, opt)
		procErrs[proc.ID()] = serr
		for bi := 0; bi < B; bi++ {
			xsParts[bi][proc.ID()] = xs[bi]
		}
		if proc.ID() == 0 && len(rs) == B {
			copy(perRes, rs)
		}
	})
	if runErr != nil {
		runErr = fmt.Errorf("service: solve of %s failed: %w", key, runErr)
	} else {
		// The solve error is SPMD-collective: every processor returns the
		// same one.
		runErr = procErrs[0]
	}
	s.recordOutcome(key, runErr)
	if runErr != nil {
		s.failBatch(live, runErr)
		return
	}

	s.stats.batch(B, mres.Elapsed)
	for bi, r := range live {
		x := ent.lay.Gather(xsParts[bi])
		res := SolveResult{
			Key:             key,
			X:               x,
			Converged:       perRes[bi].Converged,
			Iterations:      perRes[bi].NMatVec,
			Restarts:        perRes[bi].Restarts,
			Residual:        perRes[bi].Residual,
			CacheHit:        hit,
			BatchSize:       B,
			ModelledSeconds: mres.Elapsed,
			Degraded:        ent.degraded,
			LadderStep:      ent.ladderStep,
			SymbolicHit:     ent.symbolicHit,
			WarmStarted:     r.opt.X0 != nil,
		}
		s.stats.completedSolve(float64(time.Since(r.enq))/float64(time.Millisecond), res.Iterations)
		if ent.degraded {
			s.stats.count(&s.stats.v.Degraded)
		}
		if res.WarmStarted {
			s.stats.count(&s.stats.v.WarmStarted)
		}
		s.respond(r, outcome{res: res})
	}
}

// SolveSequence solves the same right-hand side against a sequence of
// registered matrices in order — the matrix-sequence workflow (evolving
// values, typically a fixed pattern). Consecutive same-pattern steps
// reuse the cached symbolic analysis (refactor-only builds), and with
// warmStart set each step starts from the previous step's solution. The
// first error stops the sequence and is returned alongside the results
// of the steps already completed.
func (s *Server) SolveSequence(ctx context.Context, keys []string, b []float64, opt SolveOptions, warmStart bool) ([]SolveResult, error) {
	if len(keys) == 0 {
		return nil, fmt.Errorf("service: empty matrix sequence")
	}
	s.stats.sequence(len(keys))
	results := make([]SolveResult, 0, len(keys))
	var prev []float64
	for i, key := range keys {
		o := opt
		if warmStart && prev != nil {
			o.X0 = prev
		}
		res, err := s.Solve(ctx, key, b, o)
		if err != nil {
			return results, fmt.Errorf("service: sequence step %d (%s): %w", i, key, err)
		}
		results = append(results, res)
		prev = res.X
	}
	return results, nil
}
