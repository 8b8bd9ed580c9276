package service

import "sync"

// Histogram is a fixed-bucket histogram snapshot. Bounds are upper edges
// (non-cumulative counts); observations above the last bound land in
// Overflow.
type Histogram struct {
	Bounds   []float64 `json:"bounds"`
	Counts   []int64   `json:"counts"`
	Overflow int64     `json:"overflow"`
	Count    int64     `json:"count"`
	Sum      float64   `json:"sum"`
}

// histogram is the mutable counterpart; callers hold the collector lock.
type histogram struct {
	bounds   []float64
	counts   []int64
	overflow int64
	count    int64
	sum      float64
}

func newHistogram(bounds []float64) *histogram {
	return &histogram{bounds: bounds, counts: make([]int64, len(bounds))}
}

func (h *histogram) observe(v float64) {
	h.count++
	h.sum += v
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i]++
			return
		}
	}
	h.overflow++
}

func (h *histogram) snapshot() Histogram {
	return Histogram{
		Bounds:   append([]float64(nil), h.bounds...),
		Counts:   append([]int64(nil), h.counts...),
		Overflow: h.overflow,
		Count:    h.count,
		Sum:      h.sum,
	}
}

// CacheStats describes the factorization cache and its symbolic tier.
type CacheStats struct {
	Entries        int   `json:"entries"`
	Bytes          int64 `json:"bytes"`
	BudgetBytes    int64 `json:"budget_bytes"`
	Hits           int64 `json:"hits"`
	Misses         int64 `json:"misses"`
	Evictions      int64 `json:"evictions"`
	Factorizations int64 `json:"factorizations"`

	// Symbolic-tier counters. A symbolic hit means a build found the
	// pattern's analysis already cached (only the numeric phase ran);
	// RefactorBuilds counts exactly those value-only rebuilds.
	SymbolicEntries int   `json:"symbolic_entries"`
	SymbolicBytes   int64 `json:"symbolic_bytes"`
	SymbolicHits    int64 `json:"symbolic_hits"`
	SymbolicMisses  int64 `json:"symbolic_misses"`
	RefactorBuilds  int64 `json:"refactor_builds"`

	// Matrix-tier counters: the bytes of the submitted matrices held,
	// the tier's budget (matrixBudget) and how many it has evicted.
	MatrixBytes       int64 `json:"matrix_bytes"`
	MatrixBudgetBytes int64 `json:"matrix_budget_bytes"`
	MatrixEvictions   int64 `json:"matrix_evictions"`
}

// SolveStats describes the solve pipeline.
type SolveStats struct {
	Requests  int64 `json:"requests"`
	Completed int64 `json:"completed"`
	Canceled  int64 `json:"canceled"`
	Errors    int64 `json:"errors"`

	Batches    int64 `json:"batches"`
	BatchedRHS int64 `json:"batched_rhs"`
	MaxBatch   int   `json:"max_batch"`

	// Failure-containment counters: Shed counts requests rejected by the
	// bounded queue, BreakerRejected counts requests bounced off an open
	// circuit breaker, LadderRetries counts recovery-ladder rung climbs
	// after a breakdown, and Degraded counts solves answered through a
	// ladder-built (degraded) preconditioner.
	Shed            int64 `json:"shed"`
	BreakerRejected int64 `json:"breaker_rejected"`
	LadderRetries   int64 `json:"ladder_retries"`
	Degraded        int64 `json:"degraded"`

	// Sequence counters: WarmStarted counts solves seeded with a caller
	// initial guess (Options.X0), Sequences counts SolveSequence calls and
	// SequenceSteps their total step count.
	WarmStarted   int64 `json:"warm_started"`
	Sequences     int64 `json:"sequences"`
	SequenceSteps int64 `json:"sequence_steps"`

	// LatencyMs is wall-clock milliseconds from request acceptance to
	// response; Iterations is matrix–vector products per completed solve.
	LatencyMs  Histogram `json:"latency_ms"`
	Iterations Histogram `json:"iterations"`

	// ModelledSeconds accumulates the virtual machine clock of every
	// solve run (the paper's cost model, not wall time).
	ModelledSeconds float64 `json:"modelled_seconds"`
}

// Stats is a point-in-time snapshot of the whole service.
type Stats struct {
	// Matrices counts the submitted matrices the matrix tier holds now;
	// the tier evicts under its byte budget.
	Matrices   int        `json:"matrices"`
	QueueDepth int        `json:"queue_depth"`
	Running    int        `json:"running_batches"`
	Cache      CacheStats `json:"cache"`
	Solves     SolveStats `json:"solves"`
	// HeldBytes is what the tiers of every live server in the process
	// hold (one server in a daemon), and MemoryLimitBytes the runtime
	// memory limit set from it: HeldBytes plus heapAllowance, capped at
	// the limit the process started with.
	HeldBytes        int64 `json:"held_bytes"`
	MemoryLimitBytes int64 `json:"memory_limit_bytes"`
	// Cluster carries cross-daemon traffic counters; nil outside a
	// cluster.
	Cluster *ClusterStats `json:"cluster,omitempty"`
}

var (
	latencyBoundsMs = []float64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000}
	iterationBounds = []float64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000}
)

// statsCollector aggregates the solve-side counters in the SolveStats
// they are reported as; cache counters live in the caches themselves and
// are merged at snapshot time.
type statsCollector struct {
	mu sync.Mutex
	v  SolveStats // LatencyMs and Iterations are rendered at snapshot
	// The mutable histograms behind v.LatencyMs and v.Iterations.
	latency    *histogram
	iterations *histogram
}

func newStatsCollector() *statsCollector {
	return &statsCollector{
		latency:    newHistogram(latencyBoundsMs),
		iterations: newHistogram(iterationBounds),
	}
}

// count adds one to a counter of s.v, e.g. s.count(&s.v.Shed).
func (s *statsCollector) count(c *int64) {
	s.mu.Lock()
	*c++
	s.mu.Unlock()
}

func (s *statsCollector) batch(size int, modelledSeconds float64) {
	s.mu.Lock()
	s.v.Batches++
	s.v.BatchedRHS += int64(size)
	if size > s.v.MaxBatch {
		s.v.MaxBatch = size
	}
	s.v.ModelledSeconds += modelledSeconds
	s.mu.Unlock()
}

func (s *statsCollector) completedSolve(latencyMs float64, iterations int) {
	s.mu.Lock()
	s.v.Completed++
	s.latency.observe(latencyMs)
	s.iterations.observe(float64(iterations))
	s.mu.Unlock()
}

func (s *statsCollector) sequence(steps int) {
	s.mu.Lock()
	s.v.Sequences++
	s.v.SequenceSteps += int64(steps)
	s.mu.Unlock()
}

func (s *statsCollector) snapshot() SolveStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.v
	out.LatencyMs = s.latency.snapshot()
	out.Iterations = s.iterations.snapshot()
	return out
}
