package service

import (
	"fmt"
	"io"
	"strconv"
)

// WriteMetrics renders a point-in-time snapshot of the service counters in
// the Prometheus text exposition format (version 0.0.4), suitable for
// serving under GET /metrics. Everything is derived from StatsSnapshot —
// no extra state is kept for scraping, so a scrape costs one lock
// acquisition regardless of frequency.
func (s *Server) WriteMetrics(w io.Writer) error {
	st := s.StatsSnapshot()
	mw := &metricsWriter{w: w}

	mw.gauge("pilut_matrices", "Submitted matrices held in the matrix tier.", float64(st.Matrices))
	mw.gauge("pilut_queue_depth", "Solve requests waiting to be batched.", float64(st.QueueDepth))
	mw.gauge("pilut_running_batches", "Batches currently executing.", float64(st.Running))

	c := st.Cache
	mw.counter("pilut_cache_hits_total", "Factorization cache hits.", float64(c.Hits))
	mw.counter("pilut_cache_misses_total", "Factorization cache misses.", float64(c.Misses))
	mw.counter("pilut_cache_evictions_total", "Factorizations evicted from the cache.", float64(c.Evictions))
	mw.counter("pilut_cache_factorizations_total", "Factorizations built (misses that completed).", float64(c.Factorizations))
	mw.gauge("pilut_cache_entries", "Factorizations currently cached.", float64(c.Entries))
	mw.gauge("pilut_cache_bytes", "Estimated bytes held by cached factorizations.", float64(c.Bytes))
	mw.gauge("pilut_cache_budget_bytes", "Cache byte budget.", float64(c.BudgetBytes))

	mw.counter("pilut_cache_symbolic_hits_total", "Builds that reused a cached symbolic analysis.", float64(c.SymbolicHits))
	mw.counter("pilut_cache_symbolic_misses_total", "Builds that analyzed the pattern from scratch.", float64(c.SymbolicMisses))
	mw.counter("pilut_cache_refactor_builds_total", "Refactor-only builds (numeric phase under a cached analysis).", float64(c.RefactorBuilds))
	mw.gauge("pilut_cache_symbolic_entries", "Symbolic analyses currently cached.", float64(c.SymbolicEntries))
	mw.gauge("pilut_cache_symbolic_bytes", "Estimated bytes held by cached symbolic analyses.", float64(c.SymbolicBytes))
	mw.gauge("pilut_matrix_bytes", "Bytes held by submitted matrices in the matrix tier.", float64(c.MatrixBytes))
	mw.counter("pilut_matrix_evictions_total", "Submitted matrices evicted from the matrix tier.", float64(c.MatrixEvictions))
	mw.gauge("pilut_memory_limit_bytes", "Runtime memory limit: bytes the process's tiers hold plus a fixed allowance, capped at the starting limit.", float64(st.MemoryLimitBytes))

	v := st.Solves
	mw.counter("pilut_solve_requests_total", "Solve requests accepted.", float64(v.Requests))
	mw.counter("pilut_solve_completed_total", "Solve requests answered successfully.", float64(v.Completed))
	mw.counter("pilut_solve_canceled_total", "Solve requests canceled by their context.", float64(v.Canceled))
	mw.counter("pilut_solve_errors_total", "Solve requests failed with an error.", float64(v.Errors))
	// In-flight is derived from the paired counters (every accepted request
	// ends in exactly one of completed/canceled/errors), not tracked
	// separately — the identity is asserted by the concurrency tests.
	inflight := v.Requests - v.Completed - v.Canceled - v.Errors
	mw.gauge("pilut_solve_inflight", "Accepted solve requests not yet answered.", float64(inflight))

	mw.counter("pilut_solve_shed_total", "Solve requests rejected because the bounded queue was full.", float64(v.Shed))
	mw.counter("pilut_solve_breaker_rejected_total", "Solve requests bounced off an open circuit breaker.", float64(v.BreakerRejected))
	mw.counter("pilut_ladder_retries_total", "Recovery-ladder rung climbs after numerical breakdown.", float64(v.LadderRetries))
	mw.counter("pilut_solve_degraded_total", "Solves answered through a degraded (ladder-built) preconditioner.", float64(v.Degraded))
	mw.counter("pilut_solve_warm_started_total", "Solves seeded with a caller initial guess.", float64(v.WarmStarted))
	mw.counter("pilut_sequences_total", "SolveSequence calls.", float64(v.Sequences))
	mw.counter("pilut_sequence_steps_total", "Steps solved across all sequences.", float64(v.SequenceSteps))
	mw.gauge("pilut_breaker_open_keys", "Matrix keys whose circuit breaker is currently open.", float64(len(s.Health().BreakerOpenKeys)))

	mw.counter("pilut_solve_batches_total", "Machine runs executed (one per batch).", float64(v.Batches))
	mw.counter("pilut_solve_batched_rhs_total", "Right-hand sides solved across all batches.", float64(v.BatchedRHS))
	mw.gauge("pilut_solve_max_batch", "Largest batch coalesced so far.", float64(v.MaxBatch))
	mw.counter("pilut_solve_modelled_seconds_total", "Virtual machine seconds accumulated by solve runs.", v.ModelledSeconds)

	mw.histogram("pilut_solve_latency_ms", "Wall-clock latency from request acceptance to response, milliseconds.", v.LatencyMs)
	mw.histogram("pilut_solve_iterations", "Matrix-vector products per completed solve.", v.Iterations)

	if cs := st.Cluster; cs != nil {
		mw.gauge("pilut_cluster_epoch", "Membership view epoch (highest state-change stamp seen).", float64(cs.Epoch))
		mw.gauge("pilut_cluster_members_routable", "Routable members (alive + suspect), self included.", float64(cs.Peers))
		mw.gauge("pilut_cluster_members_alive", "Members the view holds alive.", float64(cs.MembersAlive))
		mw.gauge("pilut_cluster_members_suspect", "Members the view holds suspect.", float64(cs.MembersSuspect))
		mw.gauge("pilut_cluster_members_dead", "Members the view has written off.", float64(cs.MembersDead))
		mw.gauge("pilut_cluster_members_left", "Members administratively drained.", float64(cs.MembersLeft))
		mw.gauge("pilut_cluster_replication_factor", "HRW successors receiving proactive factor copies.", float64(cs.ReplicationFactor))
		mw.counter("pilut_cluster_peer_fetches_total", "Factor fetches attempted against peers.", float64(cs.PeerFetches))
		mw.counter("pilut_cluster_peer_fetch_hits_total", "Factor fetches answered from a peer's cache.", float64(cs.PeerFetchHits))
		mw.counter("pilut_cluster_peer_fetch_misses_total", "Factor fetches the peer answered with a clean miss.", float64(cs.PeerFetchMisses))
		mw.counter("pilut_cluster_peer_fetch_failures_total", "Factor fetches failed by transport or decode.", float64(cs.PeerFetchFailures))
		mw.counter("pilut_cluster_peer_fetch_retries_total", "Bounded retries after transient peer-fetch failures.", float64(cs.PeerFetchRetries))
		mw.counter("pilut_cluster_peer_serves_total", "Factor exports served to peers.", float64(cs.PeerServes))
		mw.counter("pilut_cluster_replications_sent_total", "Matrices pushed to their owning daemon.", float64(cs.ReplicationsSent))
		mw.counter("pilut_cluster_replications_lost_total", "Matrix pushes that failed.", float64(cs.ReplicationsLost))
		mw.counter("pilut_cluster_replicas_pushed_total", "Factor copies delivered to HRW successors.", float64(cs.ReplicasPushed))
		mw.counter("pilut_cluster_replica_push_failures_total", "Factor copy pushes that failed.", float64(cs.ReplicaPushFails))
		mw.counter("pilut_cluster_replica_imports_total", "Factor copies accepted from owners.", float64(cs.ReplicaImports))
		mw.counter("pilut_cluster_takeover_keys_total", "Peer-imported keys claimed after a view change.", float64(cs.TakeoverKeys))
		mw.counter("pilut_cluster_joins_total", "Members admitted by this daemon.", float64(cs.Joins))
		mw.counter("pilut_cluster_leaves_total", "Member tombstones written by this daemon.", float64(cs.Leaves))
		mw.counter("pilut_cluster_rejected_peer_requests_total", "Peer/cluster requests rejected for a bad token.", float64(cs.RejectedPeerReqs))
	}
	return mw.err
}

// metricsWriter emits one metric family at a time, latching the first
// write error.
type metricsWriter struct {
	w   io.Writer
	err error
}

func (m *metricsWriter) printf(format string, args ...any) {
	if m.err != nil {
		return
	}
	_, m.err = fmt.Fprintf(m.w, format, args...)
}

func (m *metricsWriter) family(name, typ, help string, value float64) {
	m.printf("# HELP %s %s\n# TYPE %s %s\n%s %s\n",
		name, help, name, typ, name, formatFloat(value))
}

func (m *metricsWriter) counter(name, help string, v float64) { m.family(name, "counter", help, v) }
func (m *metricsWriter) gauge(name, help string, v float64)   { m.family(name, "gauge", help, v) }

// histogram renders a Histogram snapshot with the cumulative le-buckets
// Prometheus expects (the snapshot stores per-bucket counts).
func (m *metricsWriter) histogram(name, help string, h Histogram) {
	m.printf("# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	cum := int64(0)
	for i, b := range h.Bounds {
		cum += h.Counts[i]
		m.printf("%s_bucket{le=%q} %d\n", name, formatFloat(b), cum)
	}
	m.printf("%s_bucket{le=\"+Inf\"} %d\n", name, h.Count)
	m.printf("%s_sum %s\n", name, formatFloat(h.Sum))
	m.printf("%s_count %d\n", name, h.Count)
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
