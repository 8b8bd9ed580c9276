package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/matgen"
	"repro/internal/service"
	"repro/internal/sparse"
)

// servedMatrix is one matrix a serving workload submits and solves, with
// every request body made ahead of the clock.
type servedMatrix struct {
	a    *sparse.CSR
	b    []float64
	key  string // sparse.Fingerprint(a): the key the service must answer with
	mm   []byte // POST /v1/matrices body
	body []byte // POST /v1/solve body
}

func newServed(a *sparse.CSR) (*servedMatrix, error) {
	m := &servedMatrix{a: a, b: rhsOnes(a), key: sparse.Fingerprint(a)}
	var err error
	if m.mm, err = matrixMarket(a); err != nil {
		return nil, err
	}
	m.body, err = json.Marshal(map[string]any{
		"key": m.key, "b": m.b, "restart": gmresRestart, "tol": gmresTol,
	})
	return m, err
}

// solved is one answered solve and the verdict of the per-answer gate.
type solved struct {
	ms   float64
	res  service.SolveResult
	rr   float64 // serially recomputed ‖b − A·x‖/‖b‖
	fail string  // why the answer is rejected; "" when it passes
}

// gate applies the per-answer check: converged and true residual ≤ 1e-6.
func (sv *solved) gate(m *servedMatrix) {
	if !sv.res.Converged {
		sv.fail = fmt.Sprintf("GMRES did not converge in %d matvecs", sv.res.Iterations)
		return
	}
	if sv.rr = relResidual(m.a, sv.res.X, m.b); sv.rr > residualGate {
		sv.fail = fmt.Sprintf("true relative residual %.3g above %.0e", sv.rr, residualGate)
	}
}

// target is where a serving op stream is sent: a pilutd over HTTP, or —
// in the traced run's replay, to tell service cost from HTTP and JSON
// cost — a service.Server in this process.
type target interface {
	submit(t opTrace, m *servedMatrix) (ms float64, err error)
	solve(t opTrace, m *servedMatrix) solved
}

// httpTally is what the HTTP client counted over one phase.
type httpTally struct {
	mu                  sync.Mutex
	submitMs, solveMs   []float64
	reqBytes, respBytes int // of solve calls
	non200              int
}

type httpTarget struct {
	client *http.Client
	base   string
	tally  *httpTally
}

func (h *httpTarget) submit(t opTrace, m *servedMatrix) (float64, error) {
	var c call
	var err error
	t.stage("pilutd.submit", func() { c, err = post(h.client, h.base+"/v1/matrices", "text/plain", m.mm) })
	if err != nil {
		return 0, err
	}
	h.tally.mu.Lock()
	h.tally.submitMs = append(h.tally.submitMs, c.ms)
	if c.status != http.StatusOK {
		h.tally.non200++
	}
	h.tally.mu.Unlock()
	if c.status != http.StatusOK {
		return c.ms, fmt.Errorf("POST /v1/matrices: HTTP %d: %s", c.status, c.body)
	}
	var reply struct {
		Key string `json:"key"`
	}
	if err := json.Unmarshal(c.body, &reply); err != nil {
		return c.ms, fmt.Errorf("decoding submit reply: %w", err)
	}
	if reply.Key != m.key {
		return c.ms, fmt.Errorf("daemon keyed the matrix %s, its fingerprint is %s", reply.Key, m.key)
	}
	return c.ms, nil
}

func (h *httpTarget) solve(t opTrace, m *servedMatrix) solved {
	var c call
	var err error
	t.stage("pilutd.solve", func() { c, err = post(h.client, h.base+"/v1/solve", "application/json", m.body) })
	if err != nil {
		return solved{fail: err.Error()}
	}
	h.tally.mu.Lock()
	h.tally.solveMs = append(h.tally.solveMs, c.ms)
	h.tally.reqBytes += c.reqBytes
	h.tally.respBytes += c.respBytes
	if c.status != http.StatusOK {
		h.tally.non200++
	}
	h.tally.mu.Unlock()
	sv := solved{ms: c.ms}
	if c.status != http.StatusOK {
		sv.fail = fmt.Sprintf("POST /v1/solve: HTTP %d: %s", c.status, c.body)
		return sv
	}
	if err := json.Unmarshal(c.body, &sv.res); err != nil {
		sv.fail = fmt.Sprintf("decoding solve reply: %v", err)
		return sv
	}
	sv.gate(m)
	return sv
}

type localTarget struct{ svc *service.Server }

func (l localTarget) submit(t opTrace, m *servedMatrix) (float64, error) {
	var key string
	var err error
	dt := t.stage("service.submit", func() { key, _, err = l.svc.Submit(m.a) })
	if err == nil && key != m.key {
		err = fmt.Errorf("service keyed the matrix %s, its fingerprint is %s", key, m.key)
	}
	return float64(dt) / float64(time.Millisecond), err
}

func (l localTarget) solve(t opTrace, m *servedMatrix) solved {
	var sv solved
	var err error
	dt := t.stage("service.solve", func() {
		sv.res, err = l.svc.Solve(context.Background(), m.key, m.b,
			service.SolveOptions{Restart: gmresRestart, Tol: gmresTol})
	})
	sv.ms = float64(dt) / float64(time.Millisecond)
	if err != nil {
		sv.fail = err.Error()
		return sv
	}
	sv.gate(m)
	return sv
}

// serveOp is the timed part of one serving op: an optional submit, then
// a solve. Its latency is the sum of its calls.
func serveOp(tg target, t opTrace, kind string, m *servedMatrix, submitFirst bool, ph *phase) {
	s := sample{kind: kind, solves: 1}
	var err error
	if submitFirst {
		var ms float64
		ms, err = tg.submit(t, m)
		s.ms += ms
	}
	if err != nil {
		ph.fail("%s: %v", kind, err)
	} else {
		sv := tg.solve(t, m)
		s.ms += sv.ms
		s.iters = sv.res.Iterations
		if s.ok = sv.fail == ""; !s.ok {
			ph.fail("%s: %s", kind, sv.fail)
		}
		if sv.rr > ph.maxRes {
			ph.maxRes = sv.rr
		}
	}
	t.end()
	ph.busy += time.Duration(s.ms * float64(time.Millisecond))
	ph.add(s)
}

// serviceTotals are the /v1/stats counters the harness reads, summed
// over a workload's daemons; a phase reports after − before.
type serviceTotals struct {
	hits, misses, evictions, factorizations float64
	symHits, symMisses, refactors           float64
	errors, shed, batches, batchedRHS       float64
	latencySumMs, latencyCount              float64
	fetchHits, fetchFailures, peerServes    float64
}

func totalsOf(daemons []*daemon) (serviceTotals, error) {
	var t serviceTotals
	for _, d := range daemons {
		st, err := d.stats()
		if err != nil {
			return t, err
		}
		t.hits += float64(st.Cache.Hits)
		t.misses += float64(st.Cache.Misses)
		t.evictions += float64(st.Cache.Evictions)
		t.factorizations += float64(st.Cache.Factorizations)
		t.symHits += float64(st.Cache.SymbolicHits)
		t.symMisses += float64(st.Cache.SymbolicMisses)
		t.refactors += float64(st.Cache.RefactorBuilds)
		t.errors += float64(st.Solves.Errors)
		t.shed += float64(st.Solves.Shed)
		t.batches += float64(st.Solves.Batches)
		t.batchedRHS += float64(st.Solves.BatchedRHS)
		t.latencySumMs += st.Solves.LatencyMs.Sum
		t.latencyCount += float64(st.Solves.LatencyMs.Count)
		if c := st.Cluster; c != nil {
			t.fetchHits += float64(c.PeerFetchHits)
			t.fetchFailures += float64(c.PeerFetchFailures)
			t.peerServes += float64(c.PeerServes)
		}
	}
	return t, nil
}

func (a serviceTotals) minus(b serviceTotals) serviceTotals {
	return serviceTotals{
		a.hits - b.hits, a.misses - b.misses, a.evictions - b.evictions, a.factorizations - b.factorizations,
		a.symHits - b.symHits, a.symMisses - b.symMisses, a.refactors - b.refactors,
		a.errors - b.errors, a.shed - b.shed, a.batches - b.batches, a.batchedRHS - b.batchedRHS,
		a.latencySumMs - b.latencySumMs, a.latencyCount - b.latencyCount,
		a.fetchHits - b.fetchHits, a.fetchFailures - b.fetchFailures, a.peerServes - b.peerServes,
	}
}

// serving is what the three daemon-backed workloads share.
type serving struct {
	env     *environment
	seed    int64
	daemons []*daemon
	client  *http.Client
	gens    []*opGen // one op stream per connection, continuing across phases

	// submitMs keeps set-up's submit latencies, for workloads whose timed
	// phase submits nothing.
	submitMs []float64
}

func (s *serving) prepare() error { _, err := s.env.pilutd(); return err }

func (s *serving) teardown() {
	for _, d := range s.daemons {
		d.stop()
	}
	s.daemons = nil
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
}

// peakRSSMB sums the daemons' peak resident sets: they do the numerical
// work, the harness only generates and checks.
func (s *serving) peakRSSMB() float64 {
	sum := 0.0
	for _, d := range s.daemons {
		sum += d.peakRSSMB()
	}
	return sum
}

// start launches one pilutd per args list — peered with each other when
// there are several — and opens the op streams.
func (s *serving) start(workload string, seed int64, conns int, args ...[]string) error {
	bin, err := s.env.pilutd()
	if err != nil {
		return err
	}
	addrs, err := freeAddrs(len(args))
	if err != nil {
		return err
	}
	peers := "http://" + strings.Join(addrs, ",http://")
	s.seed = seed
	s.client = newClient(conns)
	s.gens = nil
	for lane := 0; lane < conns; lane++ {
		s.gens = append(s.gens, newOpGen(workload, seed, lane))
	}
	for i, a := range args {
		if len(args) > 1 {
			a = append(append([]string(nil), a...), "-peers", peers, "-self", "http://"+addrs[i])
		}
		d, err := startDaemon(bin, addrs[i], a...)
		if err != nil {
			return err
		}
		s.daemons = append(s.daemons, d)
	}
	return nil
}

// measured wraps one phase's op loop with the stats snapshots either
// side of it; body drives the loop and fills ph.
func (s *serving) measured(body func(ph *phase)) *phase {
	ph := &phase{http: &httpTally{}}
	before, err := totalsOf(s.daemons)
	if err != nil {
		ph.gateBad++
		ph.fail("reading /v1/stats: %v", err)
		return ph
	}
	body(ph)
	after, err := totalsOf(s.daemons)
	if err != nil {
		ph.gateBad++
		ph.fail("reading /v1/stats: %v", err)
		return ph
	}
	ph.service = after.minus(before)
	return ph
}

func (s *serving) http(d *daemon, ph *phase) *httpTarget {
	return &httpTarget{client: s.client, base: d.url, tally: ph.http}
}

// newLocalServer is the in-process twin of the workload's daemon: the
// same service configuration pilutd builds from its flags.
func newLocalServer(backendKind string, cacheMB int64) *service.Server {
	return service.New(service.Config{
		Procs:      procs,
		Params:     iluParams,
		Backend:    backendKind,
		Workers:    2,
		MaxBatch:   8,
		CacheBytes: cacheMB << 20,
		MaxQueue:   1024,
	})
}

// endReplay shuts the in-process server down and rejects a replay whose
// answers failed the same checks the HTTP answers get.
func endReplay(svc *service.Server, replay *phase) error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		return err
	}
	if _, failed := replay.counts(); failed > 0 {
		return fmt.Errorf("in-process replay failed its checks: %v", replay.fails)
	}
	return nil
}

// ---- serve_hot --------------------------------------------------------

// hotWorkload: one default-flag pilutd, six matrices factored in set-up,
// two connections solving zipf-chosen keys. Reads only.
type hotWorkload struct {
	serving
	mats []*servedMatrix
}

// hotMatrixSet lists the six cached matrices by zipf rank. Their solve
// costs differ severalfold, so the rank order is chosen to keep the
// median steady: the hottest key (46 % of the draws) is a mid-cost
// matrix with about 30 % of the draws on cheaper ones, which puts the
// 50th percentile inside the body of one matrix's latency distribution
// instead of on the edge between two.
func hotMatrixSet() []*sparse.CSR {
	return []*sparse.CSR{
		matgen.Grid2D(64, 64), matgen.Torso(14, 14, 14, 2),
		matgen.Grid2D(72, 64), matgen.Grid3D(16, 16, 16),
		matgen.Torso(12, 12, 12, 1), matgen.ConvDiff2D(64, 64, 10, 20),
	}
}

func (w *hotWorkload) primaryKind() string { return "solve" }

func (w *hotWorkload) setup(seed int64) error {
	w.mats = nil
	for _, a := range hotMatrixSet() {
		m, err := newServed(a)
		if err != nil {
			return err
		}
		w.mats = append(w.mats, m)
	}
	if err := w.start("serve_hot", seed, 2, []string{"-procs", fmt.Sprint(procs)}); err != nil {
		return err
	}
	// Submit and factor every matrix, so the timed phase only ever hits.
	warm := &phase{http: &httpTally{}}
	tg := w.http(w.daemons[0], warm)
	for _, m := range w.mats {
		serveOp(tg, opTrace{}, "warm", m, true, warm)
	}
	w.submitMs = warm.http.submitMs
	if _, failed := warm.counts(); failed > 0 {
		return fmt.Errorf("warming the factor cache: %v", warm.fails)
	}
	return nil
}

func (w *hotWorkload) run(rec *recorder, stop func() bool) *phase {
	return w.measured(func(ph *phase) {
		t0 := time.Now()
		lanes := make([]*phase, len(w.gens))
		var wg sync.WaitGroup
		for lane := range w.gens {
			wg.Add(1)
			go func(lane int) {
				defer wg.Done()
				lp := &phase{}
				tg := w.http(w.daemons[0], ph)
				for i := 0; !stop(); i++ {
					m := w.mats[w.gens[lane].next().Pattern]
					serveOp(tg, rec.beginOp("harness.op", lane, i), "solve", m, false, lp)
				}
				lanes[lane] = lp
			}(lane)
		}
		wg.Wait()
		for _, lp := range lanes {
			ph.samples = append(ph.samples, lp.samples...)
			for _, f := range lp.fails {
				ph.fail("%s", f)
			}
			if lp.maxRes > ph.maxRes {
				ph.maxRes = lp.maxRes
			}
		}
		// Two connections overlap, so the stream was busy for the wall time
		// of the phase, not for the sum of the latencies.
		ph.busy = time.Since(t0)
	}).gated(func(ph *phase) {
		if ph.service.misses != 0 {
			ph.gateBad++
			ph.fail("factor cache hit ratio below 1: %v misses during a read-only phase", ph.service.misses)
		}
	})
}

func (w *hotWorkload) layers(m *metricSet, rec *recorder, untraced, traced *phase, budget time.Duration) error {
	svc := newLocalServer("modelled", 256)
	lt := localTarget{svc}
	replay := &phase{}
	for i, mat := range w.mats {
		serveOp(lt, rec.beginOp("harness.replay_warm", 0, i), "warm", mat, true, replay)
	}
	gen := newOpGen("serve_hot", w.seed, 0)
	for i, stop := 0, until(budget/3); !stop(); i++ {
		serveOp(lt, rec.beginOp("harness.replay_op", 0, i), "solve", w.mats[gen.next().Pattern], false, replay)
	}
	if err := endReplay(svc, replay); err != nil {
		return err
	}
	m.set("service.hot_solve_ms_p50", median(replay.latencies("solve")))
	var mms [][]byte
	for _, mat := range w.mats {
		mms = append(mms, mat.mm)
	}
	return w.servingLayers(m, rec, "modelled", mms, untraced, traced)
}

// ---- serve_churn ------------------------------------------------------

// churnCacheMB sizes the daemon's factor cache to about 16 entries of
// the churn matrices (1.7 MiB each), so rereads meet evictions.
const churnCacheMB = 27

// churnBaseSet is the four fixed patterns of serve_churn and peer_fetch:
// distinct sparsity patterns of one family and almost one size, so that
// the primary op kind has one latency mode, not four, and its median does
// not sit on the edge between two of them. The never-seen patterns of
// the fresh ops, Grid2D(48+j, 48), collide with none of these.
func churnBaseSet() []*sparse.CSR {
	return []*sparse.CSR{
		matgen.Grid2D(63, 65), matgen.Grid2D(62, 66), matgen.Grid2D(61, 67), matgen.Grid2D(60, 68),
	}
}

// churnState is the client-side memory of a churn stream: the fixed
// patterns and the matrices submitted so far, newest last.
type churnState struct {
	bases  []*sparse.CSR
	recent []*servedMatrix
}

func (st *churnState) remember(m *servedMatrix) {
	st.recent = append(st.recent, m)
	if len(st.recent) > rereadWindow {
		st.recent = st.recent[1:]
	}
}

// input makes (or, for a reread, looks up) the matrix of one op; it runs
// before the op's clock starts.
func (st *churnState) input(desc opDesc) (*servedMatrix, error) {
	switch desc.Kind {
	case "step":
		return newServed(perturbed(st.bases[desc.Pattern], desc.Draw))
	case "fresh":
		return newServed(matgen.Grid2D(48+int(desc.Draw), 48))
	default:
		back := int(desc.Draw)
		if back >= len(st.recent) {
			back = len(st.recent) - 1
		}
		return st.recent[len(st.recent)-1-back], nil
	}
}

// churnOps drives one churn stream against tg until stop. A phase ends
// only on a cycle boundary, so every phase holds the same op mix.
func churnOps(tg target, rec *recorder, root string, st *churnState, gen *opGen, stop func() bool, ph *phase) {
	for i := 0; ; i++ {
		if i%len(churnCycle) == 0 && stop() {
			return
		}
		desc := gen.next()
		m, err := st.input(desc)
		if err != nil {
			ph.gateBad++
			ph.fail("generating %s input: %v", desc.Kind, err)
			return
		}
		serveOp(tg, rec.beginOp(root, 0, i), desc.Kind, m, desc.Kind != "reread", ph)
		if desc.Kind != "reread" {
			st.remember(m)
		}
	}
}

// seedBases submits and solves the fixed patterns, so that every later
// step finds its pattern's symbolic analysis cached.
func seedBases(tg target, st *churnState, ph *phase) error {
	for _, a := range st.bases {
		m, err := newServed(a)
		if err != nil {
			return err
		}
		serveOp(tg, opTrace{}, "warm", m, true, ph)
		st.remember(m)
	}
	if _, failed := ph.counts(); failed > 0 {
		return fmt.Errorf("seeding the base patterns: %v", ph.fails)
	}
	return nil
}

// churnWorkload: one pilutd with a small factor cache, one connection,
// a repeating cycle of value-only steps, rereads and never-seen patterns.
type churnWorkload struct {
	serving
	state *churnState
}

func (w *churnWorkload) primaryKind() string { return "step" }

func (w *churnWorkload) setup(seed int64) error {
	err := w.start("serve_churn", seed, 1,
		[]string{"-procs", fmt.Sprint(procs), "-cache-mb", fmt.Sprint(churnCacheMB)})
	if err != nil {
		return err
	}
	w.state = &churnState{bases: churnBaseSet()}
	warm := &phase{http: &httpTally{}}
	return seedBases(w.http(w.daemons[0], warm), w.state, warm)
}

func (w *churnWorkload) run(rec *recorder, stop func() bool) *phase {
	return w.measured(func(ph *phase) {
		churnOps(w.http(w.daemons[0], ph), rec, "harness.op", w.state, w.gens[0], stop, ph)
	})
}

func (w *churnWorkload) layers(m *metricSet, rec *recorder, untraced, traced *phase, budget time.Duration) error {
	svc := newLocalServer("modelled", churnCacheMB)
	lt := localTarget{svc}
	st := &churnState{bases: churnBaseSet()}
	replay := &phase{}
	if err := seedBases(lt, st, replay); err != nil {
		return err
	}
	churnOps(lt, rec, "harness.replay_op", st, newOpGen("serve_churn", w.seed, 0), until(budget/3), replay)
	if err := endReplay(svc, replay); err != nil {
		return err
	}
	m.set("service.step_ms_p50", median(replay.latencies("step")))
	m.set("service.reread_ms_p50", median(replay.latencies("reread")))
	m.set("service.fresh_ms_p50", median(replay.latencies("fresh")))
	return w.servingLayers(m, rec, "modelled", baseMatrixMarkets(w.state.bases), untraced, traced)
}

func baseMatrixMarkets(bases []*sparse.CSR) [][]byte {
	var mms [][]byte
	for _, a := range bases {
		mm, err := matrixMarket(a)
		if err != nil {
			panic(err) // writes to a bytes.Buffer cannot fail
		}
		mms = append(mms, mm)
	}
	return mms
}

// ---- peer_fetch -------------------------------------------------------

// peerWorkload: two peered pilutd on the wall-clock backend, one
// connection. Every op submits a new matrix to both, solves it at A and
// then at B; whichever daemon does not own the key fetches the owner's
// factor and imports it.
type peerWorkload struct {
	serving
	bases []*sparse.CSR
}

func (w *peerWorkload) primaryKind() string { return "pair" }

func (w *peerWorkload) setup(seed int64) error {
	w.bases = churnBaseSet()
	// The two daemons differ only in -self, which start appends with -peers.
	args := []string{"-procs", fmt.Sprint(procs), "-backend", "real", "-replicas", "0",
		"-cache-mb", fmt.Sprint(churnCacheMB), "-probe-interval-ms", "0"}
	if err := w.start("peer_fetch", seed, 1, args, args); err != nil {
		return err
	}
	// One discarded pair per pattern opens the daemon-to-daemon connections
	// and fills both processes' pools.
	warm := &phase{http: &httpTally{}}
	w.pairs(nil, afterOps(len(w.bases)), warm)
	if _, failed := warm.counts(); failed > 0 {
		return fmt.Errorf("warming the peer path: %v", warm.fails)
	}
	return nil
}

// pairs drives the op stream until stop. Busy time is all four calls of
// an op; the op's latency — the primary metric — is the two solves.
func (w *peerWorkload) pairs(rec *recorder, stop func() bool, ph *phase) {
	a, b := w.http(w.daemons[0], ph), w.http(w.daemons[1], ph)
	for i := 0; !stop(); i++ {
		desc := w.gens[0].next()
		m, err := newServed(perturbed(w.bases[desc.Pattern], desc.Draw))
		if err != nil {
			ph.gateBad++
			ph.fail("generating input: %v", err)
			return
		}
		t := rec.beginOp("harness.op", 0, i)
		s := sample{kind: "pair", solves: 2}
		msA, errA := a.submit(t, m)
		msB, errB := b.submit(t, m)
		ph.busy += time.Duration((msA + msB) * float64(time.Millisecond))
		if errA != nil || errB != nil {
			ph.fail("pair %d: submit: %v %v", i, errA, errB)
		} else {
			first, second := a.solve(t, m), b.solve(t, m)
			s.ms = first.ms + second.ms
			s.iters = first.res.Iterations + second.res.Iterations
			ph.firstMs = append(ph.firstMs, first.ms)
			ph.secondMs = append(ph.secondMs, second.ms)
			switch {
			case first.fail != "":
				ph.fail("pair %d at A: %s", i, first.fail)
			case second.fail != "":
				ph.fail("pair %d at B: %s", i, second.fail)
			case !sameBits(first.res.X, second.res.X):
				ph.fail("pair %d: the two daemons' solutions differ in at least one bit", i)
			default:
				s.ok = true
			}
			if first.rr > ph.maxRes {
				ph.maxRes = first.rr
			}
			if second.rr > ph.maxRes {
				ph.maxRes = second.rr
			}
		}
		t.end()
		ph.busy += time.Duration(s.ms * float64(time.Millisecond))
		ph.add(s)
	}
}

func (w *peerWorkload) run(rec *recorder, stop func() bool) *phase {
	return w.measured(func(ph *phase) { w.pairs(rec, stop, ph) }).gated(func(ph *phase) {
		if ops := float64(len(ph.samples)); ph.service.fetchHits != ops || ph.service.fetchFailures != 0 {
			ph.gateBad++
			ph.fail("%v ops but %v peer fetch hits and %v fetch failures: every op must move exactly one factor",
				ops, ph.service.fetchHits, ph.service.fetchFailures)
		}
	})
}

func (w *peerWorkload) layers(m *metricSet, rec *recorder, untraced, traced *phase, budget time.Duration) error {
	// The owner's half of a transfer, in process: build, then export.
	svc := newLocalServer("real", 256)
	lt := localTarget{svc}
	replay := &phase{}
	gen := newOpGen("peer_fetch", w.seed, 0)
	var exportKB []float64
	for i, stop := 0, until(budget/3); !stop(); i++ {
		desc := gen.next()
		mat, err := newServed(perturbed(w.bases[desc.Pattern], desc.Draw))
		if err != nil {
			return err
		}
		t := rec.beginOp("harness.replay_op", 0, i)
		serveOp(lt, t, "pair", mat, true, replay)
		var data []byte
		t.stage("service.export", func() { data, err = svc.ExportFactor(mat.key) })
		if err != nil {
			return fmt.Errorf("exporting factor: %w", err)
		}
		exportKB = append(exportKB, float64(len(data))/1024)
	}
	if err := endReplay(svc, replay); err != nil {
		return err
	}
	m.set("service.export_ms", median(rec.durationsMs("service.export")))
	m.set("service.export_kb", mean(exportKB))
	m.set("pilutd.pair_first_ms", median(untraced.firstMs))
	m.set("pilutd.pair_second_ms", median(untraced.secondMs))
	m.set("service.peer_fetch_hits", untraced.service.fetchHits)
	m.set("service.peer_serves", untraced.service.peerServes)
	m.set("service.peer_fetch_failures", untraced.service.fetchFailures)
	return w.servingLayers(m, rec, "real", baseMatrixMarkets(w.bases), untraced, traced)
}

// ---- shared per-layer emission ---------------------------------------

// servingLayers emits what every daemon-backed workload reports: the
// staged in-process decomposition of a cold build of each of its
// matrices (the layers under the daemon), the service counters of the
// untraced slice, and the HTTP client's view.
func (s *serving) servingLayers(m *metricSet, rec *recorder, backendKind string, mms [][]byte, untraced, traced *phase) error {
	var bls []*built
	for i, mm := range mms {
		bl, err := coldBuildSolve(rec.beginOp("harness.stage_op", 0, i), backendKind, mm)
		if err != nil {
			return fmt.Errorf("staged build of matrix %d: %w", i, err)
		}
		if rr := bl.relResidual(); !bl.res.Converged || rr > residualGate {
			return fmt.Errorf("staged build of matrix %d failed its check: converged=%v residual=%.3g", i, bl.res.Converged, rr)
		}
		bls = append(bls, bl)
	}
	if err := inProcessLayers(m, rec, backendKind, bls, s.seed); err != nil {
		return err
	}

	m.set("service.submit_ms", median(rec.durationsMs("service.submit")))
	sv := untraced.service
	serverMs := ratio(sv.latencySumMs, sv.latencyCount)
	m.set("service.server_latency_ms_mean", serverMs)
	m.set("service.cache_hit_ratio", ratio(sv.hits, sv.hits+sv.misses))
	m.set("service.symbolic_hit_ratio", ratio(sv.symHits, sv.symHits+sv.symMisses))
	m.set("service.mean_batch", ratio(sv.batchedRHS, sv.batches))
	m.set("service.factorizations", sv.factorizations)
	m.set("service.refactor_builds", sv.refactors)
	m.set("service.evictions", sv.evictions)
	m.set("service.shed", sv.shed)
	m.set("service.errors", sv.errors)

	startMs := 0.0
	for _, d := range s.daemons {
		startMs += d.startMs / float64(len(s.daemons))
	}
	submits := untraced.http.submitMs
	if len(submits) == 0 {
		submits = s.submitMs
	}
	calls := float64(len(untraced.http.solveMs))
	m.set("harness.build_s", s.env.buildS)
	m.set("pilutd.start_ms", startMs)
	m.set("pilutd.submit_ms_p50", median(submits))
	m.set("pilutd.http_overhead_ms", mean(untraced.http.solveMs)-serverMs)
	m.set("pilutd.req_kb", ratio(float64(untraced.http.reqBytes)/1024, calls))
	m.set("pilutd.resp_kb", ratio(float64(untraced.http.respBytes)/1024, calls))
	m.set("pilutd.non200", float64(untraced.http.non200+traced.http.non200))
	return nil
}
