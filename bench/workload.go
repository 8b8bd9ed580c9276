package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/matgen"
	"repro/internal/sparse"
)

// opDesc names one op of a workload's stream before any input exists.
// The stream is a pure function of (workload, seed, lane): the program
// under test only ever sees the inputs generated from it.
type opDesc struct {
	Kind    string // "op", "solve", "step", "reread", "fresh", "pair"
	Pattern int    // which fixed matrix / pattern the op touches
	Draw    int64  // perturbation seed, zipf rank or fresh-pattern index
}

// The serve_churn cycle: 6 step, 3 reread, 1 fresh.
var churnCycle = [10]string{"step", "step", "reread", "step", "step", "reread", "step", "fresh", "step", "reread"}

const (
	zipfS        = 1.2
	hotMatrices  = 6  // serve_hot working set
	churnBases   = 4  // fixed patterns of serve_churn and peer_fetch
	rereadWindow = 64 // serve_churn rereads one of the last 64 submitted keys
	evolveAmp    = 1e-3
)

// opGen generates one lane's op stream.
type opGen struct {
	workload string
	seed     int64
	rng      *rand.Rand
	zipf     *rand.Zipf
	i        int64 // ops generated
	steps    int64 // of them, serve_churn steps: the patterns take turns
}

func newOpGen(workload string, seed int64, lane int) *opGen {
	g := &opGen{workload: workload, seed: seed}
	g.rng = rand.New(rand.NewSource(seed*7919 + int64(lane)))
	switch workload {
	case "serve_hot":
		g.zipf = rand.NewZipf(g.rng, zipfS, 1, hotMatrices-1)
	case "serve_churn":
		g.zipf = rand.NewZipf(g.rng, zipfS, 1, rereadWindow-1)
	}
	return g
}

// evolveSeed is distinct for every (seed, op) pair, so no two ops ever
// submit the same values.
func (g *opGen) evolveSeed() int64 { return g.seed*1_000_003 + g.i }

func (g *opGen) next() opDesc {
	defer func() { g.i++ }()
	switch g.workload {
	case "serve_hot":
		return opDesc{Kind: "solve", Pattern: int(g.zipf.Uint64())}
	case "serve_churn":
		kind := churnCycle[g.i%int64(len(churnCycle))]
		switch kind {
		case "step":
			g.steps++
			return opDesc{Kind: kind, Pattern: int(g.steps % churnBases), Draw: g.evolveSeed()}
		case "reread":
			return opDesc{Kind: kind, Pattern: -1, Draw: int64(g.zipf.Uint64())}
		default:
			return opDesc{Kind: kind, Pattern: -1, Draw: g.i / int64(len(churnCycle))}
		}
	case "peer_fetch":
		return opDesc{Kind: "pair", Pattern: int(g.i % churnBases), Draw: g.evolveSeed()}
	default: // cold_*: the same matrix every op, its values chosen by the seed
		return opDesc{Kind: "op", Draw: g.seed}
	}
}

// opListHash fingerprints the first n ops of a lane's stream.
func opListHash(workload string, seed int64, lane, n int) string {
	g := newOpGen(workload, seed, lane)
	h := sha256.New()
	for i := 0; i < n; i++ {
		fmt.Fprintf(h, "%+v\n", g.next())
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// perturbed returns base with every value scaled by 1 + evolveAmp·u,
// u uniform in (−1, 1) drawn from seed: same pattern, new values, and
// always one small step from base (never a drifting walk).
func perturbed(base *sparse.CSR, seed int64) *sparse.CSR {
	return matgen.Evolve(base, 1, evolveAmp, seed)[0]
}

func matrixMarket(a *sparse.CSR) ([]byte, error) {
	var buf bytes.Buffer
	if err := sparse.WriteMatrixMarket(&buf, a); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// sample is one finished op as its client saw it.
type sample struct {
	kind   string
	ms     float64 // latency of the op's timed calls
	ok     bool    // answered, converged, residual and identity checks passed
	iters  int     // GMRES matvecs over the op's solves
	solves int
}

// phase is what one pass of an op stream measured.
type phase struct {
	samples []sample
	busy    time.Duration // time the stream had an op outstanding
	fails   []string      // why ops (or the workload's gate) failed; first few
	gateBad int           // workload-level gate violations, each counted as one failed op
	maxRes  float64       // largest recomputed relative residual

	// Serving workloads only: the HTTP client's tally, the daemons'
	// /v1/stats counters (after − before), and peer_fetch's two solves.
	http              *httpTally
	service           serviceTotals
	firstMs, secondMs []float64
}

// gated applies a workload-level check to a phase that measured cleanly.
func (p *phase) gated(check func(*phase)) *phase {
	if p.gateBad == 0 {
		check(p)
	}
	return p
}

func (p *phase) fail(format string, args ...any) {
	if len(p.fails) < 8 {
		p.fails = append(p.fails, fmt.Sprintf(format, args...))
	}
}

func (p *phase) add(s sample) { p.samples = append(p.samples, s) }

func (p *phase) latencies(kind string) []float64 {
	var out []float64
	for _, s := range p.samples {
		if s.kind == kind {
			out = append(out, s.ms)
		}
	}
	return out
}

func (p *phase) counts() (attempted, failed int) {
	for _, s := range p.samples {
		if !s.ok {
			failed++
		}
	}
	return len(p.samples) + p.gateBad, failed + p.gateBad
}

func (p *phase) itersPerSolve() float64 {
	iters, solves := 0, 0
	for _, s := range p.samples {
		iters += s.iters
		solves += s.solves
	}
	return ratio(float64(iters), float64(solves))
}

// opsPerSecond is ops that passed every check ÷ time the stream was busy.
func (p *phase) opsPerSecond() float64 {
	attempted, failed := p.counts()
	return ratio(float64(attempted-failed), p.busy.Seconds())
}

// workload is one named traffic mix. prepare does the untimed one-off
// work (building pilutd); setup builds everything the timed phase needs
// and is itself timed as setup_s; run drives the closed loop until stop
// reports true; layers emits the workload's per-layer metrics in the
// traced run, spending about budget on its in-process replay.
type workload interface {
	primaryKind() string
	prepare() error
	setup(seed int64) error
	teardown()
	run(rec *recorder, stop func() bool) *phase
	peakRSSMB() float64
	layers(m *metricSet, rec *recorder, untraced, traced *phase, budget time.Duration) error
}
