package service

import (
	"context"
	"errors"
	"testing"

	"repro/internal/krylov"
	"repro/internal/matgen"
	"repro/internal/sparse"
)

// fillMatrixTier submits distinct never-solved matrices until more than
// matrixBudget bytes of them have been submitted.
func fillMatrixTier(t *testing.T, s *Server) {
	t.Helper()
	base := matgen.Grid2D(128, 128)
	n := int(matrixBudget/base.SizeBytes()) + 1
	for i, a := range matgen.Evolve(base, n, 1e-3, 7) {
		if _, known, err := s.Submit(a); err != nil || known {
			t.Fatalf("filler %d: known=%v err=%v", i, known, err)
		}
	}
}

// TestMatrixTierEviction: the matrix tier is an LRU under matrixBudget.
// Once more than the budget of distinct matrices has been submitted, the
// oldest key whose factor is gone answers ErrUnknownMatrix, a key whose
// factor is still cached keeps solving, and resubmitting the evicted
// matrix restores the same key with a bitwise identical solution.
func TestMatrixTierEviction(t *testing.T) {
	ctx := context.Background()
	// A one-byte factor cache holds exactly the newest factorization.
	s := New(Config{Procs: 4, Workers: 1, CacheBytes: 1})
	defer s.Shutdown(ctx)

	old, hot := matgen.Grid2D(20, 21), matgen.Grid2D(22, 22)
	oldKey, _, err := s.Submit(old)
	if err != nil {
		t.Fatal(err)
	}
	b := rhs(old.N, 1)
	before, err := s.Solve(ctx, oldKey, b, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	hotKey, _, err := s.Submit(hot)
	if err != nil {
		t.Fatal(err)
	}
	bHot := rhs(hot.N, 2)
	if _, err := s.Solve(ctx, hotKey, bHot, SolveOptions{}); err != nil {
		t.Fatal(err)
	}

	fillMatrixTier(t, s)
	st := s.StatsSnapshot()
	if st.Cache.MatrixBytes > matrixBudget {
		t.Fatalf("matrix tier holds %d bytes, budget %d", st.Cache.MatrixBytes, matrixBudget)
	}
	if st.Cache.MatrixEvictions < 2 {
		t.Fatalf("%d matrices evicted, want at least the two submitted before the fillers", st.Cache.MatrixEvictions)
	}

	if _, err := s.Solve(ctx, oldKey, b, SolveOptions{}); !errors.Is(err, ErrUnknownMatrix) {
		t.Fatalf("solve of the evicted, factor-less key: err = %v, want ErrUnknownMatrix", err)
	}
	res, err := s.Solve(ctx, hotKey, bHot, SolveOptions{})
	if err != nil || !res.CacheHit {
		t.Fatalf("solve of the key whose factor is cached: cache_hit=%v err=%v", res.CacheHit, err)
	}

	key, known, err := s.Submit(old.Clone())
	if err != nil || key != oldKey || known {
		t.Fatalf("resubmit: key %s known=%v err=%v, want %s known=false", key, known, err, oldKey)
	}
	after, err := s.Solve(ctx, oldKey, b, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range before.X {
		if before.X[i] != after.X[i] {
			t.Fatalf("x[%d] after resubmission %v, before eviction %v", i, after.X[i], before.X[i])
		}
	}
}

// TestQueuedSolveSurvivesMatrixEviction: a solve accepted while its
// matrix was held carries that matrix, so the tier evicting it while the
// request waits in the queue does not fail the request.
func TestQueuedSolveSurvivesMatrixEviction(t *testing.T) {
	ctx := context.Background()
	s := New(Config{Procs: 4, Workers: 1})
	defer s.Shutdown(ctx)
	pin := matgen.Grid2D(20, 20)
	pinKey, _, _ := s.Submit(pin)
	if _, err := s.Solve(ctx, pinKey, rhs(pin.N, 1), SolveOptions{}); err != nil {
		t.Fatal(err)
	}
	release := pinWorker(t, s, pinKey, rhs(pin.N, 2))

	a := matgen.Grid2D(21, 22)
	key, _, _ := s.Submit(a)
	b := rhs(a.N, 3)
	done := make(chan error, 1)
	go func() {
		_, err := s.Solve(ctx, key, b, SolveOptions{})
		done <- err
	}()
	waitFor(t, "the solve to queue", func() bool { return s.StatsSnapshot().QueueDepth == 1 })
	fillMatrixTier(t, s)
	s.mu.Lock()
	_, held := s.matrices.items[key]
	s.mu.Unlock()
	if held {
		t.Fatal("the queued solve's matrix is still held; the fillers did not evict it")
	}
	if err := release(); !errors.Is(err, krylov.ErrCanceled) {
		t.Fatalf("pinning solve: err = %v, want krylov.ErrCanceled", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("queued solve after its matrix was evicted: %v", err)
	}
}

// TestMatrixTierKnownResubmitPromotes: a "known" resubmit moves the
// matrix to the front of the tier, so it outlives matrices submitted
// after it the first time.
func TestMatrixTierKnownResubmitPromotes(t *testing.T) {
	s := New(Config{Procs: 4, Workers: 1})
	defer s.Shutdown(context.Background())
	// Both larger than a filler, so evicting the older one always makes
	// room for one more filler.
	first, second := matgen.Grid2D(128, 130), matgen.Grid2D(128, 131)
	firstKey, _, _ := s.Submit(first)
	secondKey, _, _ := s.Submit(second)
	if _, known, _ := s.Submit(first.Clone()); !known {
		t.Fatal("resubmit of a held matrix: known=false")
	}
	fillers := matgen.Evolve(matgen.Grid2D(128, 128), int(matrixBudget/first.SizeBytes()), 1e-3, 3)
	held := first.SizeBytes() + second.SizeBytes()
	for _, a := range fillers {
		if _, _, err := s.Submit(a); err != nil {
			t.Fatal(err)
		}
		if held += a.SizeBytes(); held > matrixBudget {
			break
		}
	}
	s.mu.Lock()
	_, firstHeld := s.matrices.items[firstKey]
	_, secondHeld := s.matrices.items[secondKey]
	s.mu.Unlock()
	if !firstHeld || secondHeld {
		t.Fatalf("after the overflow: first held=%v, second held=%v; want the promoted first kept and second evicted", firstHeld, secondHeld)
	}
}

// TestSymbolicEntryIsPatternOnly: a symbolic entry's templates keep no
// matrix and no ghost buffers, and the entry is sized by what it pins —
// the analysis with its aliased pattern plus the templates' exchange
// plans and column references.
func TestSymbolicEntryIsPatternOnly(t *testing.T) {
	ctx := context.Background()
	s := New(Config{Procs: 4, Workers: 1})
	defer s.Shutdown(ctx)
	a := matgen.Grid2D(30, 31)
	key, _, _ := s.Submit(a)
	if _, err := s.Solve(ctx, key, rhs(a.N, 1), SolveOptions{}); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	se, ok := s.symbolic.items[sparse.PatternFingerprint(a)]
	s.mu.Unlock()
	if !ok {
		t.Fatal("no symbolic entry for the solved pattern")
	}
	want := se.val.sym.SizeBytes()
	for q, m := range se.val.mats {
		if m.A != nil {
			t.Fatalf("template %d pins a matrix", q)
		}
		want += m.SizeBytes()
	}
	if se.bytes != want {
		t.Fatalf("symbolic entry sized %d, want %d", se.bytes, want)
	}
	// Pattern alone: the analysis (which aliases RowPtr and Cols) and 4 B
	// of column reference per nonzero put it above the pattern's bytes.
	if pattern := 8*int64(len(a.RowPtr)+len(a.Cols)) + 4*int64(a.NNZ()); se.bytes < pattern {
		t.Fatalf("symbolic entry sized %d, below the %d bytes of pattern it pins", se.bytes, pattern)
	}
}

// TestSequenceChunksChainAsOneCall: a warm-started sequence split into
// two calls, the second seeded with the first's last x, computes bitwise
// what one call computes.
func TestSequenceChunksChainAsOneCall(t *testing.T) {
	ctx := context.Background()
	base := matgen.Grid2D(16, 16)
	fam := append([]*sparse.CSR{base}, matgen.Evolve(base, 3, 1e-2, 5)...)
	b := rhs(base.N, 2)
	run := func(spans [][2]int) []SolveResult {
		t.Helper()
		s := New(testConfig())
		defer s.Shutdown(ctx)
		keys := make([]string, len(fam))
		for i, a := range fam {
			keys[i], _, _ = s.Submit(a)
		}
		var out []SolveResult
		var x0 []float64
		for _, span := range spans {
			res, err := s.SolveSequence(ctx, keys[span[0]:span[1]], b, SolveOptions{Tol: 1e-9, X0: x0}, true)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, res...)
			x0 = res[len(res)-1].X
		}
		return out
	}
	one, two := run([][2]int{{0, 4}}), run([][2]int{{0, 2}, {2, 4}})
	for i := range one {
		if one[i].Iterations != two[i].Iterations || one[i].WarmStarted != two[i].WarmStarted {
			t.Fatalf("step %d: one call %d iterations (warm %v), two calls %d (warm %v)",
				i, one[i].Iterations, one[i].WarmStarted, two[i].Iterations, two[i].WarmStarted)
		}
		for j := range one[i].X {
			if one[i].X[j] != two[i].X[j] {
				t.Fatalf("step %d: x[%d] = %v in one call, %v in two", i, j, one[i].X[j], two[i].X[j])
			}
		}
	}
}

// TestSequenceHoldsItsMatrices: a sequence resolves every key when it is
// accepted, so the matrix tier evicting its later keys while an earlier
// step waits does not fail those steps.
func TestSequenceHoldsItsMatrices(t *testing.T) {
	ctx := context.Background()
	s := New(Config{Procs: 4, Workers: 1})
	defer s.Shutdown(ctx)
	pin := matgen.Grid2D(20, 20)
	pinKey, _, _ := s.Submit(pin)
	if _, err := s.Solve(ctx, pinKey, rhs(pin.N, 1), SolveOptions{}); err != nil {
		t.Fatal(err)
	}
	release := pinWorker(t, s, pinKey, rhs(pin.N, 2))

	base := matgen.Grid2D(21, 22)
	keys := make([]string, 3)
	for i, a := range append([]*sparse.CSR{base}, matgen.Evolve(base, 2, 1e-2, 4)...) {
		keys[i], _, _ = s.Submit(a)
	}
	done := make(chan error, 1)
	go func() {
		_, err := s.SolveSequence(ctx, keys, rhs(base.N, 3), SolveOptions{}, true)
		done <- err
	}()
	waitFor(t, "the first step to queue", func() bool { return s.StatsSnapshot().QueueDepth == 1 })
	fillMatrixTier(t, s)
	s.mu.Lock()
	for _, key := range keys {
		if _, held := s.matrices.items[key]; held {
			s.mu.Unlock()
			t.Fatalf("key %s is still held; the fillers did not evict the sequence", key)
		}
	}
	s.mu.Unlock()
	if err := release(); !errors.Is(err, krylov.ErrCanceled) {
		t.Fatalf("pinning solve: err = %v, want krylov.ErrCanceled", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("sequence after its matrices were evicted: %v", err)
	}
}
