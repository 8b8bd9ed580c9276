package ilu

import (
	"math/rand"
	"reflect"
	"testing"
)

// Scratch-poisoning property tests (ISSUE 8): a reused Scratch must be
// indistinguishable from a fresh one. Between factorization passes the
// poison pass overwrites every byte a correct kernel may not read with
// NaN and sentinel garbage; a kernel that consumes stale scratch state
// then produces NaNs (which reflect.DeepEqual never matches) or absurd
// column indices, so a bitwise run-to-run comparison catches the leak.

type poisonRowOut struct {
	lC []int
	lV []float64
	u  URow
}

// runPoisonRows eliminates and factors a deterministic pseudo-random row
// set against a fixed pivot panel, returning every output for bitwise
// comparison.
func runPoisonRows(t *testing.T, s *Scratch) []poisonRowOut {
	t.Helper()
	const n = 96
	pivots := make([]URow, 8)
	for k := range pivots {
		pivots[k] = URow{
			Col:  k,
			Diag: 2 + float64(k)*0.125,
			Cols: []int{8 + 2*k, 32 + k, 64 + 3*k},
			Vals: []float64{0.5, -0.25, 1.0 / float64(k+2)},
		}
	}
	pivot := func(k int) *URow { return &pivots[k] }
	rng := rand.New(rand.NewSource(42))
	st := &Stats{}
	var out []poisonRowOut
	for r := 0; r < 60; r++ {
		i := 8 + rng.Intn(n-8)
		var cols []int
		var vals []float64
		for j := 0; j < n; j++ {
			if j == i {
				cols = append(cols, j)
				vals = append(vals, 6+rng.Float64())
			} else if rng.Float64() < 0.15 {
				cols = append(cols, j)
				vals = append(vals, rng.NormFloat64())
			}
		}
		var o poisonRowOut
		if r%2 == 0 {
			o.lC, o.lV, _, _ = s.EliminateRowSeq(i, cols, vals, pivot, 0, 8, 1e-3, 5, 2, st)
		} else {
			o.lC, o.lV, _, _ = s.EliminateRow(i, cols, vals, nil, nil, pivot, 0, 8, 1e-3, 5, 2, st)
		}
		_, _, rC, rV := s.EliminateRowStatic(i, cols, vals, nil, nil, pivot, 0, 8, st)
		u, err := s.FactorPivotRow(i, rC, rV, 1e-3, 5, 0, st)
		if err != nil {
			t.Fatalf("row %d: FactorPivotRow: %v", r, err)
		}
		o.u = u
		out = append(out, o)
	}
	return out
}

// TestScratchPoisonBitwise factors the same row set with a fresh Scratch
// and with one reused Scratch that is poisoned between passes, and
// demands bitwise-identical outputs every time.
func TestScratchPoisonBitwise(t *testing.T) {
	base := runPoisonRows(t, NewScratch(96))

	s := NewScratch(96)
	for pass := 0; pass < 3; pass++ {
		got := runPoisonRows(t, s)
		if !reflect.DeepEqual(got, base) {
			t.Fatalf("pass %d on a reused+poisoned scratch differs bitwise from a fresh scratch", pass)
		}
		// Simulate the pool's reuse protocol, then scribble.
		s.Sanitize()
		s.DetachOutputs()
		s.Poison()
	}
}

// TestScratchPoisonPanicsOnLiveState pins the other half of the Poison
// contract: poisoning a scratch that still holds live data — an entry in
// the working row, a column in the pivot queue — must panic rather than
// silently corrupt it.
func TestScratchPoisonPanicsOnLiveState(t *testing.T) {
	for name, dirty := range map[string]func(s *Scratch){
		"working row": func(s *Scratch) { s.W().Scatter([]int{3}, []float64{1.5}) },
		"pivot queue": func(s *Scratch) { s.q.push(5) },
	} {
		s := NewScratch(16)
		dirty(s)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Poison on a dirty %s did not panic", name)
				}
			}()
			s.Poison()
		}()
	}
}

// TestScratchSanitizeAfterMidRowPanic: a sweep that panics on a missing
// pivot after its first elimination leaves the row scattered and the
// second pivot still queued. Poison refuses that scratch, for the queue
// alone too; Sanitize makes it pass, and the scratch then factors like a
// fresh one.
func TestScratchSanitizeAfterMidRowPanic(t *testing.T) {
	s := NewScratch(96)
	first := URow{Col: 2, Diag: 2, Cols: []int{5, 70}, Vals: []float64{1, 1}}
	panicked := func(f func()) (p bool) {
		defer func() { p = recover() != nil }()
		f()
		return
	}
	if !panicked(func() {
		s.EliminateRowSeq(80, []int{2, 40, 80}, []float64{1, 1, 4}, func(k int) *URow {
			if k == 2 {
				return &first
			}
			return nil // pivot 5, the fill of pivot 2, is missing
		}, 0, 64, 1e-3, 5, 2, &Stats{})
	}) {
		t.Fatal("a missing pivot did not panic")
	}
	if !panicked(s.Poison) {
		t.Fatal("Poison passed a scratch abandoned mid-row")
	}
	s.W().Reset()
	if !panicked(s.Poison) {
		t.Fatal("Poison passed a scratch whose pivot queue still holds column 40")
	}
	s.Sanitize()
	s.Poison()
	if got, want := runPoisonRows(t, s), runPoisonRows(t, NewScratch(96)); !reflect.DeepEqual(got, want) {
		t.Fatal("a sanitized scratch factors differently from a fresh one")
	}
}
