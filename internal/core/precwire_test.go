package core

import (
	"bytes"
	"encoding/gob"
	"math"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/pcomm/modelled"
)

// cloneWire deep-copies a wire piece through a gob round trip, so a
// corrupted copy leaves the factored piece intact.
func cloneWire(t *testing.T, w WirePrecond) WirePrecond {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(w); err != nil {
		t.Fatal(err)
	}
	var out WirePrecond
	if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestFromWireRejectsMalformedPieces corrupts one field of a valid piece
// per row. Laying the factors out flat indexes by every column and index
// the wire carries, so each of these must come back as an error from
// FromWire — not a panic there, and not a piece that panics or answers
// wrongly inside a run.
func TestFromWireRejectsMalformedPieces(t *testing.T) {
	pcs, plan, _ := factorOn(t, modelled.New(4, machine.T3D()), oracleZoo()[0].a, oracleMethod("ilutstar"))
	const me = 1
	good := pcs[me].Wire()
	if _, err := FromWire(plan, cloneWire(t, good)); err != nil {
		t.Fatalf("the uncorrupted piece is rejected: %v", err)
	}
	n, tot := plan.A.N, plan.TotInterior
	intBase, nInt := plan.IntBase[me], plan.NIntLocal[me]
	// An interior row, and interface rows of the first and a later level
	// that have L and U entries to corrupt.
	interior := good.InteriorLocal[len(good.InteriorLocal)/2]
	first := good.LevelMembers[0][0]
	later, laterLevel := -1, -1
	for l := len(good.LevelMembers) - 1; l > 0 && later < 0; l-- {
		for _, li := range good.LevelMembers[l] {
			if len(good.LCols[li]) > 0 {
				later, laterLevel = li, l
				break
			}
		}
	}
	// Rows with two L entries, and two U entries, that this processor can
	// legitimately reference in either order.
	wide, wideU := -1, -1
	for li := range good.NewOf {
		if c := good.LCols[li]; wide < 0 && len(c) >= 2 && c[0] >= intBase {
			wide = li
		}
		if c := good.UCols[li]; wideU < 0 && len(c) >= 2 && c[1] < intBase+nInt {
			wideU = li
		}
	}
	if later < 0 || len(good.UCols[first]) == 0 || len(good.UCols[interior]) == 0 || nInt == 0 || intBase == 0 || wide < 0 || wideU < 0 {
		t.Fatal("fixture lacks the rows this test corrupts")
	}

	cases := []struct {
		name    string
		corrupt func(w *WirePrecond)
		want    string // substring of the error
	}{
		{"processor out of range", func(w *WirePrecond) { w.Me = 4 }, "processor 4"},
		{"row count", func(w *WirePrecond) { w.UDiag = w.UDiag[1:] }, "do not match plan rows"},
		{"level list count", func(w *WirePrecond) { w.LevelMembers = w.LevelMembers[1:] }, "level member lists"},
		{"ragged L row", func(w *WirePrecond) { w.LVals[later] = w.LVals[later][1:] }, "ragged"},
		{"ragged U row", func(w *WirePrecond) { w.UCols[first] = append(w.UCols[first], n-1) }, "ragged"},
		{"L column negative", func(w *WirePrecond) { w.LCols[later][0] = -1 }, "not an earlier one"},
		{"U column past n", func(w *WirePrecond) { w.UCols[first][len(w.UCols[first])-1] = n }, "not a later one"},
		{"L entry on a later unknown", func(w *WirePrecond) { w.LCols[later][0] = n - 1 }, "not an earlier one"},
		{"L entry on the diagonal", func(w *WirePrecond) { w.LCols[later][0] = w.NewOf[later] }, "not an earlier one"},
		{"U entry on an earlier unknown", func(w *WirePrecond) { w.UCols[first][0] = tot }, "not a later one"},
		{"L entry on a foreign interior", func(w *WirePrecond) { w.LCols[later][0] = 0 }, "another processor"},
		{"U entry on a foreign interior", func(w *WirePrecond) { w.UCols[interior][0] = intBase + nInt }, "another processor"},
		{"NewOf outside its level", func(w *WirePrecond) { w.NewOf[later] = w.Levels[laterLevel-1].Start }, "outside the level's run"},
		{"NewOf past n", func(w *WirePrecond) { w.NewOf[later] = n + 5 }, "outside the level's run"},
		{"interior NewOf off plan", func(w *WirePrecond) { w.NewOf[interior]++ }, "the plan numbers interior"},
		{"InteriorLocal index past owned", func(w *WirePrecond) { w.InteriorLocal[0] = len(w.NewOf) }, "names local row"},
		{"InteriorLocal index negative", func(w *WirePrecond) { w.InteriorLocal[0] = -1 }, "names local row"},
		{"LevelMembers index past owned", func(w *WirePrecond) { w.LevelMembers[0][0] = len(w.NewOf) + 3 }, "names local row"},
		{"row listed twice", func(w *WirePrecond) { w.LevelMembers[0][0] = interior }, "a second time"},
		{"row never listed", func(w *WirePrecond) {
			m := w.LevelMembers[laterLevel]
			w.LevelMembers[laterLevel] = m[:len(m)-1]
		}, "rows"},
		{"interior row dropped", func(w *WirePrecond) { w.InteriorLocal = w.InteriorLocal[1:] }, "interior rows"},
		{"levels leave a gap", func(w *WirePrecond) { w.Levels[1].Start++ }, "expected to start"},
		{"levels stop short", func(w *WirePrecond) { w.Levels[len(w.Levels)-1].Size-- }, "levels end"},
		{"NaN in L", func(w *WirePrecond) { w.LVals[later][0] = math.NaN() }, "non-finite"},
		{"Inf in L", func(w *WirePrecond) { w.LVals[later][len(w.LVals[later])-1] = math.Inf(-1) }, "non-finite"},
		{"NaN in U", func(w *WirePrecond) { w.UVals[interior][0] = math.NaN() }, "non-finite"},
		{"Inf in U", func(w *WirePrecond) { w.UVals[first][0] = math.Inf(1) }, "non-finite"},
		{"zero pivot", func(w *WirePrecond) { w.UDiag[first] = 0 }, "pivot"},
		{"negative-zero pivot", func(w *WirePrecond) { w.UDiag[interior] = math.Copysign(0, -1) }, "pivot"},
		{"NaN pivot", func(w *WirePrecond) { w.UDiag[later] = math.NaN() }, "pivot"},
		{"Inf pivot", func(w *WirePrecond) { w.UDiag[interior] = math.Inf(1) }, "pivot"},
		{"L columns out of order", func(w *WirePrecond) {
			c := w.LCols[wide]
			c[0], c[1] = c[1], c[0]
		}, "increasing order"},
		{"L column repeated", func(w *WirePrecond) { w.LCols[wide][1] = w.LCols[wide][0] }, "increasing order"},
		{"U columns out of order", func(w *WirePrecond) {
			c := w.UCols[wideU]
			c[0], c[1] = c[1], c[0]
		}, "increasing order"},
		{"U column repeated", func(w *WirePrecond) { w.UCols[wideU][1] = w.UCols[wideU][0] }, "increasing order"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := cloneWire(t, good)
			tc.corrupt(&w)
			pc, err := FromWire(plan, w)
			if err == nil || pc != nil {
				t.Fatalf("FromWire built a piece from a wire with %s", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}
