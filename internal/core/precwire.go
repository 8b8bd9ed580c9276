package core

import "fmt"

// WirePrecond is the serializable form of one processor's ProcPrecond:
// everything the triangular solves read that cannot be rebuilt from the
// elimination plan. A factorization shipped between daemons travels as
// one WirePrecond per processor next to the matrix it factored; the
// receiver reconstructs the plan deterministically (same matrix, same
// layout, same parameters on both ends) and rehydrates the pieces with
// FromWire. Shipping the rows instead of refactoring preserves bitwise
// identity by construction — the bytes that cross the wire are the bytes
// the owner's factorization produced.
type WirePrecond struct {
	Me            int
	NewOf         []int
	LCols         [][]int
	LVals         [][]float64
	UCols         [][]int
	UVals         [][]float64
	UDiag         []float64
	InteriorLocal []int
	Levels        []LevelInfo
	LevelMembers  [][]int
	Stats         Stats
}

// Wire extracts the serializable form of the piece. The returned value
// aliases the piece's slices; callers encode it before the entry
// mutates (entries are immutable once published, so in practice: any
// time).
func (pc *ProcPrecond) Wire() WirePrecond {
	return WirePrecond{
		Me:            pc.me,
		NewOf:         pc.newOf,
		LCols:         pc.lCols,
		LVals:         pc.lVals,
		UCols:         pc.uCols,
		UVals:         pc.uVals,
		UDiag:         pc.uDiag,
		InteriorLocal: pc.interiorLocal,
		Levels:        pc.levels,
		LevelMembers:  pc.levelMembers,
		Stats:         pc.Stats,
	}
}

// FromWire rebuilds processor w.Me's preconditioner piece against a
// locally reconstructed plan. The plan must come from the same matrix
// and layout the piece was factored under; the basic shape invariants
// are checked so a mismatched plan fails loudly instead of producing
// silently wrong solves.
func FromWire(plan *Plan, w WirePrecond) (*ProcPrecond, error) {
	if w.Me < 0 || w.Me >= plan.Lay.P {
		return nil, fmt.Errorf("core: wire precond for processor %d of a %d-processor plan", w.Me, plan.Lay.P)
	}
	owned := plan.Lay.Rows[w.Me]
	if len(w.NewOf) != len(owned) || len(w.LCols) != len(owned) || len(w.UCols) != len(owned) ||
		len(w.LVals) != len(owned) || len(w.UVals) != len(owned) || len(w.UDiag) != len(owned) {
		return nil, fmt.Errorf("core: wire precond rows (%d) do not match plan rows (%d) for processor %d",
			len(w.NewOf), len(owned), w.Me)
	}
	if len(w.LevelMembers) != len(w.Levels) {
		return nil, fmt.Errorf("core: wire precond has %d level member lists for %d levels",
			len(w.LevelMembers), len(w.Levels))
	}
	pc := &ProcPrecond{
		plan:          plan,
		me:            w.Me,
		owned:         owned,
		newOf:         w.NewOf,
		lCols:         w.LCols,
		lVals:         w.LVals,
		uCols:         w.UCols,
		uVals:         w.UVals,
		uDiag:         w.UDiag,
		interiorLocal: w.InteriorLocal,
		levels:        w.Levels,
		levelMembers:  w.LevelMembers,
		Stats:         w.Stats,
	}
	pc.lanes = []solveLane{pc.newLane()}
	return pc, nil
}
