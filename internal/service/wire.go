package service

// The peer wire: the one binary form in which a factorization (GET
// /v1/peer/factor/{key}, POST /v1/peer/replica/{key}) and a replicated
// matrix (POST /v1/peer/matrix) cross between daemons. Both bodies open
// with an 8-byte magic string and a uint32 version; a reader accepts its
// own version only, so a body from a daemon that writes another layout
// (or a gob body from an older one) is refused before anything else is
// read, and the fetcher builds locally instead.
//
// Each body's layout is one function of an internal/codec Coder, which
// both writes and reads it (little-endian, uint32 lengths, int32 indices
// refused rather than truncated past 32 bits — maxMMDim is 2^24 — raw
// float64 bits, rows as count, lengths and one concatenated array).
// Header integers and the matrix dimensions are int64.
//
//	factor body:  "PILUTFAC" version
//	              key Procs Seed Params(M Tau K PivotPerturb) MISRounds
//	              LadderStep Degraded(u8) Levels FactorSeconds PartDigest[32]
//	              P, then per piece: Me Stats (ILU counters, the scalar
//	              counters, level records, phase seconds)
//	              matrix (N M RowPtr Cols Vals)
//	              per piece: NewOf LCols LVals UCols UVals UDiag
//	              InteriorLocal Levels(Start Size) LevelMembers
//	matrix body:  "PILUTCSR" version matrix
//
// The codec trusts no length when it decodes and refuses trailing bytes.
// What the decoder returns is only well-formed as bytes — sparse.CSR.Check,
// core.FromWire and core.CheckExchange judge the contents, as importFactor
// does. A list of length zero decodes as nil; rows are never nil.

import (
	"crypto/sha256"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/ilu"
	"repro/internal/sparse"
)

const (
	factorMagic = "PILUTFAC"
	matrixMagic = "PILUTCSR"
	// wireVersion changes with every change of either layout.
	wireVersion = 1

	// minPieceBytes is the fewest bytes one piece can take (its header with
	// no level records, and its nine empty arrays): a piece count is held
	// against it before the pieces are allocated.
	minPieceBytes = 8 + 8 + 5*8 + 5*8 + 4 + 3*8 + 9*4
)

// wireFactor is the body of /v1/peer/factor/{key}: the factored matrix
// plus every processor's preconditioner piece, and the exact
// configuration the factorization ran under. The importer derives the
// partition, layout and elimination plan itself — pure functions of
// (pattern, procs, seed), so usually a symbolic-tier hit — and
// rehydrates the pieces, so the factors never get recomputed and stay
// bitwise identical to the owner's.
type wireFactor struct {
	Key    string
	Matrix *sparse.CSR
	Procs  int
	Seed   int64
	// Params and MISRounds are the exporter's configured values (not a
	// ladder rung's relaxed ones): a daemon running another τ, m or k
	// serves factors this one would never have built, so the importer
	// refuses a mismatch.
	Params        ilu.Params
	MISRounds     int
	LadderStep    string
	Degraded      bool
	Levels        int
	FactorSeconds float64
	Pieces        []core.WirePrecond
	// PartDigest is the sha-256 of the exporter's row → processor
	// assignment. The importer binds the pieces to the assignment it
	// derives itself, so a daemon whose partitioner is another version —
	// and derives another assignment — must refuse them.
	PartDigest [sha256.Size]byte
}

// encodeFactor writes wf as a factor body.
func encodeFactor(wf *wireFactor) ([]byte, error) { return codec.Encode(wf.code) }

// decodeFactor reads a factor body.
func decodeFactor(data []byte) (*wireFactor, error) {
	wf := &wireFactor{}
	c := codec.NewDecoder("service: peer body", data)
	wf.code(c)
	if err := c.End(); err != nil {
		return nil, err
	}
	return wf, nil
}

// code is the factor body's layout.
func (wf *wireFactor) code(c *codec.Coder) {
	c.Header(factorMagic, wireVersion)
	c.Str(&wf.Key)
	c.Int(&wf.Procs)
	c.I64(&wf.Seed)
	c.Int(&wf.Params.M)
	c.F64(&wf.Params.Tau)
	c.Int(&wf.Params.K)
	c.F64(&wf.Params.PivotPerturb)
	c.Int(&wf.MISRounds)
	c.Str(&wf.LadderStep)
	c.Flag(&wf.Degraded)
	c.Int(&wf.Levels)
	c.F64(&wf.FactorSeconds)
	c.Bytes(wf.PartDigest[:])
	codec.List(c, &wf.Pieces, minPieceBytes)
	for q := range wf.Pieces {
		c.Int(&wf.Pieces[q].Me)
		codeStats(c, &wf.Pieces[q].Stats)
	}
	codeCSR(c, &wf.Matrix)
	for q := range wf.Pieces {
		pc := &wf.Pieces[q]
		c.Ints(&pc.NewOf)
		c.IntRows(&pc.LCols)
		c.FloatRows(&pc.LVals)
		c.IntRows(&pc.UCols)
		c.FloatRows(&pc.UVals)
		c.Floats(&pc.UDiag)
		c.Ints(&pc.InteriorLocal)
		codec.List(c, &pc.Levels, 8)
		for l := range pc.Levels {
			c.I32(&pc.Levels[l].Start)
			c.I32(&pc.Levels[l].Size)
		}
		c.IntRows(&pc.LevelMembers)
	}
}

// encodeMatrix writes a as a matrix body.
func encodeMatrix(a *sparse.CSR) ([]byte, error) {
	return codec.Encode(func(c *codec.Coder) {
		c.Header(matrixMagic, wireVersion)
		codeCSR(c, &a)
	})
}

// decodeMatrix reads a matrix body.
func decodeMatrix(data []byte) (a *sparse.CSR, err error) {
	err = codec.Decode("service: peer body", data, func(c *codec.Coder) {
		c.Header(matrixMagic, wireVersion)
		codeCSR(c, &a)
	})
	if err != nil {
		return nil, err
	}
	return a, nil
}

// codeCSR codes the matrix *a, which decoding allocates.
func codeCSR(c *codec.Coder, a **sparse.CSR) {
	if *a == nil {
		*a = &sparse.CSR{}
	}
	m := *a
	c.Int(&m.N)
	c.Int(&m.M)
	c.Ints(&m.RowPtr)
	c.Ints(&m.Cols)
	c.Floats(&m.Vals)
}

func codeStats(c *codec.Coder, st *core.Stats) {
	c.F64(&st.ILU.Flops)
	for _, v := range [...]*int{&st.ILU.Dropped, &st.ILU.FixedPivot, &st.ILU.DroppedRule1, &st.ILU.DroppedRule2, &st.ILU.DroppedRule3,
		&st.NumLevels, &st.NInterface, &st.NInterior, &st.ReducedNNZ0, &st.CopiedEntries} {
		c.Int(v)
	}
	codec.List(c, &st.Levels, 6*8)
	for l := range st.Levels {
		ls := &st.Levels[l]
		for _, v := range [...]*int{&ls.Start, &ls.Size, &ls.PivotsLocal, &ls.RowsLocal, &ls.ReducedNNZLocal, &ls.DroppedLocal} {
			c.Int(v)
		}
	}
	c.F64(&st.Phase1InteriorSeconds)
	c.F64(&st.Phase1InterfaceSeconds)
	c.F64(&st.Phase2Seconds)
}
