package service

// The peer wire: the one binary form in which a factorization (GET
// /v1/peer/factor/{key}, POST /v1/peer/replica/{key}) and a replicated
// matrix (POST /v1/peer/matrix) cross between daemons. Both bodies open
// with an 8-byte magic string and a uint32 version; a reader accepts its
// own version only, so a body from a daemon that writes another layout
// (or a gob body from an older one) is refused before anything else is
// read, and the fetcher builds locally instead.
//
// Every integer is little-endian. Header integers and the matrix
// dimensions are int64; lengths are uint32; indices and row pointers are
// int32, and the encoder refuses a value that does not fit rather than
// truncating it (maxMMDim is 2^24).
// Values travel as raw float64 bits. A list of rows travels as its row
// count, the row lengths, then one concatenated array.
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
// The decoder trusts no length: each is checked against the bytes still
// unread before anything is allocated, every field is decoded into one
// flat allocation that its rows are sliced from, and trailing bytes are
// an error. What it returns is only well-formed as bytes — sparse.CSR.Check,
// core.FromWire and core.CheckExchange judge the contents, as importFactor
// does. A list of length zero decodes as nil; rows are never nil.

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

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
func encodeFactor(wf *wireFactor) ([]byte, error) {
	return encodeBody(func(w *wireWriter) {
		w.bytes([]byte(factorMagic))
		w.u32(wireVersion)
		w.str(wf.Key)
		w.i64(int64(wf.Procs))
		w.i64(wf.Seed)
		w.i64(int64(wf.Params.M))
		w.f64(wf.Params.Tau)
		w.i64(int64(wf.Params.K))
		w.f64(wf.Params.PivotPerturb)
		w.i64(int64(wf.MISRounds))
		w.str(wf.LadderStep)
		w.flag(wf.Degraded)
		w.i64(int64(wf.Levels))
		w.f64(wf.FactorSeconds)
		w.bytes(wf.PartDigest[:])
		w.count(len(wf.Pieces))
		for q := range wf.Pieces {
			w.i64(int64(wf.Pieces[q].Me))
			w.stats(&wf.Pieces[q].Stats)
		}
		w.csr(wf.Matrix)
		for q := range wf.Pieces {
			pc := &wf.Pieces[q]
			w.ints(pc.NewOf)
			w.intRows(pc.LCols)
			w.floatRows(pc.LVals)
			w.intRows(pc.UCols)
			w.floatRows(pc.UVals)
			w.floats(pc.UDiag)
			w.ints(pc.InteriorLocal)
			w.count(len(pc.Levels))
			for _, lv := range pc.Levels {
				w.i32(lv.Start)
				w.i32(lv.Size)
			}
			w.intRows(pc.LevelMembers)
		}
	})
}

// decodeFactor reads a factor body.
func decodeFactor(data []byte) (*wireFactor, error) {
	r := &wireReader{buf: data}
	r.magic(factorMagic)
	wf := &wireFactor{}
	wf.Key = r.str()
	wf.Procs = int(r.i64())
	wf.Seed = r.i64()
	wf.Params.M = int(r.i64())
	wf.Params.Tau = r.f64()
	wf.Params.K = int(r.i64())
	wf.Params.PivotPerturb = r.f64()
	wf.MISRounds = int(r.i64())
	wf.LadderStep = r.str()
	wf.Degraded = r.flag()
	wf.Levels = int(r.i64())
	wf.FactorSeconds = r.f64()
	copy(wf.PartDigest[:], r.take(sha256.Size))
	if n := r.count(minPieceBytes); n > 0 {
		wf.Pieces = make([]core.WirePrecond, n)
	}
	for q := range wf.Pieces {
		wf.Pieces[q].Me = int(r.i64())
		r.stats(&wf.Pieces[q].Stats)
	}
	wf.Matrix = r.csr()
	for q := range wf.Pieces {
		pc := &wf.Pieces[q]
		pc.NewOf = r.ints()
		pc.LCols = r.intRows()
		pc.LVals = r.floatRows()
		pc.UCols = r.intRows()
		pc.UVals = r.floatRows()
		pc.UDiag = r.floats()
		pc.InteriorLocal = r.ints()
		if n := r.count(8); n > 0 {
			pc.Levels = make([]core.LevelInfo, n)
			for l := range pc.Levels {
				pc.Levels[l] = core.LevelInfo{Start: r.i32(), Size: r.i32()}
			}
		}
		pc.LevelMembers = r.intRows()
	}
	if err := r.end(); err != nil {
		return nil, err
	}
	return wf, nil
}

// encodeMatrix writes a as a matrix body.
func encodeMatrix(a *sparse.CSR) ([]byte, error) {
	return encodeBody(func(w *wireWriter) {
		w.bytes([]byte(matrixMagic))
		w.u32(wireVersion)
		w.csr(a)
	})
}

// decodeMatrix reads a matrix body.
func decodeMatrix(data []byte) (*sparse.CSR, error) {
	r := &wireReader{buf: data}
	r.magic(matrixMagic)
	a := r.csr()
	if err := r.end(); err != nil {
		return nil, err
	}
	return a, nil
}

// encodeBody runs write twice: once to size the body, once into a buffer
// of exactly that size.
func encodeBody(write func(w *wireWriter)) ([]byte, error) {
	w := &wireWriter{sizing: true}
	write(w)
	w.sizing, w.buf = false, make([]byte, 0, w.n)
	write(w)
	if w.err != nil {
		return nil, w.err
	}
	return w.buf, nil
}

// wireWriter appends the little-endian encoding to buf, or, while
// sizing, only counts the bytes. The first value that does not fit its
// field is kept in err; writing goes on, so the sizes stay consistent.
type wireWriter struct {
	buf    []byte
	n      int
	sizing bool
	err    error
}

// next reserves k bytes and returns them to fill, or nil while sizing.
func (w *wireWriter) next(k int) []byte {
	w.n += k
	if w.sizing {
		return nil
	}
	at := len(w.buf)
	w.buf = slices.Grow(w.buf, k)[:at+k]
	return w.buf[at:]
}

func (w *wireWriter) fail(format string, args ...any) {
	if w.err == nil {
		w.err = fmt.Errorf("peer body: "+format, args...)
	}
}

func (w *wireWriter) bytes(b []byte) {
	if out := w.next(len(b)); out != nil {
		copy(out, b)
	}
}

func (w *wireWriter) u32(v uint32) {
	if out := w.next(4); out != nil {
		binary.LittleEndian.PutUint32(out, v)
	}
}

func (w *wireWriter) i64(v int64) {
	if out := w.next(8); out != nil {
		binary.LittleEndian.PutUint64(out, uint64(v))
	}
}

func (w *wireWriter) f64(v float64) { w.i64(int64(math.Float64bits(v))) }

func (w *wireWriter) flag(v bool) {
	if out := w.next(1); out != nil && v {
		out[0] = 1
	}
}

// count writes a length.
func (w *wireWriter) count(n int) {
	if n > math.MaxUint32 {
		w.fail("length %d does not fit 32 bits", n)
	}
	w.u32(uint32(n))
}

// i32 writes an index.
func (w *wireWriter) i32(v int) {
	if out := w.next(4); out != nil {
		if v != int(int32(v)) {
			w.fail("index %d does not fit 32 bits", v)
		}
		binary.LittleEndian.PutUint32(out, uint32(v))
	}
}

func (w *wireWriter) str(s string) {
	w.count(len(s))
	if out := w.next(len(s)); out != nil {
		copy(out, s)
	}
}

// putInts fills out with xs as int32s.
func (w *wireWriter) putInts(out []byte, xs []int) {
	for i, v := range xs {
		if v != int(int32(v)) {
			w.fail("index %d does not fit 32 bits", v)
		}
		binary.LittleEndian.PutUint32(out[4*i:], uint32(v))
	}
}

func putFloats(out []byte, xs []float64) {
	for i, v := range xs {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(v))
	}
}

func (w *wireWriter) ints(xs []int) {
	w.count(len(xs))
	if out := w.next(4 * len(xs)); out != nil {
		w.putInts(out, xs)
	}
}

func (w *wireWriter) floats(xs []float64) {
	w.count(len(xs))
	if out := w.next(8 * len(xs)); out != nil {
		putFloats(out, xs)
	}
}

// rowLengths writes a row list's count and row lengths, and reserves
// room for the concatenated rows at elem bytes an item.
func rowLengths[T any](w *wireWriter, rows [][]T, elem int) []byte {
	w.count(len(rows))
	lens := w.next(4 * len(rows))
	total := 0
	for i, row := range rows {
		if len(row) > math.MaxUint32 {
			w.fail("row length %d does not fit 32 bits", len(row))
		}
		if lens != nil {
			binary.LittleEndian.PutUint32(lens[4*i:], uint32(len(row)))
		}
		total += len(row)
	}
	return w.next(elem * total)
}

func (w *wireWriter) intRows(rows [][]int) {
	if out := rowLengths(w, rows, 4); out != nil {
		for _, row := range rows {
			w.putInts(out, row)
			out = out[4*len(row):]
		}
	}
}

func (w *wireWriter) floatRows(rows [][]float64) {
	if out := rowLengths(w, rows, 8); out != nil {
		for _, row := range rows {
			putFloats(out, row)
			out = out[8*len(row):]
		}
	}
}

func (w *wireWriter) csr(a *sparse.CSR) {
	w.i64(int64(a.N))
	w.i64(int64(a.M))
	w.ints(a.RowPtr)
	w.ints(a.Cols)
	w.floats(a.Vals)
}

func (w *wireWriter) stats(st *core.Stats) {
	w.f64(st.ILU.Flops)
	for _, v := range [...]int{st.ILU.Dropped, st.ILU.FixedPivot, st.ILU.DroppedRule1, st.ILU.DroppedRule2, st.ILU.DroppedRule3,
		st.NumLevels, st.NInterface, st.NInterior, st.ReducedNNZ0, st.CopiedEntries} {
		w.i64(int64(v))
	}
	w.count(len(st.Levels))
	for _, ls := range st.Levels {
		for _, v := range [...]int{ls.Start, ls.Size, ls.PivotsLocal, ls.RowsLocal, ls.ReducedNNZLocal, ls.DroppedLocal} {
			w.i64(int64(v))
		}
	}
	w.f64(st.Phase1InteriorSeconds)
	w.f64(st.Phase1InterfaceSeconds)
	w.f64(st.Phase2Seconds)
}

// errShortBody is what every read past the end of a body reports.
var errShortBody = errors.New("service: peer body ends early")

// wireReader consumes a body from the front. The first failure is kept
// in err and every later read returns a zero value without allocating.
type wireReader struct {
	buf []byte // unread
	err error
}

func (r *wireReader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.buf = nil
}

// take consumes k bytes, or fails when fewer are left.
func (r *wireReader) take(k int) []byte {
	if r.err != nil || k > len(r.buf) {
		r.fail(errShortBody)
		return nil
	}
	out := r.buf[:k:k]
	r.buf = r.buf[k:]
	return out
}

func (r *wireReader) magic(want string) {
	if len(r.buf) < len(want) || string(r.buf[:len(want)]) != want {
		r.fail(fmt.Errorf("service: peer body does not start with %q", want))
		return
	}
	r.take(len(want))
	if v := r.u32(); r.err == nil && v != wireVersion {
		r.fail(fmt.Errorf("service: peer body has wire version %d, this daemon reads version %d", v, wireVersion))
	}
}

// end reports the first failure, or an error if bytes are left over.
func (r *wireReader) end() error {
	if r.err == nil && len(r.buf) > 0 {
		r.err = fmt.Errorf("service: peer body has %d trailing bytes", len(r.buf))
	}
	return r.err
}

func (r *wireReader) u32() uint32 {
	if b := r.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (r *wireReader) i64() int64 {
	if b := r.take(8); b != nil {
		return int64(binary.LittleEndian.Uint64(b))
	}
	return 0
}

func (r *wireReader) f64() float64 { return math.Float64frombits(uint64(r.i64())) }

func (r *wireReader) i32() int { return int(int32(r.u32())) }

func (r *wireReader) flag() bool {
	b := r.take(1)
	if b != nil && b[0] > 1 {
		r.fail(fmt.Errorf("service: peer body has flag byte %d", b[0]))
	}
	return b != nil && b[0] == 1
}

// count reads a length of items that take at least elem bytes each, and
// fails unless that many bytes are still unread.
func (r *wireReader) count(elem int) int {
	n := int(r.u32())
	if r.err == nil && n > len(r.buf)/elem {
		r.fail(fmt.Errorf("%w: %d items of %d bytes declared, %d bytes left", errShortBody, n, elem, len(r.buf)))
		return 0
	}
	return n
}

func (r *wireReader) str() string {
	return string(r.take(r.count(1)))
}

// getInts decodes k int32s into out.
func (r *wireReader) getInts(out []int) {
	b := r.take(4 * len(out))
	for i := range out {
		out[i] = int(int32(binary.LittleEndian.Uint32(b[4*i:])))
	}
}

func (r *wireReader) getFloats(out []float64) {
	b := r.take(8 * len(out))
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
}

func (r *wireReader) ints() []int {
	n := r.count(4)
	if n == 0 {
		return nil
	}
	out := make([]int, n)
	r.getInts(out)
	return out
}

func (r *wireReader) floats() []float64 {
	n := r.count(8)
	if n == 0 {
		return nil
	}
	out := make([]float64, n)
	r.getFloats(out)
	return out
}

// rowLengths reads a row list's count and lengths and returns the raw
// lengths and their total, once the total is known to fit the bytes left
// at elem bytes an item. Nothing is allocated.
func (r *wireReader) rowLengths(elem int) (lens []byte, total int) {
	lens = r.take(4 * r.count(4))
	for i := 0; i < len(lens); i += 4 {
		total += int(binary.LittleEndian.Uint32(lens[i:]))
	}
	if r.err == nil && total > len(r.buf)/elem {
		r.fail(fmt.Errorf("%w: rows of %d items of %d bytes declared, %d bytes left", errShortBody, total, elem, len(r.buf)))
		return nil, 0
	}
	return lens, total
}

func (r *wireReader) intRows() [][]int {
	lens, total := r.rowLengths(4)
	if len(lens) == 0 {
		return nil
	}
	flat := make([]int, total)
	r.getInts(flat)
	return sliceRows(lens, flat)
}

func (r *wireReader) floatRows() [][]float64 {
	lens, total := r.rowLengths(8)
	if len(lens) == 0 {
		return nil
	}
	flat := make([]float64, total)
	r.getFloats(flat)
	return sliceRows(lens, flat)
}

// sliceRows cuts flat into rows of the given uint32 lengths.
func sliceRows[T any](lens []byte, flat []T) [][]T {
	rows := make([][]T, len(lens)/4)
	at := 0
	for i := range rows {
		end := at + int(binary.LittleEndian.Uint32(lens[4*i:]))
		rows[i] = flat[at:end:end]
		at = end
	}
	return rows
}

func (r *wireReader) csr() *sparse.CSR {
	a := &sparse.CSR{N: int(r.i64()), M: int(r.i64())}
	a.RowPtr = r.ints()
	a.Cols = r.ints()
	a.Vals = r.floats()
	return a
}

func (r *wireReader) stats(st *core.Stats) {
	st.ILU.Flops = r.f64()
	for _, v := range [...]*int{&st.ILU.Dropped, &st.ILU.FixedPivot, &st.ILU.DroppedRule1, &st.ILU.DroppedRule2, &st.ILU.DroppedRule3,
		&st.NumLevels, &st.NInterface, &st.NInterior, &st.ReducedNNZ0, &st.CopiedEntries} {
		*v = int(r.i64())
	}
	if n := r.count(6 * 8); n > 0 {
		st.Levels = make([]core.LevelStats, n)
		for l := range st.Levels {
			ls := &st.Levels[l]
			for _, v := range [...]*int{&ls.Start, &ls.Size, &ls.PivotsLocal, &ls.RowsLocal, &ls.ReducedNNZLocal, &ls.DroppedLocal} {
				*v = int(r.i64())
			}
		}
	}
	st.Phase1InteriorSeconds = r.f64()
	st.Phase1InterfaceSeconds = r.f64()
	st.Phase2Seconds = r.f64()
}
