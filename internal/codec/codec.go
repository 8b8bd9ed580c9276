// Package codec is the one binary form of every byte that crosses a
// process: netcomm's frames between the ranks of a world, and the peer
// bodies (factors, matrices) between daemons. A package writes each of
// its layouts once, as a function of a *Coder, and that one function
// encodes (Encode, Frame) and decodes (Decode): a layout's writer and
// its reader cannot disagree.
//
// Every integer is little-endian. Lengths are uint32; indices are int32,
// and encoding refuses a value that does not fit rather than truncating
// it. Floats travel as their raw IEEE-754 bits, so a decode is bit-exact.
// A list of rows travels as its row count, the row lengths, then one
// concatenated array.
//
// Encoding runs the layout twice: once to size the output, once into a
// buffer of exactly that size. Decoding trusts no length: each is checked
// against the bytes still unread before anything is allocated, every list
// decodes into one flat allocation its rows are sliced from, and trailing
// bytes are an error. The first failure is kept; every later value
// decodes as zero without allocating.
package codec

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
)

// Coder runs a layout in one direction. Its methods take each value by
// pointer: encoding reads it, decoding stores into it.
type Coder struct {
	decoding bool
	what     string // decoding: the input's name, opening every error
	in       []byte // decoding: the unread bytes
	out      []byte // encoding: the output, nil while sizing
	n        int    // encoding: the bytes coded so far
	err      error
}

// Encode runs layout twice: once to size the output, once into a buffer
// of exactly that size.
func Encode(layout func(c *Coder)) ([]byte, error) { return encode(-1, layout) }

// Frame is Encode behind a uint32 length prefix, in one buffer: a frame
// whose content exceeds limit bytes is refused before the buffer is
// allocated. ReadFrame reads it back.
func Frame(limit int, layout func(c *Coder)) ([]byte, error) { return encode(limit, layout) }

// encode is Encode, or with a limit ≥ 0 Frame.
func encode(limit int, layout func(c *Coder)) ([]byte, error) {
	c := &Coder{}
	layout(c)
	if c.err != nil {
		return nil, c.err
	}
	size := c.n
	if limit >= 0 && size > limit {
		return nil, fmt.Errorf("codec: frame of %d bytes exceeds the %d-byte limit", size, limit)
	}
	c.n = 0
	if limit < 0 {
		c.out = make([]byte, 0, size)
	} else {
		c.out = make([]byte, 0, 4+size)
		prefix := uint32(size)
		c.U32(&prefix)
	}
	layout(c)
	if c.err != nil {
		return nil, c.err
	}
	return c.out, nil
}

// Decode runs layout over b and then requires that nothing is left.
func Decode(what string, b []byte, layout func(c *Coder)) error {
	c := NewDecoder(what, b)
	layout(c)
	return c.End()
}

// NewDecoder starts decoding b, whose name (such as "netcomm: hello
// frame") opens every error; End finishes. Decode is the two together.
func NewDecoder(what string, b []byte) *Coder {
	return &Coder{decoding: true, what: what, in: b}
}

// End reports the first failure, or an error if bytes are left over.
func (c *Coder) End() error {
	if c.err == nil && len(c.in) > 0 {
		c.err = fmt.Errorf("%s has %d trailing bytes", c.what, len(c.in))
	}
	return c.err
}

// Fail records err unless a failure is already kept. Decoding stops: every
// later value decodes as zero.
func (c *Coder) Fail(err error) {
	if c.err == nil {
		c.err = err
	}
	c.in = nil
}

// ReadFrame reads one frame that Frame wrote and returns its content. The
// length prefix is held against limit before the content is allocated. A
// clean end of r before the prefix is io.EOF itself; a frame cut anywhere
// after its first byte is io.ErrUnexpectedEOF.
func ReadFrame(r io.Reader, limit int) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if int64(n) > int64(limit) {
		return nil, fmt.Errorf("codec: frame length %d exceeds the %d-byte limit", n, limit)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("codec: reading a %d-byte frame: %w", n, err)
	}
	return buf, nil
}

// field returns the next k bytes: to fill when encoding (nil while
// sizing), to read when decoding (nil once failed, or when fewer are
// left, which fails).
func (c *Coder) field(k int) []byte {
	if c.decoding {
		if c.err != nil {
			return nil
		}
		if k > len(c.in) {
			c.Fail(fmt.Errorf("%s ends early", c.what))
			return nil
		}
		b := c.in[:k:k]
		c.in = c.in[k:]
		return b
	}
	c.n += k
	if c.out == nil {
		return nil
	}
	at := len(c.out)
	c.out = slices.Grow(c.out, k)[:at+k]
	return c.out[at:]
}

// tooWide is the error of a value that does not fit its 32-bit field.
func tooWide(what string, v int) error {
	return fmt.Errorf("codec: %s %d does not fit 32 bits", what, v)
}

// encodeErr keeps err as an encoding's first failure; encoding goes on,
// so both passes stay the same size.
func (c *Coder) encodeErr(err error) {
	if c.err == nil {
		c.err = err
	}
}

func (c *Coder) U8(v *byte) {
	if b := c.field(1); b != nil {
		if c.decoding {
			*v = b[0]
		} else {
			b[0] = *v
		}
	}
}

func (c *Coder) U32(v *uint32) {
	if b := c.field(4); b != nil {
		if c.decoding {
			*v = binary.LittleEndian.Uint32(b)
		} else {
			binary.LittleEndian.PutUint32(b, *v)
		}
	}
}

func (c *Coder) U64(v *uint64) {
	if b := c.field(8); b != nil {
		if c.decoding {
			*v = binary.LittleEndian.Uint64(b)
		} else {
			binary.LittleEndian.PutUint64(b, *v)
		}
	}
}

func (c *Coder) I64(v *int64) {
	u := uint64(*v)
	c.U64(&u)
	*v = int64(u)
}

// Int codes v in 64 bits.
func (c *Coder) Int(v *int) {
	u := uint64(*v)
	c.U64(&u)
	*v = int(int64(u))
}

func (c *Coder) F64(v *float64) {
	u := math.Float64bits(*v)
	c.U64(&u)
	*v = math.Float64frombits(u)
}

// I32 codes an index in 32 bits.
func (c *Coder) I32(v *int) {
	if !c.decoding && *v != int(int32(*v)) {
		c.encodeErr(tooWide("index", *v))
	}
	u := uint32(*v)
	c.U32(&u)
	*v = int(int32(u))
}

// Flag codes v as one byte, 0 or 1.
func (c *Coder) Flag(v *bool) {
	var b byte
	if !c.decoding && *v {
		b = 1
	}
	c.U8(&b)
	if b > 1 {
		c.Fail(fmt.Errorf("%s has flag byte %d", c.what, b))
	}
	*v = b == 1
}

// Len codes the length n of a list whose items take at least elem bytes
// each. Decoding returns the length read, failing unless that many items
// of elem bytes are still unread.
func (c *Coder) Len(n, elem int) int {
	var u uint32
	if !c.decoding {
		if n < 0 || n > math.MaxUint32 {
			c.encodeErr(tooWide("length", n))
		}
		u = uint32(n)
	}
	c.U32(&u)
	if c.decoding && c.err == nil && int(u) > len(c.in)/elem {
		c.Fail(fmt.Errorf("%s ends early: %d items of %d bytes declared, %d bytes left", c.what, u, elem, len(c.in)))
		return 0
	}
	return int(u)
}

// List codes the length of *xs, whose items take at least elem bytes
// each; decoding allocates *xs at that length (nil when empty). The
// caller codes the items.
func List[T any](c *Coder, xs *[]T, elem int) {
	if n := c.Len(len(*xs), elem); c.decoding && n > 0 {
		*xs = make([]T, n)
	}
}

// Header codes a layout's magic string and version. Decoding refuses
// another magic (a stranger protocol) or another version of this one
// before anything else is read, each with an error that says which.
func (c *Coder) Header(magic string, version uint32) {
	if c.decoding && (len(c.in) < len(magic) || string(c.in[:len(magic)]) != magic) {
		c.Fail(fmt.Errorf("%s does not start with the magic %q", c.what, magic))
		return
	}
	c.Bytes([]byte(magic))
	v := version
	c.U32(&v)
	if c.err == nil && v != version {
		c.Fail(fmt.Errorf("%s has wire version %d, this process reads version %d", c.what, v, version))
	}
}

// Bytes codes len(b) bytes in place, without a length.
func (c *Coder) Bytes(b []byte) {
	if f := c.field(len(b)); f != nil {
		if c.decoding {
			copy(b, f)
		} else {
			copy(f, b)
		}
	}
}

// Blob codes a length and that many bytes; decoding leaves *b a view of
// the input.
func (c *Coder) Blob(b *[]byte) {
	n := c.Len(len(*b), 1)
	if f := c.field(n); f != nil {
		if c.decoding {
			*b = f
		} else {
			copy(f, *b)
		}
	}
}

// Str codes a length and the string's bytes.
func (c *Coder) Str(s *string) {
	n := c.Len(len(*s), 1)
	if f := c.field(n); f != nil {
		if c.decoding {
			*s = string(f)
		} else {
			copy(f, *s)
		}
	}
}

// Ints codes a length and the values as int32s; an empty list decodes as
// nil. Ints, Floats, IntRows and FloatRows stay out of line: inlined into
// another package, their generic call would move its *Coder to the heap.
//
//go:noinline
func (c *Coder) Ints(xs *[]int) { codeList(c, xs, 4, getInts, putInts) }

// Floats codes a length and the values; an empty list decodes as nil.
//
//go:noinline
func (c *Coder) Floats(xs *[]float64) { codeList(c, xs, 8, getFloats, putFloats) }

// IntRows codes a list of rows of int32s; an empty list decodes as nil,
// a row never does.
//
//go:noinline
func (c *Coder) IntRows(rows *[][]int) { codeRows(c, rows, 4, getInts, putInts) }

// FloatRows codes a list of rows of float64s, as IntRows does.
//
//go:noinline
func (c *Coder) FloatRows(rows *[][]float64) { codeRows(c, rows, 8, getFloats, putFloats) }

// codeList codes a length and the items of *xs at elem bytes each, with
// get and put converting them from and to the wire.
func codeList[T any](c *Coder, xs *[]T, elem int, get func([]byte, []T), put func([]byte, []T) error) {
	n := c.Len(len(*xs), elem)
	b := c.field(elem * n)
	switch {
	case b == nil || n == 0:
	case c.decoding:
		*xs = make([]T, n)
		get(b, *xs)
	default:
		c.encodeErr(put(b, *xs))
	}
}

// codeRows codes a row list's count, its row lengths and the rows
// concatenated, at elem bytes an item. Decoding holds their total against
// the bytes left before it allocates the rows: one flat array they are
// sliced from, and their headers.
func codeRows[T any](c *Coder, rows *[][]T, elem int, get func([]byte, []T), put func([]byte, []T) error) {
	n := c.Len(len(*rows), 4)
	lens := c.field(4 * n)
	total := 0
	if !c.decoding {
		for i, row := range *rows {
			if len(row) > math.MaxUint32 {
				c.encodeErr(tooWide("row length", len(row)))
			}
			if lens != nil {
				binary.LittleEndian.PutUint32(lens[4*i:], uint32(len(row)))
			}
			total += len(row)
		}
		if b := c.field(elem * total); b != nil {
			for _, row := range *rows {
				c.encodeErr(put(b, row))
				b = b[elem*len(row):]
			}
		}
		return
	}
	for i := 0; i < len(lens); i += 4 {
		total += int(binary.LittleEndian.Uint32(lens[i:]))
	}
	if c.err == nil && total > len(c.in)/elem {
		c.Fail(fmt.Errorf("%s ends early: rows of %d items of %d bytes declared, %d bytes left", c.what, total, elem, len(c.in)))
	}
	b := c.field(elem * total)
	if b == nil || n == 0 {
		return
	}
	flat := make([]T, total)
	get(b, flat)
	*rows = make([][]T, n)
	at := 0
	for i := range *rows {
		end := at + int(binary.LittleEndian.Uint32(lens[4*i:]))
		(*rows)[i] = flat[at:end:end]
		at = end
	}
}

// putInts fills b with xs as int32s; a value that does not fit is the
// error.
func putInts(b []byte, xs []int) (err error) {
	for i, v := range xs {
		if v != int(int32(v)) && err == nil {
			err = tooWide("index", v)
		}
		binary.LittleEndian.PutUint32(b[4*i:], uint32(v))
	}
	return err
}

func getInts(b []byte, out []int) {
	for i := range out {
		out[i] = int(int32(binary.LittleEndian.Uint32(b[4*i:])))
	}
}

func putFloats(b []byte, xs []float64) error {
	for i, v := range xs {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
	}
	return nil
}

func getFloats(b []byte, out []float64) {
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
}
