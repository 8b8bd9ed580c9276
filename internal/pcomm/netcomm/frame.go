package netcomm

import (
	"fmt"
	"io"
	"math"
	"unsafe"

	"repro/internal/codec"
	"repro/internal/pcomm"
	"repro/internal/pcomm/engine"
)

// Wire constants. Every connection starts with a hello frame carrying
// the magic and protocol version; a peer speaking anything else is
// rejected at handshake time with an explanatory ack, never at first
// data frame.
const (
	wireMagic          = "PILU"
	wireVersion uint32 = 3

	// maxFrameLen bounds one frame. The length prefix is validated
	// against it before any allocation, so a corrupt or malicious prefix
	// cannot balloon memory.
	maxFrameLen = 1 << 30
	// maxHandshakeLen bounds a hello or an ack, a few dozen bytes: a
	// stranger's first four bytes read as a length (an HTTP request, an
	// older netcomm's big-endian prefix) are refused at once, not awaited
	// up to maxFrameLen.
	maxHandshakeLen = 1 << 16
)

// Frame types.
const (
	fHello byte = iota + 1
	fHelloAck
	fData
	fDeposit
	fResult
	fAbort
	fDone
)

// Connection kinds inside a hello frame.
const (
	connControl byte = iota
	connData
)

// Payload kinds, the only four: nil, float64 and int (8 fixed bytes), for
// boxed messages and reductions; raw, a RawSlice's element bytes, for
// slice messages, all-gather contributions and the stats round.
const (
	pkNil byte = iota
	pkFloat64
	pkInt
	pkRaw
)

// encodeFrame builds one whole frame — the codec's length prefix, the
// type byte, the body — in one buffer of exactly its size.
func encodeFrame(typ byte, body func(c *codec.Coder)) ([]byte, error) {
	return codec.Frame(maxFrameLen, func(c *codec.Coder) {
		c.U8(&typ)
		body(c)
	})
}

// writeFrame encodes one frame and writes it with one Write.
func writeFrame(w io.Writer, typ byte, body func(c *codec.Coder)) error {
	frame, err := encodeFrame(typ, body)
	return write(w, frame, err)
}

// write writes what encodeFrame returned with one Write; a frame that
// failed to encode fails the write.
func write(w io.Writer, frame []byte, err error) error {
	if err != nil {
		return fmt.Errorf("netcomm: encoding frame: %w", err)
	}
	if _, err := w.Write(frame); err != nil {
		return fmt.Errorf("netcomm: writing frame: %w", err)
	}
	return nil
}

// readFrame reads one frame of at most limit bytes; torn reads surface
// as io.ErrUnexpectedEOF, a clean end between frames as io.EOF itself.
func readFrame(r io.Reader, limit int) (typ byte, body []byte, err error) {
	buf, err := codec.ReadFrame(r, limit)
	if err != nil {
		return 0, nil, err
	}
	if len(buf) == 0 {
		return 0, nil, fmt.Errorf("netcomm: zero-length frame")
	}
	return buf[0], buf[1:], nil
}

// hello is the handshake sent as the first frame of every connection.
type hello struct {
	kind byte   // connControl or connData
	gen  uint64 // data: world generation (control: 0)
	a    uint32 // control: process index; data: src rank
	b    uint32 // control: process count;  data: dst rank
	c    uint32 // data: world size P
}

// code opens with the magic and version, which decoding checks before
// anything else: a stranger protocol (or a future netcomm) is told
// exactly why it was turned away.
func (h *hello) code(c *codec.Coder) {
	c.Header(wireMagic, wireVersion)
	c.U8(&h.kind)
	c.U64(&h.gen)
	c.U32(&h.a)
	c.U32(&h.b)
	c.U32(&h.c)
}

func decodeHello(body []byte) (h hello, err error) {
	err = codec.Decode("netcomm: hello frame", body, h.code)
	return h, err
}

// helloAck is a hello-ack body: whether the hello was rejected, and why.
type helloAck struct {
	rejected bool
	reason   string
}

func (a *helloAck) code(c *codec.Coder) {
	c.Flag(&a.rejected)
	c.Str(&a.reason)
}

func decodeAck(body []byte) error {
	var a helloAck
	if err := codec.Decode("netcomm: hello ack", body, a.code); err != nil {
		return err
	}
	if a.rejected {
		return fmt.Errorf("netcomm: peer rejected handshake: %s", a.reason)
	}
	return nil
}

// payload is one Send or collective contribution. A received raw
// payload's data is a view of its frame; a sent one's, of the sender's
// slice, which the sender has handed over (pcomm's contract, held by
// sendalias), so on process 0 the coordinator keeps it as a co-located
// transport would.
type payload struct {
	kind byte
	elem uint32 // pkRaw: bytes per element
	bits uint64 // pkFloat64, pkInt: the value
	data []byte // pkRaw: the elements' bytes
}

// minPayloadBytes is the fewest bytes an encoded payload takes: kind,
// element size and byte count.
const minPayloadBytes = 9

// code writes a payload as its kind, element size, byte count and bytes.
func (p *payload) code(c *codec.Coder) {
	c.U8(&p.kind)
	c.U32(&p.elem)
	if p.kind != pkFloat64 && p.kind != pkInt {
		c.Blob(&p.data)
		return
	}
	if n := c.Len(8, 1); n != 8 || p.elem != 8 {
		c.Fail(fmt.Errorf("netcomm: scalar payload of %d bytes in elements of %d, want one of 8", n, p.elem))
	}
	c.U64(&p.bits)
}

// encodePayload serializes a boxed value: nil, or a float or int in a
// fixed 8-byte form whose decode is exactly bit-preserving. Nothing else
// boxed crosses processes.
func encodePayload(v any) (payload, error) {
	switch x := v.(type) {
	case nil:
		return payload{kind: pkNil}, nil
	case float64:
		return floatPayload(x), nil
	case int:
		return intPayload(x), nil
	}
	return payload{}, fmt.Errorf("netcomm: a boxed %T cannot cross processes, only nil, int and float64 can; send arrays with pcomm.SendSlice", v)
}

func floatPayload(x float64) payload {
	return payload{kind: pkFloat64, elem: 8, bits: math.Float64bits(x)}
}

func intPayload(x int) payload { return payload{kind: pkInt, elem: 8, bits: uint64(x)} }

// scalarOf returns the 8-byte value of a payload of the given kind.
func scalarOf(p payload, kind byte) (uint64, error) {
	if p.kind != kind {
		return 0, fmt.Errorf("netcomm: payload of kind %d and %d bytes, want an 8-byte kind %d", p.kind, len(p.data), kind)
	}
	return p.bits, nil
}

func decodeFloat(p payload) (float64, error) {
	bits, err := scalarOf(p, pkFloat64)
	return math.Float64frombits(bits), err
}

func decodeInt(p payload) (int, error) {
	bits, err := scalarOf(p, pkInt)
	return int(bits), err
}

// encodeRawPayload views a RawSlice's element bytes as a payload, without
// copying them.
func encodeRawPayload(h pcomm.RawSlice) payload {
	p := payload{kind: pkRaw, elem: uint32(h.Elem)}
	if n := h.Len * int(h.Elem); n > 0 {
		p.data = unsafe.Slice((*byte)(h.Ptr), n)
	}
	return p
}

// decodeRaw reconstructs a raw payload on a fresh 8-byte-aligned backing
// array (allocated as []uint64), so the receiver may reinterpret it as
// float64/int slices safely.
func decodeRaw(p payload) (pcomm.RawSlice, error) {
	elem, nbytes := int(p.elem), len(p.data)
	if p.kind != pkRaw || elem == 0 && nbytes > 0 || elem > 0 && nbytes%elem != 0 {
		return pcomm.RawSlice{}, fmt.Errorf("netcomm: payload of kind %d and %d bytes is not a raw slice of %d-byte elements", p.kind, nbytes, elem)
	}
	h := pcomm.RawSlice{Elem: uintptr(elem)}
	if nbytes > 0 {
		words := make([]uint64, (nbytes+7)/8)
		copy(unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), nbytes), p.data)
		h.Ptr = unsafe.Pointer(&words[0])
		h.Len, h.Cap = nbytes/elem, nbytes/elem
	}
	return h, nil
}

// decodeMessage reconstructs the payload of a data frame as the message
// a co-located sender would have handed the receiver.
func decodeMessage(tag int, p payload) (m engine.Message, err error) {
	m.Tag = tag
	switch {
	case p.kind == pkNil && len(p.data) == 0:
	case p.kind == pkFloat64:
		m.Payload, err = decodeFloat(p)
	case p.kind == pkInt:
		m.Payload, err = decodeInt(p)
	default: // anything else must be a well-formed raw slice
		m.Raw, err = decodeRaw(p)
		m.IsRaw = true
	}
	return m, err
}

// dataMsg is a data frame: the tag, then the payload.
type dataMsg struct {
	tag int
	pay payload
}

func (m *dataMsg) code(c *codec.Coder) {
	c.Int(&m.tag)
	m.pay.code(c)
}

// decodeDataFrame runs once per message received: called directly, the
// layout keeps its Coder on the stack, and the decode allocates nothing.
func decodeDataFrame(body []byte) (tag int, p payload, err error) {
	var m dataMsg
	c := codec.NewDecoder("netcomm: data frame", body)
	m.code(c)
	return m.tag, m.pay, c.End()
}

// Deposit frames: one rank's contribution to one collective round.
type deposit struct {
	gen   uint64
	round uint64
	rank  int
	p     int // world size: the deposits that complete the round
	op    string
	pay   payload
}

func (d *deposit) code(c *codec.Coder) {
	c.U64(&d.gen)
	c.U64(&d.round)
	rank, p := uint32(d.rank), uint32(d.p)
	c.U32(&rank)
	c.U32(&p)
	d.rank, d.p = int(rank), int(p)
	c.Str(&d.op)
	d.pay.code(c)
}

func decodeDepositFrame(body []byte) (d deposit, err error) {
	err = codec.Decode("netcomm: deposit frame", body, d.code)
	return d, err
}

// Result frames: the coordinator's broadcast of one completed round —
// every rank's payload in rank order.
type roundResult struct {
	gen   uint64
	round uint64
	op    string
	pays  []payload // indexed by rank
}

// code holds the payload count against the bytes left before decoding
// sizes anything.
func (r *roundResult) code(c *codec.Coder) {
	c.U64(&r.gen)
	c.U64(&r.round)
	c.Str(&r.op)
	codec.List(c, &r.pays, minPayloadBytes)
	for i := range r.pays {
		r.pays[i].code(c)
	}
}

func decodeResultFrame(body []byte) (r roundResult, err error) {
	err = codec.Decode("netcomm: result frame", body, r.code)
	return r, err
}

// Abort frames: a failure on one process, broadcast to all.
type abortMsg struct {
	gen  uint64
	rank int // root-cause rank, -1 when unknown
	msg  string
}

func (a *abortMsg) code(c *codec.Coder) {
	c.U64(&a.gen)
	c.I32(&a.rank)
	c.Str(&a.msg)
}

func decodeAbortFrame(body []byte) (a abortMsg, err error) {
	err = codec.Decode("netcomm: abort frame", body, a.code)
	return a, err
}

// statsBytes is the wire size of one rank's Stats: six 8-byte words, one
// per field in declaration order.
const statsBytes = 48

func codeStats(c *codec.Coder, st *pcomm.Stats) {
	c.F64(&st.Flops)
	c.I64(&st.MsgsSent)
	c.I64(&st.BytesSent)
	c.I64(&st.Collectives)
	c.F64(&st.Time)
	c.F64(&st.Busy)
}

// statsPayload is a rank's deposit into the stats round: its Stats as a
// raw payload of statsBytes bytes.
func statsPayload(st pcomm.Stats) payload {
	b, err := codec.Encode(func(c *codec.Coder) { codeStats(c, &st) })
	if err != nil {
		panic(err) // six fixed-width words cannot fail to encode
	}
	return payload{kind: pkRaw, elem: 1, data: b}
}

// decodeStatsPayload is the coordinator's inverse of statsPayload.
func decodeStatsPayload(p payload) (st pcomm.Stats, err error) {
	if p.kind != pkRaw || p.elem != 1 || len(p.data) != statsBytes {
		return st, fmt.Errorf("netcomm: stats payload of kind %d and %d bytes, want %d raw bytes", p.kind, len(p.data), statsBytes)
	}
	err = codec.Decode("netcomm: stats payload", p.data, func(c *codec.Coder) { codeStats(c, &st) })
	return st, err
}

// doneMsg is a done frame: the coordinator's world-completion broadcast
// carrying the per-rank statistics in rank order, so World.Run returns an
// identical Result in every process (including processes hosting zero
// ranks).
type doneMsg struct {
	gen   uint64
	stats []pcomm.Stats
}

// code holds the rank count against the bytes left before decoding sizes
// anything.
func (d *doneMsg) code(c *codec.Coder) {
	c.U64(&d.gen)
	codec.List(c, &d.stats, statsBytes)
	for i := range d.stats {
		codeStats(c, &d.stats[i])
	}
}

func decodeDoneFrame(body []byte) (gen uint64, res pcomm.Result, err error) {
	var d doneMsg
	if err := codec.Decode("netcomm: done frame", body, d.code); err != nil {
		return 0, res, err
	}
	return d.gen, pcomm.NewResult(d.stats), nil
}
