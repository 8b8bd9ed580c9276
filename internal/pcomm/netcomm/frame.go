package netcomm

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"unsafe"

	"repro/internal/pcomm"
	"repro/internal/pcomm/engine"
)

// Wire constants. Every connection starts with a hello frame carrying
// the magic and protocol version; a peer speaking anything else is
// rejected at handshake time with an explanatory ack, never at first
// data frame.
const (
	wireMagic   uint32 = 0x50494C55 // "PILU"
	wireVersion uint16 = 2

	// maxFrameLen bounds one frame. The length prefix is validated
	// against it before any allocation, so a corrupt or malicious prefix
	// cannot balloon memory.
	maxFrameLen = 1 << 30
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

// writeFrame writes one length-prefixed frame: a 4-byte big-endian
// length covering the type byte and body, then both.
func writeFrame(w io.Writer, typ byte, body []byte) error {
	n := 1 + len(body)
	if n > maxFrameLen {
		return fmt.Errorf("netcomm: frame of %d bytes exceeds the %d-byte limit", n, maxFrameLen)
	}
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(n))
	hdr[4] = typ
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("netcomm: writing frame header: %w", err)
	}
	if len(body) > 0 {
		if _, err := w.Write(body); err != nil {
			return fmt.Errorf("netcomm: writing frame body: %w", err)
		}
	}
	return nil
}

// readFrame reads one frame. The length prefix is validated before the
// body is allocated; torn reads surface as io.ErrUnexpectedEOF from
// io.ReadFull.
func readFrame(r io.Reader) (typ byte, body []byte, err error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 {
		return 0, nil, fmt.Errorf("netcomm: zero-length frame")
	}
	if n > maxFrameLen {
		return 0, nil, fmt.Errorf("netcomm: frame length %d exceeds the %d-byte limit", n, maxFrameLen)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, fmt.Errorf("netcomm: reading %d-byte frame body: %w", n, err)
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

func encodeHello(h hello) []byte {
	buf := make([]byte, 0, 27)
	buf = binary.BigEndian.AppendUint32(buf, wireMagic)
	buf = binary.BigEndian.AppendUint16(buf, wireVersion)
	buf = append(buf, h.kind)
	buf = binary.BigEndian.AppendUint64(buf, h.gen)
	buf = binary.BigEndian.AppendUint32(buf, h.a)
	buf = binary.BigEndian.AppendUint32(buf, h.b)
	buf = binary.BigEndian.AppendUint32(buf, h.c)
	return buf
}

// decodeHello validates magic and version before touching anything else,
// so a stranger protocol (or a future netcomm) is told exactly why it
// was turned away.
func decodeHello(body []byte) (hello, error) {
	if len(body) < 27 {
		return hello{}, fmt.Errorf("netcomm: hello frame is %d bytes, want 27", len(body))
	}
	if m := binary.BigEndian.Uint32(body[0:4]); m != wireMagic {
		return hello{}, fmt.Errorf("netcomm: bad magic %#x (not a netcomm peer?)", m)
	}
	if v := binary.BigEndian.Uint16(body[4:6]); v != wireVersion {
		return hello{}, fmt.Errorf("netcomm: protocol version %d, this process speaks %d", v, wireVersion)
	}
	return hello{
		kind: body[6],
		gen:  binary.BigEndian.Uint64(body[7:15]),
		a:    binary.BigEndian.Uint32(body[15:19]),
		b:    binary.BigEndian.Uint32(body[19:23]),
		c:    binary.BigEndian.Uint32(body[23:27]),
	}, nil
}

// encodeAck builds a hello-ack body: a status byte and, on rejection,
// the reason.
func encodeAck(err error) []byte {
	if err == nil {
		return []byte{0}
	}
	return append([]byte{1}, err.Error()...)
}

func decodeAck(body []byte) error {
	if len(body) == 0 {
		return fmt.Errorf("netcomm: empty hello ack")
	}
	if body[0] == 0 {
		return nil
	}
	return fmt.Errorf("netcomm: peer rejected handshake: %s", string(body[1:]))
}

// payload is one encoded Send/collective value.
type payload struct {
	kind byte
	data []byte
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

func floatPayload(x float64) payload { return scalarPayload(pkFloat64, math.Float64bits(x)) }
func intPayload(x int) payload       { return scalarPayload(pkInt, uint64(x)) }

func scalarPayload(kind byte, bits uint64) payload {
	return payload{kind: kind, data: binary.BigEndian.AppendUint64(nil, bits)}
}

// scalarOf returns the 8-byte value of a payload of the given kind.
func scalarOf(p payload, kind byte) (uint64, error) {
	if p.kind != kind || len(p.data) != 8 {
		return 0, fmt.Errorf("netcomm: payload of kind %d and %d bytes, want an 8-byte kind %d", p.kind, len(p.data), kind)
	}
	return binary.BigEndian.Uint64(p.data), nil
}

func decodeFloat(p payload) (float64, error) {
	bits, err := scalarOf(p, pkFloat64)
	return math.Float64frombits(bits), err
}

func decodeInt(p payload) (int, error) {
	bits, err := scalarOf(p, pkInt)
	return int(bits), err
}

// encodeRawPayload serializes a RawSlice's element bytes.
func encodeRawPayload(h pcomm.RawSlice) payload {
	n := h.Len * int(h.Elem)
	buf := make([]byte, 8, 8+n)
	binary.BigEndian.PutUint32(buf[0:4], uint32(h.Elem))
	binary.BigEndian.PutUint32(buf[4:8], uint32(h.Len))
	if n > 0 {
		buf = append(buf, unsafe.Slice((*byte)(h.Ptr), n)...)
	}
	return payload{kind: pkRaw, data: buf}
}

// decodeRaw reconstructs a raw payload on a fresh 8-byte-aligned backing
// array (allocated as []uint64), so the receiver may reinterpret it as
// float64/int slices safely.
func decodeRaw(p payload) (pcomm.RawSlice, error) {
	if p.kind != pkRaw || len(p.data) < 8 {
		return pcomm.RawSlice{}, fmt.Errorf("netcomm: payload of kind %d and %d bytes is not a raw slice", p.kind, len(p.data))
	}
	elem := int(binary.BigEndian.Uint32(p.data[0:4]))
	n := int(binary.BigEndian.Uint32(p.data[4:8]))
	nbytes := n * elem
	if len(p.data) != 8+nbytes || elem <= 0 && n > 0 {
		return pcomm.RawSlice{}, fmt.Errorf("netcomm: raw payload wants %d×%d bytes, frame has %d", n, elem, len(p.data)-8)
	}
	h := pcomm.RawSlice{Len: n, Cap: n, Elem: uintptr(elem)}
	if nbytes > 0 {
		words := make([]uint64, (nbytes+7)/8)
		copy(unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), nbytes), p.data[8:])
		h.Ptr = unsafe.Pointer(&words[0])
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

// appendPayload / readPayload frame a payload inside a larger body.
func appendPayload(buf []byte, p payload) []byte {
	buf = append(buf, p.kind)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(p.data)))
	return append(buf, p.data...)
}

func readPayload(body []byte) (payload, []byte, error) {
	if len(body) < 5 {
		return payload{}, nil, fmt.Errorf("netcomm: truncated payload header")
	}
	n := int(binary.BigEndian.Uint32(body[1:5]))
	if len(body) < 5+n {
		return payload{}, nil, fmt.Errorf("netcomm: payload wants %d bytes, frame has %d", n, len(body)-5)
	}
	return payload{kind: body[0], data: body[5 : 5+n]}, body[5+n:], nil
}

// Data frames: tag, then the payload.
func encodeDataFrame(tag int, p payload) []byte {
	buf := binary.BigEndian.AppendUint64(nil, uint64(int64(tag)))
	return appendPayload(buf, p)
}

func decodeDataFrame(body []byte) (tag int, p payload, err error) {
	if len(body) < 8 {
		return 0, payload{}, fmt.Errorf("netcomm: truncated data frame")
	}
	tag = int(int64(binary.BigEndian.Uint64(body[:8])))
	p, rest, err := readPayload(body[8:])
	if err != nil {
		return 0, payload{}, err
	}
	if len(rest) != 0 {
		return 0, payload{}, fmt.Errorf("netcomm: %d trailing bytes in data frame", len(rest))
	}
	return tag, p, nil
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

func encodeDepositFrame(d deposit) []byte {
	buf := binary.BigEndian.AppendUint64(nil, d.gen)
	buf = binary.BigEndian.AppendUint64(buf, d.round)
	buf = binary.BigEndian.AppendUint32(buf, uint32(d.rank))
	buf = binary.BigEndian.AppendUint32(buf, uint32(d.p))
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(d.op)))
	buf = append(buf, d.op...)
	return appendPayload(buf, d.pay)
}

func decodeDepositFrame(body []byte) (deposit, error) {
	var d deposit
	if len(body) < 26 {
		return d, fmt.Errorf("netcomm: truncated deposit frame")
	}
	d.gen = binary.BigEndian.Uint64(body[0:8])
	d.round = binary.BigEndian.Uint64(body[8:16])
	d.rank = int(binary.BigEndian.Uint32(body[16:20]))
	d.p = int(binary.BigEndian.Uint32(body[20:24]))
	opLen := int(binary.BigEndian.Uint16(body[24:26]))
	if len(body) < 26+opLen {
		return d, fmt.Errorf("netcomm: deposit op wants %d bytes, frame has %d", opLen, len(body)-26)
	}
	d.op = string(body[26 : 26+opLen])
	pay, rest, err := readPayload(body[26+opLen:])
	if err != nil {
		return d, err
	}
	if len(rest) != 0 {
		return d, fmt.Errorf("netcomm: %d trailing bytes in deposit frame", len(rest))
	}
	d.pay = pay
	return d, nil
}

// Result frames: the coordinator's broadcast of one completed round —
// every rank's payload in rank order.
type roundResult struct {
	gen   uint64
	round uint64
	op    string
	pays  []payload // indexed by rank
}

func encodeResultFrame(r roundResult) []byte {
	buf := binary.BigEndian.AppendUint64(nil, r.gen)
	buf = binary.BigEndian.AppendUint64(buf, r.round)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(r.op)))
	buf = append(buf, r.op...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(r.pays)))
	for _, p := range r.pays {
		buf = appendPayload(buf, p)
	}
	return buf
}

func decodeResultFrame(body []byte) (roundResult, error) {
	var r roundResult
	if len(body) < 18 {
		return r, fmt.Errorf("netcomm: truncated result frame")
	}
	r.gen = binary.BigEndian.Uint64(body[0:8])
	r.round = binary.BigEndian.Uint64(body[8:16])
	opLen := int(binary.BigEndian.Uint16(body[16:18]))
	if len(body) < 18+opLen+4 {
		return r, fmt.Errorf("netcomm: truncated result frame op")
	}
	r.op = string(body[18 : 18+opLen])
	rest := body[18+opLen:]
	count := int(binary.BigEndian.Uint32(rest[:4]))
	rest = rest[4:]
	// Five bytes (kind + length) is the smallest encoded payload: a count
	// the remaining bytes cannot hold is refused before it sizes anything.
	if count > len(rest)/5 {
		return r, fmt.Errorf("netcomm: result frame claims %d payloads in %d bytes", count, len(rest))
	}
	r.pays = make([]payload, 0, count)
	for i := 0; i < count; i++ {
		var p payload
		var err error
		p, rest, err = readPayload(rest)
		if err != nil {
			return r, fmt.Errorf("netcomm: result payload %d: %w", i, err)
		}
		r.pays = append(r.pays, p)
	}
	if len(rest) != 0 {
		return r, fmt.Errorf("netcomm: %d trailing bytes in result frame", len(rest))
	}
	return r, nil
}

// Abort frames: a failure on one process, broadcast to all.
type abortMsg struct {
	gen  uint64
	rank int // root-cause rank, -1 when unknown
	msg  string
}

func encodeAbortFrame(a abortMsg) []byte {
	buf := binary.BigEndian.AppendUint64(nil, a.gen)
	buf = binary.BigEndian.AppendUint32(buf, uint32(int32(a.rank)))
	return append(buf, a.msg...)
}

func decodeAbortFrame(body []byte) (abortMsg, error) {
	if len(body) < 12 {
		return abortMsg{}, fmt.Errorf("netcomm: truncated abort frame")
	}
	return abortMsg{
		gen:  binary.BigEndian.Uint64(body[0:8]),
		rank: int(int32(binary.BigEndian.Uint32(body[8:12]))),
		msg:  string(body[12:]),
	}, nil
}

// statsBytes is the wire size of one rank's Stats: six big-endian 8-byte
// words, one per field in declaration order.
const statsBytes = 48

func appendStats(buf []byte, st pcomm.Stats) []byte {
	for _, w := range [...]uint64{math.Float64bits(st.Flops), uint64(st.MsgsSent), uint64(st.BytesSent),
		uint64(st.Collectives), math.Float64bits(st.Time), math.Float64bits(st.Busy)} {
		buf = binary.BigEndian.AppendUint64(buf, w)
	}
	return buf
}

// readStats decodes the statsBytes at the front of b.
func readStats(b []byte) pcomm.Stats {
	w := func(i int) uint64 { return binary.BigEndian.Uint64(b[8*i:]) }
	return pcomm.Stats{Flops: math.Float64frombits(w(0)), MsgsSent: int64(w(1)), BytesSent: int64(w(2)),
		Collectives: int64(w(3)), Time: math.Float64frombits(w(4)), Busy: math.Float64frombits(w(5))}
}

// statsPayload is a rank's deposit into the stats round: its Stats as a
// raw payload of statsBytes bytes.
func statsPayload(st pcomm.Stats) payload {
	b := appendStats(nil, st)
	return encodeRawPayload(pcomm.RawSlice{Ptr: unsafe.Pointer(&b[0]), Len: statsBytes, Cap: statsBytes, Elem: 1})
}

// decodeStatsPayload is the coordinator's inverse of statsPayload.
func decodeStatsPayload(p payload) (pcomm.Stats, error) {
	if h, err := decodeRaw(p); err != nil || h.Elem != 1 || h.Len != statsBytes {
		return pcomm.Stats{}, fmt.Errorf("netcomm: stats payload of kind %d and %d bytes, want %d raw bytes", p.kind, len(p.data), statsBytes)
	}
	return readStats(p.data[8:]), nil
}

// Done frames: the coordinator's world-completion broadcast carrying the
// per-rank statistics — the generation, then statsBytes per rank in rank
// order — so World.Run returns an identical Result in every process
// (including processes hosting zero ranks).
func encodeDoneFrame(gen uint64, res pcomm.Result) []byte {
	buf := binary.BigEndian.AppendUint64(make([]byte, 0, 8+statsBytes*len(res.PerProc)), gen)
	for _, st := range res.PerProc {
		buf = appendStats(buf, st)
	}
	return buf
}

// decodeDoneFrame checks the body length before it sizes anything.
func decodeDoneFrame(body []byte) (gen uint64, res pcomm.Result, err error) {
	if len(body) < 8 || (len(body)-8)%statsBytes != 0 {
		return 0, res, fmt.Errorf("netcomm: done frame of %d bytes is not 8 + k×%d", len(body), statsBytes)
	}
	gen = binary.BigEndian.Uint64(body[0:8])
	stats := make([]pcomm.Stats, (len(body)-8)/statsBytes)
	for i := range stats {
		stats[i] = readStats(body[8+i*statsBytes:])
	}
	return gen, pcomm.NewResult(stats), nil
}
