package netcomm

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"unsafe"

	"repro/internal/pcomm"
)

// Wire constants. Every connection starts with a hello frame carrying
// the magic and protocol version; a peer speaking anything else is
// rejected at handshake time with an explanatory ack, never at first
// data frame.
const (
	wireMagic   uint32 = 0x50494C55 // "PILU"
	wireVersion uint16 = 1

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

// Payload kinds. Float64 and int travel as fixed 8-byte values (the
// AllReduce fast path); raw carries a RawSlice's bytes; everything else
// rides the gob registry (see pcomm.RegisterWire).
const (
	pkNil byte = iota
	pkFloat64
	pkInt
	pkGob
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

// encodePayload serializes a boxed value. Floats and ints (the
// AllReduce vocabulary) take a fixed 8-byte form whose decode is exactly
// bit-preserving; every other value must be registered with
// pcomm.RegisterWire.
func encodePayload(v any) (payload, error) {
	switch x := v.(type) {
	case nil:
		return payload{kind: pkNil}, nil
	case float64:
		return payload{kind: pkFloat64, data: binary.BigEndian.AppendUint64(nil, math.Float64bits(x))}, nil
	case int:
		return payload{kind: pkInt, data: binary.BigEndian.AppendUint64(nil, uint64(int64(x)))}, nil
	default:
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&v); err != nil {
			return payload{}, fmt.Errorf("netcomm: encoding %T payload (is the type registered with pcomm.RegisterWire?): %w", v, err)
		}
		return payload{kind: pkGob, data: buf.Bytes()}, nil
	}
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

// decodePayload reconstructs a payload. Raw slices come back on a
// fresh 8-byte-aligned backing array (allocated as []uint64) so the
// receiver may reinterpret them as float64/int slices safely.
func decodePayload(p payload) (boxed any, raw pcomm.RawSlice, isRaw bool, err error) {
	switch p.kind {
	case pkNil:
		return nil, pcomm.RawSlice{}, false, nil
	case pkFloat64:
		if len(p.data) != 8 {
			return nil, pcomm.RawSlice{}, false, fmt.Errorf("netcomm: float64 payload is %d bytes", len(p.data))
		}
		return math.Float64frombits(binary.BigEndian.Uint64(p.data)), pcomm.RawSlice{}, false, nil
	case pkInt:
		if len(p.data) != 8 {
			return nil, pcomm.RawSlice{}, false, fmt.Errorf("netcomm: int payload is %d bytes", len(p.data))
		}
		return int(int64(binary.BigEndian.Uint64(p.data))), pcomm.RawSlice{}, false, nil
	case pkGob:
		var v any
		if err := gob.NewDecoder(bytes.NewReader(p.data)).Decode(&v); err != nil {
			return nil, pcomm.RawSlice{}, false, fmt.Errorf("netcomm: decoding gob payload: %w", err)
		}
		return v, pcomm.RawSlice{}, false, nil
	case pkRaw:
		if len(p.data) < 8 {
			return nil, pcomm.RawSlice{}, false, fmt.Errorf("netcomm: raw payload header is %d bytes", len(p.data))
		}
		elem := int(binary.BigEndian.Uint32(p.data[0:4]))
		n := int(binary.BigEndian.Uint32(p.data[4:8]))
		nbytes := n * elem
		if len(p.data) != 8+nbytes || elem <= 0 && n > 0 {
			return nil, pcomm.RawSlice{}, false, fmt.Errorf("netcomm: raw payload wants %d×%d bytes, frame has %d", n, elem, len(p.data)-8)
		}
		h := pcomm.RawSlice{Len: n, Cap: n, Elem: uintptr(elem)}
		if nbytes > 0 {
			words := make([]uint64, (nbytes+7)/8)
			copy(unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), nbytes), p.data[8:])
			h.Ptr = unsafe.Pointer(&words[0])
		}
		return nil, h, true, nil
	default:
		return nil, pcomm.RawSlice{}, false, fmt.Errorf("netcomm: unknown payload kind %d", p.kind)
	}
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
	p     int // world size, so the coordinator can size the round
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

// Done frames: the coordinator's world-completion broadcast carrying the
// assembled per-rank statistics, so World.Run returns an identical
// Result in every process (including processes hosting zero ranks).
func encodeDoneFrame(gen uint64, res pcomm.Result) ([]byte, error) {
	buf := bytes.NewBuffer(binary.BigEndian.AppendUint64(nil, gen))
	if err := gob.NewEncoder(buf).Encode(res); err != nil {
		return nil, fmt.Errorf("netcomm: encoding run result: %w", err)
	}
	return buf.Bytes(), nil
}

func decodeDoneFrame(body []byte) (gen uint64, res pcomm.Result, err error) {
	if len(body) < 8 {
		return 0, res, fmt.Errorf("netcomm: truncated done frame")
	}
	gen = binary.BigEndian.Uint64(body[0:8])
	if err := gob.NewDecoder(bytes.NewReader(body[8:])).Decode(&res); err != nil {
		return 0, res, fmt.Errorf("netcomm: decoding run result: %w", err)
	}
	return gen, res, nil
}
