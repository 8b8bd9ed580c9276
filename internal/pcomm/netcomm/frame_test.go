package netcomm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/codec"
	"repro/internal/pcomm"
	"repro/internal/pcomm/engine"
)

// body encodes one frame body alone, as the decoders take it.
func body(layout func(c *codec.Coder)) []byte {
	b, err := codec.Encode(layout)
	if err != nil {
		panic(err)
	}
	return b
}

func encodeHello(h hello) []byte { return body(h.code) }
func encodeAck(err error) []byte {
	if err == nil {
		return body((&helloAck{}).code)
	}
	return body((&helloAck{rejected: true, reason: err.Error()}).code)
}
func encodeDataFrame(tag int, p payload) []byte { return body((&dataMsg{tag, p}).code) }
func encodeDepositFrame(d deposit) []byte       { return body(d.code) }
func encodeResultFrame(r roundResult) []byte    { return body(r.code) }
func encodeAbortFrame(a abortMsg) []byte        { return body(a.code) }
func encodeDoneFrame(gen uint64, res pcomm.Result) []byte {
	return body((&doneMsg{gen, res.PerProc}).code)
}

// rawBody writes b as a frame body.
func rawBody(b []byte) func(c *codec.Coder) {
	return func(c *codec.Coder) { c.Bytes(b) }
}

func rawSliceOfFloats(xs []float64) pcomm.RawSlice {
	var ptr unsafe.Pointer
	if cap(xs) > 0 {
		ptr = unsafe.Pointer(unsafe.SliceData(xs))
	}
	return pcomm.RawSlice{Ptr: ptr, Len: len(xs), Cap: cap(xs), Elem: 8}
}

func floatsOfRawSlice(h pcomm.RawSlice) []float64 {
	if h.Ptr == nil {
		return nil
	}
	return unsafe.Slice((*float64)(h.Ptr), h.Len)
}

// TestFrameRoundTrip checks the basic codec invariant: what writeFrame
// writes, readFrame reads.
func TestFrameRoundTrip(t *testing.T) {
	cases := []struct {
		typ  byte
		body []byte
	}{
		{fHello, []byte("hello body")},
		{fData, nil},
		{fAbort, bytes.Repeat([]byte{0xAB}, 4096)},
	}
	for _, tc := range cases {
		var buf bytes.Buffer
		if err := writeFrame(&buf, tc.typ, rawBody(tc.body)); err != nil {
			t.Fatalf("writeFrame(%d): %v", tc.typ, err)
		}
		typ, body, err := readFrame(&buf, maxFrameLen)
		if err != nil {
			t.Fatalf("readFrame(%d): %v", tc.typ, err)
		}
		if typ != tc.typ || !bytes.Equal(body, tc.body) {
			t.Fatalf("round trip: got (%d, %d bytes), want (%d, %d bytes)", typ, len(body), tc.typ, len(tc.body))
		}
	}
}

// TestFrameTornRead checks that a frame cut anywhere mid-body surfaces
// as io.ErrUnexpectedEOF, never as a silent short read.
func TestFrameTornRead(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, fData, rawBody([]byte("payload-that-gets-torn"))); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()
	for cut := 1; cut < len(whole); cut++ {
		_, _, err := readFrame(bytes.NewReader(whole[:cut]), maxFrameLen)
		if err == nil {
			t.Fatalf("cut at %d of %d: read succeeded on a torn frame", cut, len(whole))
		}
		if cut >= 4 && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut at %d (mid-body): err = %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
}

// errWriter fails after n bytes, modelling a short write on a dying
// connection.
type errWriter struct {
	n    int
	seen int
}

func (w *errWriter) Write(p []byte) (int, error) {
	if w.seen+len(p) > w.n {
		wrote := w.n - w.seen
		w.seen = w.n
		return wrote, fmt.Errorf("connection reset mid-write")
	}
	w.seen += len(p)
	return len(p), nil
}

// TestFrameShortWrite checks that writeFrame reports a failing writer
// instead of dropping bytes silently.
func TestFrameShortWrite(t *testing.T) {
	for _, n := range []int{0, 3, 5, 7} {
		err := writeFrame(&errWriter{n: n}, fData, rawBody([]byte("body bytes")))
		if err == nil {
			t.Fatalf("writer failing after %d bytes: writeFrame succeeded", n)
		}
	}
}

// TestFrameOversizedPrefixRejectedBeforeAlloc feeds a length prefix far
// past maxFrameLen and checks rejection happens from the 4 header bytes
// alone — the body is never allocated or read.
func TestFrameOversizedPrefixRejectedBeforeAlloc(t *testing.T) {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(maxFrameLen+1))
	// Only the 4 prefix bytes exist; if readFrame tried to allocate and
	// read the claimed 1GiB+ body it would block or fail differently.
	_, _, err := readFrame(bytes.NewReader(hdr[:]), maxFrameLen)
	if err == nil {
		t.Fatal("oversized length prefix accepted")
	}
	if !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("oversized prefix error = %v, want a limit violation", err)
	}

	binary.LittleEndian.PutUint32(hdr[:], 0)
	if _, _, err := readFrame(bytes.NewReader(hdr[:]), maxFrameLen); err == nil {
		t.Fatal("zero-length frame accepted")
	}
}

// TestHelloVersionMismatch checks the handshake rejects a peer speaking
// a different protocol version with a message naming both versions.
func TestHelloVersionMismatch(t *testing.T) {
	h := encodeHello(hello{kind: connControl, a: 1, b: 2})
	binary.LittleEndian.PutUint32(h[len(wireMagic):], wireVersion+1)
	_, err := decodeHello(h)
	if err == nil {
		t.Fatal("hello with wrong version accepted")
	}
	if !strings.Contains(err.Error(), "version") {
		t.Fatalf("version mismatch error = %v, want it to name the version", err)
	}
}

// TestHelloBadMagic checks a stranger protocol is identified as such.
func TestHelloBadMagic(t *testing.T) {
	h := encodeHello(hello{kind: connData, gen: 3, a: 0, b: 1, c: 4})
	binary.BigEndian.PutUint32(h[0:4], 0x48545450) // "HTTP"
	if _, err := decodeHello(h); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("bad magic error = %v, want a magic complaint", err)
	}
}

// TestHelloRoundTrip checks field-for-field hello fidelity.
func TestHelloRoundTrip(t *testing.T) {
	want := hello{kind: connData, gen: 1 << 40, a: 3, b: 7, c: 12}
	got, err := decodeHello(encodeHello(want))
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("hello round trip: got %+v, want %+v", got, want)
	}
}

// TestAckRoundTrip checks acceptance and rejection acks.
func TestAckRoundTrip(t *testing.T) {
	if err := decodeAck(encodeAck(nil)); err != nil {
		t.Fatalf("ok ack decoded as error: %v", err)
	}
	err := decodeAck(encodeAck(fmt.Errorf("wrong group size")))
	if err == nil || !strings.Contains(err.Error(), "wrong group size") {
		t.Fatalf("reject ack = %v, want the original reason", err)
	}
	if err := decodeAck(nil); err == nil {
		t.Fatal("empty ack accepted")
	}
}

// TestPayloadRoundTrip checks every boxed payload kind, including exact
// bit preservation of float64 (the property the bitwise-equivalence
// contract rests on), and that nothing else boxed crosses processes.
func TestPayloadRoundTrip(t *testing.T) {
	roundTrip := func(v any) any {
		t.Helper()
		pay, err := encodePayload(v)
		if err != nil {
			t.Fatal(err)
		}
		m, err := decodeMessage(5, pay)
		if err != nil || m.IsRaw || m.Tag != 5 {
			t.Fatalf("%v: err=%v isRaw=%v tag=%d", v, err, m.IsRaw, m.Tag)
		}
		return m.Payload
	}
	for _, f := range []float64{0, math.Copysign(0, -1), 1.5, -math.MaxFloat64, math.Inf(1), 5e-324} {
		if got := roundTrip(f).(float64); math.Float64bits(got) != math.Float64bits(f) {
			t.Fatalf("float64 bits changed: sent %x, got %x", math.Float64bits(f), math.Float64bits(got))
		}
	}
	for _, n := range []int{0, -1, 1 << 40, math.MinInt64} {
		if got := roundTrip(n).(int); got != n {
			t.Fatalf("int round trip: sent %d, got %d", n, got)
		}
	}
	if v := roundTrip(nil); v != nil {
		t.Fatalf("nil round trip: v=%v", v)
	}

	// Arrays travel raw; any other boxed value is refused with the fix.
	for _, v := range []any{[]int{1}, "text", pcomm.Stats{}} {
		if _, err := encodePayload(v); err == nil || !strings.Contains(err.Error(), "pcomm.SendSlice") {
			t.Fatalf("boxed %T payload error = %v, want the SendSlice hint", v, err)
		}
	}
}

// TestRawPayloadRoundTrip checks RawSlice bytes survive the wire on an
// aligned backing array.
func TestRawPayloadRoundTrip(t *testing.T) {
	src := []float64{1.5, -0.25, 3.5e300, 5e-324}
	m, err := decodeMessage(1, encodeRawPayload(rawSliceOfFloats(src)))
	if err != nil || !m.IsRaw {
		t.Fatalf("raw decode: isRaw=%v err=%v", m.IsRaw, err)
	}
	out := floatsOfRawSlice(m.Raw)
	if len(out) != len(src) {
		t.Fatalf("raw length %d, want %d", len(out), len(src))
	}
	for i := range src {
		if math.Float64bits(out[i]) != math.Float64bits(src[i]) {
			t.Fatalf("raw float bits changed at %d", i)
		}
	}

	// Empty slice.
	if got, err := decodeRaw(encodeRawPayload(rawSliceOfFloats(nil))); err != nil || got.Len != 0 {
		t.Fatalf("empty raw: len=%d err=%v", got.Len, err)
	}

	// Truncated raw body.
	pay := encodeRawPayload(rawSliceOfFloats(src))
	pay.data = pay.data[:len(pay.data)-3]
	if _, err := decodeRaw(pay); err == nil {
		t.Fatal("truncated raw payload accepted")
	}

	// A scalar is not a raw slice, nor a raw slice a scalar.
	if _, err := decodeRaw(intPayload(7)); err == nil {
		t.Fatal("int payload decoded as a raw slice")
	}
	if _, err := scalarOf(encodeRawPayload(rawSliceOfFloats(src[:1])), pkFloat64); err == nil {
		t.Fatal("raw payload decoded as a float64")
	}
}

// TestDepositResultFrames round-trips the collective frames.
func TestDepositResultFrames(t *testing.T) {
	pay, err := encodePayload(2.5)
	if err != nil {
		t.Fatal(err)
	}
	d := deposit{gen: 9, round: 4, rank: 2, p: 4, op: "allreduce_f64", pay: pay}
	got, err := decodeDepositFrame(encodeDepositFrame(d))
	if err != nil {
		t.Fatal(err)
	}
	if got.gen != d.gen || got.round != d.round || got.rank != d.rank || got.p != d.p || got.op != d.op ||
		got.pay.kind != d.pay.kind || !bytes.Equal(got.pay.data, d.pay.data) {
		t.Fatalf("deposit round trip: got %+v, want %+v", got, d)
	}

	r := roundResult{gen: 9, round: 4, op: "allreduce_f64", pays: []payload{pay, pay, pay, pay}}
	gotR, err := decodeResultFrame(encodeResultFrame(r))
	if err != nil {
		t.Fatal(err)
	}
	if gotR.gen != r.gen || gotR.round != r.round || gotR.op != r.op || len(gotR.pays) != len(r.pays) {
		t.Fatalf("result round trip: got %+v, want %+v", gotR, r)
	}

	a := abortMsg{gen: 9, rank: -1, msg: "watchdog fired"}
	gotA, err := decodeAbortFrame(encodeAbortFrame(a))
	if err != nil {
		t.Fatal(err)
	}
	if gotA != a {
		t.Fatalf("abort round trip: got %+v, want %+v", gotA, a)
	}

	res := pcomm.NewResult([]pcomm.Stats{
		{Flops: 10, MsgsSent: 3, BytesSent: 1 << 40, Collectives: 2, Time: 1.5, Busy: 0.25},
		{Flops: math.Copysign(0, -1), MsgsSent: -1, Time: 5e-324},
	})
	gen, gotRes, err := decodeDoneFrame(encodeDoneFrame(9, res))
	if err != nil {
		t.Fatal(err)
	}
	if gen != 9 || !reflect.DeepEqual(gotRes, res) || !math.Signbit(gotRes.PerProc[1].Flops) {
		t.Fatalf("done round trip: gen=%d res=%+v, want %+v", gen, gotRes, res)
	}
	for _, st := range res.PerProc {
		if got, err := decodeStatsPayload(statsPayload(st)); err != nil || got != st {
			t.Fatalf("stats payload round trip: got %+v (%v), want %+v", got, err, st)
		}
	}
	// A done body is the generation and 48 bytes per rank, nothing else.
	for _, body := range [][]byte{nil, make([]byte, 7), make([]byte, 8+statsBytes+1), make([]byte, 8+statsBytes-1)} {
		if _, _, err := decodeDoneFrame(body); err == nil {
			t.Fatalf("%d-byte done body decoded", len(body))
		}
	}
}

// TestFramesRefuseTrailingBytes: every frame body — each frame type, the
// data frame with each of the four payload kinds, the deposit with a
// stats payload — decodes as encoded, and is refused given one more
// byte. The free text of an ack and an abort is a length-counted string,
// so nothing can hide past its end either.
func TestFramesRefuseTrailingBytes(t *testing.T) {
	raw := encodeRawPayload(rawSliceOfFloats([]float64{1.5, -0.25}))
	stats := statsPayload(pcomm.Stats{Flops: 10, MsgsSent: 3})
	hi := func(b []byte) error { _, err := decodeHello(b); return err }
	// A rejecting ack decodes to the peer's reason; only a malformed one
	// is a refusal of the body.
	ackBody := func(b []byte) error {
		if err := decodeAck(b); err != nil && !strings.Contains(err.Error(), "peer rejected") {
			return err
		}
		return nil
	}
	data := func(b []byte) error { _, _, err := decodeDataFrame(b); return err }
	dep := func(b []byte) error { _, err := decodeDepositFrame(b); return err }
	res := func(b []byte) error { _, err := decodeResultFrame(b); return err }
	abort := func(b []byte) error { _, err := decodeAbortFrame(b); return err }
	done := func(b []byte) error { _, _, err := decodeDoneFrame(b); return err }
	for _, tc := range []struct {
		name   string
		body   []byte
		decode func([]byte) error
	}{
		{"hello", encodeHello(hello{kind: connData, gen: 3, a: 0, b: 1, c: 2}), hi},
		{"ack accepted", encodeAck(nil), ackBody},
		{"ack rejected", encodeAck(fmt.Errorf("wrong group size")), ackBody},
		{"data nil", encodeDataFrame(1, payload{kind: pkNil}), data},
		{"data float64", encodeDataFrame(2, floatPayload(2.5)), data},
		{"data int", encodeDataFrame(3, intPayload(-7)), data},
		{"data raw", encodeDataFrame(4, raw), data},
		{"deposit stats", encodeDepositFrame(deposit{gen: 2, round: 1, rank: 0, p: 1, op: opStats, pay: stats}), dep},
		{"result", encodeResultFrame(roundResult{gen: 9, round: 4, op: "allgather", pays: []payload{raw, raw}}), res},
		{"abort", encodeAbortFrame(abortMsg{gen: 9, rank: -1, msg: "watchdog fired"}), abort},
		{"done", encodeDoneFrame(9, pcomm.NewResult([]pcomm.Stats{{Flops: 10}, {Time: 1.5}})), done},
	} {
		if err := tc.decode(tc.body); err != nil {
			t.Errorf("%s: the encoded body is refused: %v", tc.name, err)
		}
		if err := tc.decode(append(bytes.Clone(tc.body), 0)); err == nil {
			t.Errorf("%s: a body with one trailing byte decoded", tc.name)
		}
	}
}

// hugeWorldDepositBody is a 44-byte deposit frame body — gen 1, round 1,
// rank 0, a nil barrier contribution — claiming a world of 0xFFFFFFFF
// ranks.
func hugeWorldDepositBody() []byte {
	return encodeDepositFrame(deposit{gen: 1, round: 1, rank: 0, p: 0xFFFFFFFF, op: "barrier", pay: payload{kind: pkNil}})
}

// testCoordinator is process 0's coordinator of a two-process group with
// no connections: broadcasts reach only its own node, which parks them
// for worlds it has not created.
func testCoordinator() *coordinator {
	return newCoordinator(&Node{n: 2,
		worlds:         make(map[uint64]*World),
		doneGens:       make(map[uint64]bool),
		pendingResults: make(map[uint64][]roundResult),
		pendingAborts:  make(map[uint64][]abortMsg),
		pendingDones:   make(map[uint64]*pcomm.Result),
		pendingConns:   make(map[uint64][]pendingData),
	})
}

// TestCoordinatorSizesNothingByClaimedWorldSize: a deposit claiming four
// billion ranks costs the coordinator what the deposit itself holds, not
// a round sized by the claim.
func TestCoordinatorSizesNothingByClaimedWorldSize(t *testing.T) {
	body := hugeWorldDepositBody()
	if len(body) != 44 {
		t.Fatalf("deposit body is %d bytes, want 44", len(body))
	}
	d, err := decodeDepositFrame(body)
	if err != nil {
		t.Fatal(err)
	}
	c := testCoordinator()
	if n := allocatedBy(func() { c.deposit(d) }); n > decodeAllocBound(len(body)) {
		t.Fatalf("one deposit claiming P=%d allocated %d bytes", d.p, n)
	}
	if r := c.gens[1].rounds[1]; r == nil || len(r.pays) != 1 {
		t.Fatalf("the deposit was not held for its round: %+v", c.gens[1])
	}
}

// oversizedResultBody is a 24-byte result frame body — gen, round, an
// empty op — whose payload count (0x7FFFFFFF) the remaining zero bytes
// cannot hold.
func oversizedResultBody() []byte {
	body := encodeResultFrame(roundResult{})
	binary.LittleEndian.PutUint32(body[len(body)-4:], 0x7FFFFFFF)
	return body
}

// TestDecodeResultFrameRefusesOversizedCount: the payload count is
// checked against the bytes left before it sizes the payload slice, so
// a short body claiming two billion payloads is an error, not a
// multi-gigabyte allocation.
func TestDecodeResultFrameRefusesOversizedCount(t *testing.T) {
	if _, err := decodeResultFrame(oversizedResultBody()); err == nil {
		t.Fatal("result frame claiming 0x7FFFFFFF payloads in 0 bytes decoded")
	}
}

// decodeAllocBound is the most a frame decoder may allocate for an
// n-byte body (the bound of the service's peer-body fuzz targets).
func decodeAllocBound(n int) uint64 { return 8*uint64(n) + 4096 }

// allocatedBy reports the bytes fn allocates.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzNetcommFrameBodies feeds the same bytes to every frame body
// decoder, as if they had arrived under each frame type, decodes every
// payload a frame yields in every form a receiver may take it, and hands
// a decoded deposit to a fresh coordinator. Nothing may panic, and each
// step must allocate within decodeAllocBound of the body.
func FuzzNetcommFrameBodies(f *testing.F) {
	raw := encodeRawPayload(rawSliceOfFloats([]float64{1.5, -0.25}))
	pays := []payload{{kind: pkNil}, intPayload(7), raw, statsPayload(pcomm.Stats{Flops: 10})}
	f64 := floatPayload(2.5)
	done := encodeDoneFrame(9, pcomm.NewResult([]pcomm.Stats{{Flops: 10, MsgsSent: 3, Time: 1.5}}))
	for _, seed := range [][]byte{
		encodeHello(hello{kind: connData, gen: 3, a: 0, b: 1, c: 2}),
		encodeAck(fmt.Errorf("wrong group size")),
		encodeDataFrame(5, raw),
		encodeDepositFrame(deposit{gen: 9, round: 4, rank: 2, p: 4, op: "allreduce_f64", pay: f64}),
		encodeResultFrame(roundResult{gen: 9, round: 4, op: "allgather", pays: pays}),
		encodeAbortFrame(abortMsg{gen: 9, rank: -1, msg: "watchdog fired"}),
		done,
		oversizedResultBody(),
		done[:len(done)-1],
		hugeWorldDepositBody(),
		encodeDepositFrame(deposit{gen: 2, round: 1, rank: 0, p: 1, op: opStats, pay: statsPayload(pcomm.Stats{MsgsSent: 1})}),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		// bounded fails when fn allocates over the bound three times in a
		// row: the decoders are pure, so a real excess repeats, while the
		// fuzzing engine's own goroutines allocate into the same
		// process-wide counter now and then.
		bounded := func(what string, fn func()) {
			n := allocatedBy(fn)
			for try := 1; try < 3 && n > decodeAllocBound(len(body)); try++ {
				n = allocatedBy(fn)
			}
			if n > decodeAllocBound(len(body)) {
				t.Fatalf("%s: decoding %d bytes allocated %d", what, len(body), n)
			}
		}
		// contributions decodes the payloads a frame carried as a message,
		// a gathered slice, both scalars and a stats deposit.
		contributions := func(what string, ps []payload) {
			bounded(what+" payloads", func() {
				for _, p := range ps {
					_, _ = decodeMessage(0, p)
					_, _ = decodeRaw(p)
					_, _ = scalarOf(p, pkFloat64)
					_, _ = scalarOf(p, pkInt)
					_, _ = decodeStatsPayload(p)
				}
			})
		}

		bounded("hello", func() { _, _ = decodeHello(body) })
		bounded("ack", func() { _ = decodeAck(body) }) //pilutlint:ok errdrop the fuzz body is arbitrary bytes; only the allocation is checked

		var dp payload
		var derr error
		bounded("data frame", func() { _, dp, derr = decodeDataFrame(body) })
		if derr == nil {
			contributions("data frame", []payload{dp})
		}

		var d deposit
		bounded("deposit frame", func() { d, derr = decodeDepositFrame(body) })
		if derr == nil {
			contributions("deposit frame", []payload{d.pay})
			bounded("coordinator", func() { testCoordinator().deposit(d) })
		}

		var r roundResult
		bounded("result frame", func() { r, derr = decodeResultFrame(body) })
		if derr == nil {
			contributions("result frame", r.pays)
		}

		bounded("abort frame", func() { _, _ = decodeAbortFrame(body) })
		bounded("done frame", func() { _, _, _ = decodeDoneFrame(body) })
	})
}

// FuzzDataFrameDeliver runs a data connection's receive path on any
// body: decodeDataFrame, decodeMessage, then Deliver into rank 1's
// mailbox of a local two-rank world, as the connection reader does.
// Nothing may panic, and the path must allocate within decodeAllocBound
// of the body.
func FuzzDataFrameDeliver(f *testing.F) {
	raw := encodeRawPayload(rawSliceOfFloats([]float64{1.5, -0.25, 3}))
	i32 := []int32{7, -1}
	ints := encodeRawPayload(pcomm.RawSlice{Ptr: unsafe.Pointer(&i32[0]), Len: 2, Cap: 2, Elem: 4})
	for _, seed := range [][]byte{
		encodeDataFrame(5, raw),
		encodeDataFrame(6, ints),
		encodeDataFrame(7, payload{kind: pkNil}),
		encodeDataFrame(8, floatPayload(math.Inf(-1))),
		encodeDataFrame(9, intPayload(math.MinInt64)),
		encodeDataFrame(10, statsPayload(pcomm.Stats{Flops: 10})),
		encodeDataFrame(11, encodeRawPayload(rawSliceOfFloats(nil))),
		encodeDataFrame(5, raw)[:20],
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		// As in FuzzNetcommFrameBodies, an excess must repeat three times
		// (on a fresh world each) to count.
		var n uint64
		for try := 0; try < 3; try++ {
			w := engine.New(nil, nil, "netcomm", 2, 0, 2)
			n = allocatedBy(func() {
				tag, pay, err := decodeDataFrame(body)
				if err != nil {
					return
				}
				m, err := decodeMessage(tag, pay)
				if err != nil {
					return
				}
				w.Deliver(0, 1, m)
			})
			if n <= decodeAllocBound(len(body)) {
				return
			}
		}
		t.Fatalf("receiving a %d-byte data frame allocated %d", len(body), n)
	})
}

// TestSpecParsing is the table-driven spec grammar check: every accepted
// form and every rejection with its reason.
func TestSpecParsing(t *testing.T) {
	cases := []struct {
		kind    string
		wantErr string // empty means accept
		check   func(*Spec) error
	}{
		{kind: "netcomm", check: func(s *Spec) error {
			if s.Spawn != 2 {
				return fmt.Errorf("default spawn = %d, want 2", s.Spawn)
			}
			return nil
		}},
		{kind: "netcomm:spawn=4", check: func(s *Spec) error {
			if s.Spawn != 4 || s.N() != 4 {
				return fmt.Errorf("spawn = %d N = %d, want 4", s.Spawn, s.N())
			}
			return nil
		}},
		{kind: "netcomm:spawn=0", wantErr: "out of range"},
		{kind: "netcomm:spawn=65", wantErr: "out of range"},
		{kind: "netcomm:spawn=two", wantErr: "not an integer"},
		{kind: "netcomm:127.0.0.1:4001;127.0.0.1:4000,127.0.0.1:4001", check: func(s *Spec) error {
			if s.Self != 1 || s.N() != 2 || s.Listen != "127.0.0.1:4001" {
				return fmt.Errorf("parsed %+v", s)
			}
			return nil
		}},
		{kind: "netcomm:/tmp/a.sock;/tmp/a.sock,/tmp/b.sock", check: func(s *Spec) error {
			if s.Self != 0 || network(s.Listen) != "unix" {
				return fmt.Errorf("parsed %+v", s)
			}
			return nil
		}},
		{kind: "netcomm:127.0.0.1:4002;127.0.0.1:4000,127.0.0.1:4001", wantErr: "not in the peer list"},
		{kind: "netcomm:a;a,a", wantErr: "twice"},
		{kind: "netcomm:;a,b", wantErr: "empty listen"},
		{kind: "netcomm:a;a,,b", wantErr: "empty peer"},
		{kind: "netcomm:garbage", wantErr: "want"},
		{kind: "modelled", wantErr: "not a netcomm spec"},
	}
	for _, tc := range cases {
		s, err := ParseSpec(tc.kind)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("ParseSpec(%q) err = %v, want %q", tc.kind, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", tc.kind, err)
			continue
		}
		if err := tc.check(s); err != nil {
			t.Errorf("ParseSpec(%q): %v", tc.kind, err)
		}
	}
}

// TestRankDistribution checks the block distribution: contiguous,
// exhaustive, rank 0 on process 0, and rankProc consistent with
// rankRange.
func TestRankDistribution(t *testing.T) {
	for p := 1; p <= 9; p++ {
		for n := 1; n <= 4; n++ {
			covered := 0
			for i := 0; i < n; i++ {
				lo, hi := rankRange(p, n, i)
				if lo > hi {
					t.Fatalf("P=%d n=%d proc %d: inverted range [%d,%d)", p, n, i, lo, hi)
				}
				covered += hi - lo
				for r := lo; r < hi; r++ {
					if rankProc(p, n, r) != i {
						t.Fatalf("P=%d n=%d: rankProc(%d) = %d, want %d", p, n, r, rankProc(p, n, r), i)
					}
				}
			}
			if covered != p {
				t.Fatalf("P=%d n=%d: ranges cover %d ranks", p, n, covered)
			}
			if lo, _ := rankRange(p, n, 0); lo != 0 {
				t.Fatalf("P=%d n=%d: rank 0 not on process 0", p, n)
			}
		}
	}
}
