package netcomm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/pcomm"
)

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
		if err := writeFrame(&buf, tc.typ, tc.body); err != nil {
			t.Fatalf("writeFrame(%d): %v", tc.typ, err)
		}
		typ, body, err := readFrame(&buf)
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
	if err := writeFrame(&buf, fData, []byte("payload-that-gets-torn")); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()
	for cut := 1; cut < len(whole); cut++ {
		_, _, err := readFrame(bytes.NewReader(whole[:cut]))
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
		err := writeFrame(&errWriter{n: n}, fData, []byte("body bytes"))
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
	binary.BigEndian.PutUint32(hdr[:], uint32(maxFrameLen+1))
	// Only the 4 prefix bytes exist; if readFrame tried to allocate and
	// read the claimed 1GiB+ body it would block or fail differently.
	_, _, err := readFrame(bytes.NewReader(hdr[:]))
	if err == nil {
		t.Fatal("oversized length prefix accepted")
	}
	if !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("oversized prefix error = %v, want a limit violation", err)
	}

	binary.BigEndian.PutUint32(hdr[:], 0)
	if _, _, err := readFrame(bytes.NewReader(hdr[:])); err == nil {
		t.Fatal("zero-length frame accepted")
	}
}

// TestHelloVersionMismatch checks the handshake rejects a peer speaking
// a different protocol version with a message naming both versions.
func TestHelloVersionMismatch(t *testing.T) {
	h := encodeHello(hello{kind: connControl, a: 1, b: 2})
	binary.BigEndian.PutUint16(h[4:6], wireVersion+1)
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

// TestPayloadRoundTrip checks every payload kind, including exact bit
// preservation of float64 (the property the bitwise-equivalence contract
// rests on).
func TestPayloadRoundTrip(t *testing.T) {
	floats := []float64{0, math.Copysign(0, -1), 1.5, -math.MaxFloat64, math.Inf(1), 5e-324}
	for _, f := range floats {
		pay, err := encodePayload(f)
		if err != nil {
			t.Fatal(err)
		}
		v, _, isRaw, err := decodePayload(pay)
		if err != nil || isRaw {
			t.Fatalf("float64 %v: err=%v isRaw=%v", f, err, isRaw)
		}
		if math.Float64bits(v.(float64)) != math.Float64bits(f) {
			t.Fatalf("float64 bits changed: sent %x, got %x", math.Float64bits(f), math.Float64bits(v.(float64)))
		}
	}

	for _, n := range []int{0, -1, 1 << 40, math.MinInt64} {
		pay, err := encodePayload(n)
		if err != nil {
			t.Fatal(err)
		}
		v, _, _, err := decodePayload(pay)
		if err != nil {
			t.Fatal(err)
		}
		if v.(int) != n {
			t.Fatalf("int round trip: sent %d, got %d", n, v)
		}
	}

	pay, err := encodePayload(nil)
	if err != nil {
		t.Fatal(err)
	}
	if v, _, _, err := decodePayload(pay); err != nil || v != nil {
		t.Fatalf("nil round trip: v=%v err=%v", v, err)
	}

	// Gob path: a registered slice type.
	xs := []float64{1.25, -2.5, 3.75}
	pay, err = encodePayload(xs)
	if err != nil {
		t.Fatal(err)
	}
	v, _, _, err := decodePayload(pay)
	if err != nil {
		t.Fatal(err)
	}
	got := v.([]float64)
	for i := range xs {
		if math.Float64bits(got[i]) != math.Float64bits(xs[i]) {
			t.Fatalf("gob []float64 bits changed at %d", i)
		}
	}

	// Unregistered type: the error should point at RegisterWire.
	type unregistered struct{ X int }
	if _, err := encodePayload(unregistered{1}); err == nil || !strings.Contains(err.Error(), "RegisterWire") {
		t.Fatalf("unregistered payload error = %v, want a RegisterWire hint", err)
	}
}

// TestRawPayloadRoundTrip checks RawSlice bytes survive the wire on an
// aligned backing array.
func TestRawPayloadRoundTrip(t *testing.T) {
	src := []float64{1.5, -0.25, 3.5e300, 5e-324}
	h := rawSliceOfFloats(src)
	pay := encodeRawPayload(h)
	_, got, isRaw, err := decodePayload(pay)
	if err != nil || !isRaw {
		t.Fatalf("raw decode: isRaw=%v err=%v", isRaw, err)
	}
	out := floatsOfRawSlice(got)
	if len(out) != len(src) {
		t.Fatalf("raw length %d, want %d", len(out), len(src))
	}
	for i := range src {
		if math.Float64bits(out[i]) != math.Float64bits(src[i]) {
			t.Fatalf("raw float bits changed at %d", i)
		}
	}

	// Empty slice.
	pay = encodeRawPayload(rawSliceOfFloats(nil))
	if _, got, isRaw, err := decodePayload(pay); err != nil || !isRaw || got.Len != 0 {
		t.Fatalf("empty raw: len=%d isRaw=%v err=%v", got.Len, isRaw, err)
	}

	// Truncated raw body.
	pay = encodeRawPayload(rawSliceOfFloats(src))
	pay.data = pay.data[:len(pay.data)-3]
	if _, _, _, err := decodePayload(pay); err == nil {
		t.Fatal("truncated raw payload accepted")
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

	res := pcomm.Result{Elapsed: 1.5, PerProc: []pcomm.Stats{{Flops: 10, MsgsSent: 3}, {Collectives: 2}}}
	body, err := encodeDoneFrame(9, res)
	if err != nil {
		t.Fatal(err)
	}
	gen, gotRes, err := decodeDoneFrame(body)
	if err != nil {
		t.Fatal(err)
	}
	if gen != 9 || gotRes.Elapsed != res.Elapsed || len(gotRes.PerProc) != 2 || gotRes.PerProc[0].Flops != 10 {
		t.Fatalf("done round trip: gen=%d res=%+v", gen, gotRes)
	}
}

// oversizedResultBody is a 22-byte result frame body — gen, round, an
// empty op — whose payload count (0x7FFFFFFF) the remaining zero bytes
// cannot hold.
func oversizedResultBody() []byte {
	body := make([]byte, 22)
	binary.BigEndian.PutUint32(body[18:], 0x7FFFFFFF)
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
// decoder, as if they had arrived under each frame type, and decodes
// every payload a frame yields. Nothing may panic. The decoders and the
// nil, float64, int and raw payload decodes must allocate within
// decodeAllocBound of the body; gob payloads and the done frame (both
// gob underneath) are checked for panics only.
func FuzzNetcommFrameBodies(f *testing.F) {
	pays := make([]payload, 0, 4)
	for _, v := range []any{nil, 7, []float64{1.25, -2.5}} {
		pay, err := encodePayload(v)
		if err != nil {
			f.Fatal(err)
		}
		pays = append(pays, pay)
	}
	raw := encodeRawPayload(rawSliceOfFloats([]float64{1.5, -0.25}))
	pays = append(pays, raw)
	f64, err := encodePayload(2.5)
	if err != nil {
		f.Fatal(err)
	}
	done, err := encodeDoneFrame(9, pcomm.Result{Elapsed: 1.5, PerProc: []pcomm.Stats{{Flops: 10, MsgsSent: 3}}})
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range [][]byte{
		encodeHello(hello{kind: connData, gen: 3, a: 0, b: 1, c: 2}),
		encodeAck(fmt.Errorf("wrong group size")),
		encodeDataFrame(5, raw),
		encodeDepositFrame(deposit{gen: 9, round: 4, rank: 2, p: 4, op: "allreduce_f64", pay: f64}),
		encodeResultFrame(roundResult{gen: 9, round: 4, op: "allgather", pays: pays}),
		encodeAbortFrame(abortMsg{gen: 9, rank: -1, msg: "watchdog fired"}),
		done,
		oversizedResultBody(),
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
		// contributions decodes the payloads a frame carried: the
		// non-gob ones inside the allocation window, then the gob ones.
		contributions := func(what string, ps []payload) {
			bounded(what+" payloads", func() {
				for _, p := range ps {
					if p.kind != pkGob {
						_, _, _, _ = decodePayload(p)
					}
				}
			})
			for _, p := range ps {
				if p.kind == pkGob {
					_, _, _, _ = decodePayload(p)
				}
			}
		}

		bounded("hello", func() { _, _ = decodeHello(body) })
		bounded("ack", func() { _ = decodeAck(body) })

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
		}

		var r roundResult
		bounded("result frame", func() { r, derr = decodeResultFrame(body) })
		if derr == nil {
			contributions("result frame", r.pays)
		}

		bounded("abort frame", func() { _, _ = decodeAbortFrame(body) })
		_, _, _ = decodeDoneFrame(body)
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
