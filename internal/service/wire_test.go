package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ilu"
	"repro/internal/matgen"
	"repro/internal/sparse"
)

func mustDecodeFactor(t testing.TB, data []byte) *wireFactor {
	t.Helper()
	wf, err := decodeFactor(data)
	if err != nil {
		t.Fatal(err)
	}
	return wf
}

func mustEncodeFactor(t testing.TB, wf *wireFactor) []byte {
	t.Helper()
	data, err := encodeFactor(wf)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func mustEncodeMatrix(t testing.TB, a *sparse.CSR) []byte {
	t.Helper()
	data, err := encodeMatrix(a)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// exportOf submits a to a fresh real-backend server on procs processors
// and returns the server, the key and its factor body.
func exportOf(t testing.TB, a *sparse.CSR, procs int) (*Server, string, []byte) {
	t.Helper()
	srv := New(Config{Procs: procs, Workers: 1, Backend: "real"})
	t.Cleanup(func() { srv.Shutdown(context.Background()) })
	key, _, err := srv.Submit(a)
	if err != nil {
		t.Fatal(err)
	}
	data, err := srv.ExportFactor(key)
	if err != nil {
		t.Fatal(err)
	}
	return srv, key, data
}

// oracleZoo is the zoo of the core oracles: every shape of interface and
// level structure the factorization produces.
func oracleZoo() map[string]*sparse.CSR {
	return map[string]*sparse.CSR{
		"grid2d":   matgen.Grid2D(12, 12),
		"grid3d":   matgen.Grid3D(5, 5, 5),
		"torso":    matgen.Torso(6, 6, 6, 1),
		"convdiff": matgen.ConvDiff2D(12, 12, 20, 5),
		"aniso":    matgen.Anisotropic2D(12, 12, 0.01),
		"randspd":  matgen.RandomSPDPattern(150, 5, 3),
	}
}

// TestFactorBodyRoundTrip: on the zoo at p ∈ {1, 2, 4, 8}, decoding an
// export gives back every piece exactly as Wire produced it — Stats and
// its level records included, nil where Wire leaves nil — the matrix,
// and the header the entry was encoded from.
func TestFactorBodyRoundTrip(t *testing.T) {
	for _, p := range []int{1, 2, 4, 8} {
		srv := New(Config{Procs: p, Workers: 1, Backend: "real"})
		defer srv.Shutdown(context.Background())
		for name, a := range oracleZoo() {
			t.Run(fmt.Sprintf("%s/p%d", name, p), func(t *testing.T) {
				key, _, err := srv.Submit(a)
				if err != nil {
					t.Fatal(err)
				}
				ent, _, err := srv.entryForLocal(key, a)
				if err != nil {
					t.Fatal(err)
				}
				data, err := encodeEntry(ent, srv.cfg)
				if err != nil {
					t.Fatal(err)
				}
				wf := mustDecodeFactor(t, data)
				if wf.Key != key || wf.Procs != p || wf.Seed != srv.cfg.Seed || wf.Params != srv.cfg.Params ||
					wf.MISRounds != srv.cfg.MISRounds || wf.LadderStep != ent.ladderStep || wf.Degraded != ent.degraded ||
					wf.Levels != ent.levels || wf.FactorSeconds != ent.factorSeconds || wf.PartDigest != partDigest(ent.lay.PartOf) {
					t.Errorf("header does not round-trip: %+v", wf)
				}
				if !reflect.DeepEqual(wf.Matrix, ent.a) {
					t.Error("matrix does not round-trip")
				}
				if len(wf.Pieces) != p {
					t.Fatalf("%d pieces for %d processors", len(wf.Pieces), p)
				}
				for q, pc := range ent.pcs {
					if want := pc.Wire(); !reflect.DeepEqual(wf.Pieces[q], want) {
						t.Errorf("piece %d does not round-trip", q)
					}
				}
				if again := mustEncodeFactor(t, wf); !bytes.Equal(again, data) {
					t.Error("re-encoding the decoded body changes its bytes")
				}
			})
		}
	}
}

// TestPeerBodyRefusals: a body is read only in the layout and version
// this daemon writes, to its last byte, and a value the layout cannot
// hold is an encoding error, never a truncation.
func TestPeerBodyRefusals(t *testing.T) {
	a := matgen.Grid2D(8, 8)
	_, _, data := exportOf(t, a, 2)
	mat := mustEncodeMatrix(t, a)
	otherVersion := bytes.Clone(data)
	binary.LittleEndian.PutUint32(otherVersion[len(factorMagic):], wireVersion+1)
	for name, tc := range map[string]struct {
		body []byte
		want string
	}{
		"matrix body as factor": {mat, "does not start with"},
		"other version":         {otherVersion, "wire version 2"},
		"gob body":              {parentGobFactor(t, data), "does not start with"},
		"trailing byte":         {append(bytes.Clone(data), 0), "1 trailing bytes"},
		"cut in the header":     {data[:40], "ends early"},
		"cut in the pieces":     {data[:len(data)-3], "ends early"},
		"empty":                 {nil, "does not start with"},
	} {
		if _, err := decodeFactor(tc.body); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err %v, want %q", name, err, tc.want)
		}
	}
	for name, tc := range map[string]struct {
		body []byte
		want string
	}{
		"factor body as matrix": {data, "does not start with"},
		"gob body":              {parentGobMatrix(t, mat), "does not start with"},
		"trailing byte":         {append(bytes.Clone(mat), 0), "1 trailing bytes"},
		"cut":                   {mat[:len(mat)-1], "ends early"},
	} {
		if _, err := decodeMatrix(tc.body); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("matrix %s: err %v, want %q", name, err, tc.want)
		}
	}
	wide := &sparse.CSR{N: 1, M: 1 << 40, RowPtr: []int{0, 1}, Cols: []int{1 << 31}, Vals: []float64{1}}
	if _, err := encodeMatrix(wide); err == nil || !strings.Contains(err.Error(), "does not fit 32 bits") {
		t.Errorf("an index past 32 bits: err %v, want an encoding error", err)
	}
	wf := mustDecodeFactor(t, data)
	wf.Pieces[1].LevelMembers[0][0] = -1 << 33
	if _, err := encodeFactor(wf); err == nil || !strings.Contains(err.Error(), "does not fit 32 bits") {
		t.Errorf("a level member past 32 bits: err %v, want an encoding error", err)
	}
}

// parentGobFactor re-encodes a factor body the way the gob wire that
// preceded this layout did: the same types under the same names, so the
// bytes are what such a daemon sends.
func parentGobFactor(t testing.TB, data []byte) []byte {
	t.Helper()
	type wireCSR struct {
		N, M   int
		RowPtr []int
		Cols   []int
		Vals   []float64
	}
	type wireFactor struct {
		Key           string
		Matrix        wireCSR
		Procs         int
		Seed          int64
		Params        ilu.Params
		MISRounds     int
		LadderStep    string
		Degraded      bool
		Levels        int
		FactorSeconds float64
		Pieces        []core.WirePrecond
		PartDigest    [sha256.Size]byte
	}
	wf := mustDecodeFactor(t, data)
	a := wf.Matrix
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&wireFactor{
		Key: wf.Key, Matrix: wireCSR{a.N, a.M, a.RowPtr, a.Cols, a.Vals},
		Procs: wf.Procs, Seed: wf.Seed, Params: wf.Params, MISRounds: wf.MISRounds,
		LadderStep: wf.LadderStep, Degraded: wf.Degraded, Levels: wf.Levels,
		FactorSeconds: wf.FactorSeconds, Pieces: wf.Pieces, PartDigest: wf.PartDigest,
	}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// parentGobMatrix is parentGobFactor for a matrix body.
func parentGobMatrix(t testing.TB, data []byte) []byte {
	t.Helper()
	type wireCSR struct {
		N, M   int
		RowPtr []int
		Cols   []int
		Vals   []float64
	}
	a, err := decodeMatrix(data)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(wireCSR{a.N, a.M, a.RowPtr, a.Cols, a.Vals}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// wireSeeds is each fuzz corpus's start: a real body, a truncated copy, a
// copy whose first length prefix (at lenAt) exceeds the body, and the
// same content as the gob wire sent it.
func wireSeeds(f *testing.F, body []byte, lenAt int, gobBody []byte) {
	f.Add(body)
	f.Add(body[:len(body)/2])
	long := bytes.Clone(body)
	binary.LittleEndian.PutUint32(long[lenAt:], uint32(len(body)))
	f.Add(long)
	f.Add(gobBody)
}

// decodeAllocBound is what decoding a body of n bytes may allocate: the
// worst case is a list of empty rows, 24 bytes of row header per 4-byte
// length.
func decodeAllocBound(n int) uint64 { return 8*uint64(n) + 4096 }

// allocatedBy reports the bytes fn allocates.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzDecodeFactor: no body panics the decoder or makes it allocate more
// than a small multiple of its length; a body that decodes is the
// canonical encoding of what it decodes to; and importFactor either
// accepts it whole — every piece, the matrix stored under its key — or
// refuses it and leaves the daemon's matrices and analyses as they were.
func FuzzDecodeFactor(f *testing.F) {
	srv, _, data := exportOf(f, matgen.Grid2D(6, 6), 4)
	wireSeeds(f, data, len(factorMagic)+4, parentGobFactor(f, data))
	f.Fuzz(func(t *testing.T, body []byte) {
		var wf *wireFactor
		var err error
		if n := allocatedBy(func() { wf, err = decodeFactor(body) }); n > decodeAllocBound(len(body)) {
			t.Fatalf("decoding %d bytes allocated %d", len(body), n)
		}
		if err != nil {
			return
		}
		if again, err := encodeFactor(wf); err != nil || !bytes.Equal(again, body) {
			t.Fatalf("re-encoding a decoded body: err %v, bytes equal %v", err, bytes.Equal(again, body))
		}
		before := srv.StatsSnapshot()
		ent, err := srv.importFactor(wf.Key, body)
		after := srv.StatsSnapshot()
		if err != nil {
			if after.Matrices != before.Matrices || after.Cache.SymbolicEntries != before.Cache.SymbolicEntries {
				t.Fatalf("refused import (%v) stored %d matrices and %d analyses", err,
					after.Matrices-before.Matrices, after.Cache.SymbolicEntries-before.Cache.SymbolicEntries)
			}
			return
		}
		if len(ent.pcs) != srv.cfg.Procs || ent.key != wf.Key {
			t.Fatalf("accepted import: %d pieces under key %s", len(ent.pcs), ent.key)
		}
		for q, pc := range ent.pcs {
			if pc == nil || ent.mats[q] == nil {
				t.Fatalf("accepted import lacks processor %d's piece or operator", q)
			}
		}
		srv.mu.Lock()
		_, stored := srv.matrices.peek(wf.Key)
		srv.mu.Unlock()
		if !stored {
			t.Fatal("accepted import did not store its matrix")
		}
	})
}

// FuzzDecodeMatrix: the same for a matrix body and importMatrix.
func FuzzDecodeMatrix(f *testing.F) {
	srv := New(Config{Procs: 4, Workers: 1, Backend: "real"})
	f.Cleanup(func() { srv.Shutdown(context.Background()) })
	mat := mustEncodeMatrix(f, matgen.Grid2D(6, 6))
	// The first length prefix is RowPtr's, after the two dimensions.
	wireSeeds(f, mat, len(matrixMagic)+4+16, parentGobMatrix(f, mat))
	f.Fuzz(func(t *testing.T, body []byte) {
		var a *sparse.CSR
		var err error
		if n := allocatedBy(func() { a, err = decodeMatrix(body) }); n > decodeAllocBound(len(body)) {
			t.Fatalf("decoding %d bytes allocated %d", len(body), n)
		}
		if err != nil {
			return
		}
		if again, err := encodeMatrix(a); err != nil || !bytes.Equal(again, body) {
			t.Fatalf("re-encoding a decoded body: err %v, bytes equal %v", err, bytes.Equal(again, body))
		}
		before := srv.StatsSnapshot().Matrices
		key, _, err := srv.importMatrix(bytes.NewReader(body))
		after := srv.StatsSnapshot().Matrices
		if err != nil {
			if after != before {
				t.Fatalf("refused matrix (%v) changed the store from %d to %d", err, before, after)
			}
			return
		}
		srv.mu.Lock()
		stored, ok := srv.matrices.peek(key)
		srv.mu.Unlock()
		if !ok || sparse.Fingerprint(stored) != key {
			t.Fatalf("accepted matrix is not stored under its fingerprint %s", key)
		}
	})
}
