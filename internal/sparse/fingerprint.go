package sparse

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
)

// Fingerprint version strings are folded into every hash so that a change
// to an encoding can never collide with hashes computed by an older
// scheme, and so the two fingerprint families can never collide with
// each other even on matrices whose payloads would hash identically.
const (
	fingerprintVersion        = "pilut-fp-v1"
	patternFingerprintVersion = "pilut-pfp-v1"
)

// hashCSR is the shared fingerprint body: it hashes the version string,
// the dimensions, the structure (row pointers + column indices) and,
// when values is set, the value payload. The byte stream with values
// under fingerprintVersion is exactly the historical Fingerprint
// encoding — cache keys and HRW cluster routing depend on that
// stability.
func hashCSR(a *CSR, version string, values bool) string {
	h := sha256.New()
	var scratch [8]byte
	writeU64 := func(v uint64) {
		binary.LittleEndian.PutUint64(scratch[:], v)
		h.Write(scratch[:])
	}

	h.Write([]byte(version))
	writeU64(uint64(a.N))
	writeU64(uint64(a.M))
	writeU64(uint64(a.NNZ()))

	// Hash in sizeable chunks: a per-entry Write call would dominate the
	// cost on the multi-hundred-thousand-entry matrices the service keys.
	buf := make([]byte, 0, 1<<14)
	flush := func() {
		h.Write(buf)
		buf = buf[:0]
	}
	put := func(v uint64) {
		if len(buf)+8 > cap(buf) {
			flush()
		}
		buf = binary.LittleEndian.AppendUint64(buf, v)
	}
	for _, p := range a.RowPtr {
		put(uint64(p))
	}
	for _, c := range a.Cols {
		put(uint64(c))
	}
	if values {
		for _, v := range a.Vals {
			put(math.Float64bits(v))
		}
	}
	flush()

	sum := h.Sum(nil)
	return hex.EncodeToString(sum[:16])
}

// Fingerprint returns a stable content hash of the matrix: two matrices
// have the same fingerprint exactly when they have identical dimensions,
// row pointers, column indices and values (bit-for-bit on the float64
// payload). The hash is the key of the solver service's factorization
// cache, so it must be insensitive to everything but content — in
// particular it does not depend on spare slice capacity or on the address
// of the matrix. Permuting a matrix or perturbing a single value yields a
// different fingerprint.
func Fingerprint(a *CSR) string {
	return hashCSR(a, fingerprintVersion, true)
}

// PatternFingerprint hashes only the sparsity structure: dimensions, row
// pointers and column indices. Two matrices share a pattern fingerprint
// exactly when they have identical nonzero patterns, regardless of the
// values stored in them. It keys the service's symbolic-analysis cache:
// a matrix sequence with a fixed pattern and evolving values maps to one
// pattern key and many value keys, so the partition/layout/interface
// analysis is reused while each value set still gets its own numeric
// factorization.
func PatternFingerprint(a *CSR) string {
	return hashCSR(a, patternFingerprintVersion, false)
}
