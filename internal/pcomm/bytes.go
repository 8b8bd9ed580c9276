package pcomm

import "unsafe"

// BytesOf returns the modelled wire size of n elements of type T — the
// generic form of the BytesOf* helpers, for payloads built through
// SendSlice/RecvSlice. It sizes the element representation only, so a
// payload that holds slices is flattened into slices of scalars before it
// is sent (the pivot push sends a row's integers and its floats apart).
func BytesOf[T any](n int) int {
	var z T
	return int(unsafe.Sizeof(z)) * n
}

// BytesOfFloats returns the modelled wire size of n float64s.
func BytesOfFloats(n int) int { return 8 * n }

// BytesOfInts returns the modelled wire size of n int indices.
func BytesOfInts(n int) int { return 8 * n }

// BytesOfUint64s returns the modelled wire size of n uint64 keys.
func BytesOfUint64s(n int) int { return 8 * n }

// BytesOfBools returns the modelled wire size of n boolean flags (one
// byte each, as an MPI byte-typed message would ship them).
func BytesOfBools(n int) int { return n }

// The Copy* helpers detach a payload from the sender's memory before a
// Send: because both backends pass references where a real distributed
// machine would serialize onto the wire, a sender that retains and later
// mutates a sent slice silently corrupts the receiver — the aliasing bug
// the sendalias analyzer flags. Copying at the call site (or sending a
// freshly built buffer) restores the by-value semantics of a real
// message.

// CopyInts returns a copy of xs that shares no memory with it.
func CopyInts(xs []int) []int { return append([]int(nil), xs...) }

// CopyFloats returns a copy of xs that shares no memory with it.
func CopyFloats(xs []float64) []float64 { return append([]float64(nil), xs...) }

// CopyBools returns a copy of xs that shares no memory with it.
func CopyBools(xs []bool) []bool { return append([]bool(nil), xs...) }
