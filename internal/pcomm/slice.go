package pcomm

import (
	"fmt"
	"unsafe"
)

// RawSlice is an unboxed slice header: the type-erased form in which
// SendSlice and AllGatherSlice hand a payload to the communicator without
// converting the slice to an interface value (which would heap-allocate
// the header on every message). Elem carries the element size so
// RecvSlice can reject a reinterpretation under the wrong type.
type RawSlice struct {
	Ptr  unsafe.Pointer
	Len  int
	Cap  int
	Elem uintptr // element size in bytes
}

func rawOf[T any](xs []T) RawSlice {
	var z T
	var ptr unsafe.Pointer
	if cap(xs) > 0 {
		ptr = unsafe.Pointer(unsafe.SliceData(xs))
	}
	return RawSlice{Ptr: ptr, Len: len(xs), Cap: cap(xs), Elem: unsafe.Sizeof(z)}
}

func sliceOf[T any](h RawSlice) []T {
	var z T
	if h.Elem != unsafe.Sizeof(z) {
		panic(fmt.Sprintf("pcomm: RecvSlice element size %d does not match sent element size %d", unsafe.Sizeof(z), h.Elem))
	}
	if h.Ptr == nil {
		return nil
	}
	return unsafe.Slice((*T)(h.Ptr), h.Cap)[:h.Len]
}

// SendSlice sends xs to dst under tag, sizing the message with
// BytesOf[T]. The slice header passes unboxed and the element data is
// never copied between co-located ranks (zero-copy), so the sendalias
// rule applies exactly as for Send: the sender must not retain and
// mutate xs.
func SendSlice[T any](c Comm, dst, tag int, xs []T) {
	c.SendRaw(dst, tag, rawOf(xs), BytesOf[T](len(xs)))
}

// RecvSlice receives a []T sent by SendSlice from src under tag.
func RecvSlice[T any](c Comm, src, tag int) []T {
	return sliceOf[T](c.RecvRaw(src, tag))
}

// AllGatherSlice gathers one []T per processor, sized with BytesOf[T].
// The outer slice is per-call storage; the contributions are the
// senders' slices, which they must not mutate (sendalias).
func AllGatherSlice[T any](c Comm, xs []T) [][]T {
	hs := c.AllGatherRaw(rawOf(xs), BytesOf[T](len(xs)))
	out := make([][]T, len(hs))
	for i, h := range hs {
		out[i] = sliceOf[T](h)
	}
	return out
}
