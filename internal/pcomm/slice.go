package pcomm

import (
	"fmt"
	"unsafe"
)

// RawSlice is an unboxed slice header: the type-erased form SendSlice
// uses to hand a payload to a RawComm backend without converting the
// slice to an interface value (which would heap-allocate the header on
// every message). Elem carries the element size so RecvSlice can reject
// a reinterpretation under the wrong type.
type RawSlice struct {
	Ptr  unsafe.Pointer
	Len  int
	Cap  int
	Elem uintptr // element size in bytes
}

// RawComm is the optional zero-boxing fast path a backend may provide.
// The wall-clock engine implements it, so both of its transports
// (realcomm, netcomm) have it; the modelled simulator does not (boxed
// payloads are irrelevant next to its virtual clocks).
// SendRaw/RecvRaw must match Send/Recv semantics exactly: same FIFO
// order per (src, dst, tag), same counters, interchangeable with boxed
// messages on the same tag — RecvRaw returns the boxed payload (isRaw
// false) when the matched message was sent with plain Send.
type RawComm interface {
	SendRaw(dst, tag int, h RawSlice, bytes int)
	RecvRaw(src, tag int) (h RawSlice, boxed any, isRaw bool)
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
// BytesOf[T]. On a RawComm backend the slice header passes unboxed; the
// element data is never copied on either backend (zero-copy), so the
// sendalias rule applies exactly as for Send: the sender must not retain
// and mutate xs.
func SendSlice[T any](c Comm, dst, tag int, xs []T) {
	bytes := BytesOf[T](len(xs))
	if rc, ok := c.(RawComm); ok {
		rc.SendRaw(dst, tag, rawOf(xs), bytes)
		return
	}
	c.Send(dst, tag, xs, bytes)
}

// RecvSlice receives a []T sent by SendSlice (or by a plain Send of a
// []T) from src under tag.
func RecvSlice[T any](c Comm, src, tag int) []T {
	if rc, ok := c.(RawComm); ok {
		h, boxed, isRaw := rc.RecvRaw(src, tag)
		if isRaw {
			return sliceOf[T](h)
		}
		if boxed == nil {
			return nil
		}
		return boxed.([]T)
	}
	if v := c.Recv(src, tag); v != nil {
		return v.([]T)
	}
	return nil
}

// AllGatherSlice gathers one []T per processor, sized with BytesOf[T].
func AllGatherSlice[T any](c Comm, xs []T) [][]T {
	vals := c.AllGather(xs, BytesOf[T](len(xs)))
	out := make([][]T, len(vals))
	for i, v := range vals {
		if v != nil {
			out[i] = v.([]T)
		}
	}
	return out
}
