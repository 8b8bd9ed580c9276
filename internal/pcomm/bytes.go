package pcomm

import "unsafe"

// BytesOf returns the modelled wire size of n elements of type T, the
// size SendSlice and AllGatherSlice charge. It sizes the element
// representation only, so a payload that holds slices is flattened into
// slices of scalars before it is sent (the pivot push sends a row's
// integers and its floats apart).
func BytesOf[T any](n int) int {
	var z T
	return int(unsafe.Sizeof(z)) * n
}

// BytesOfInts returns the modelled wire size of n int indices, for a
// boxed Send.
func BytesOfInts(n int) int { return 8 * n }
