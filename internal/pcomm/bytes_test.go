package pcomm

import "testing"

// TestBytesHelpers pins the modelled sizes the cost model charges: eight
// bytes per index, value or key, one per flag.
func TestBytesHelpers(t *testing.T) {
	if BytesOf[float64](3) != 24 || BytesOfInts(2) != 16 || BytesOf[int](2) != 16 ||
		BytesOf[bool](5) != 5 || BytesOf[uint64](2) != 16 {
		t.Fatal("byte helpers wrong")
	}
}
