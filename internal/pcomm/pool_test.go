package pcomm

import "testing"

// TestSlicePoolReserve: the free list keeps at most minPooledSlices
// buffers until a protocol reserves its plan's worth, and a reservation
// never shrinks.
func TestSlicePoolReserve(t *testing.T) {
	fill := func(p *SlicePool[float64], n int) int {
		for i := 0; i < n; i++ {
			p.Put(make([]float64, 8))
		}
		return len(p.free)
	}
	var p SlicePool[float64]
	if got := fill(&p, 3*minPooledSlices); got != minPooledSlices {
		t.Fatalf("unreserved pool kept %d buffers, want %d", got, minPooledSlices)
	}
	var q SlicePool[float64]
	q.Reserve(2 * minPooledSlices)
	q.Reserve(minPooledSlices / 2)
	if got := fill(&q, 3*minPooledSlices); got != 2*minPooledSlices {
		t.Fatalf("pool reserved for %d kept %d buffers", 2*minPooledSlices, got)
	}
}
