package realcomm

import (
	"testing"

	"repro/internal/pcomm"
)

// The contract shared with the other backends is pcommtest.Conformance;
// what is specific to shared memory is that delivery aliases.
func TestSendSliceZeroCopy(t *testing.T) {
	w := New(2)
	src := []float64{1, 2, 3}
	w.Run(func(c pcomm.Comm) {
		if c.ID() == 0 {
			pcomm.SendSlice(c, 1, 3, src)
		} else {
			got := pcomm.RecvSlice[float64](c, 0, 3)
			if len(got) != 3 || got[0] != 1 || got[2] != 3 {
				t.Errorf("RecvSlice = %v", got)
			}
			// Same backing array: the real backend passes by reference.
			got[0] = 42
		}
	})
	if src[0] != 42 {
		t.Errorf("expected zero-copy delivery to alias the source slice; src = %v", src)
	}
}
