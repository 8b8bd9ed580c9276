package pcomm

import "testing"

func TestBytesHelpers(t *testing.T) {
	if BytesOfFloats(3) != 24 || BytesOfInts(2) != 16 || BytesOfBools(5) != 5 || BytesOfUint64s(2) != 16 {
		t.Fatal("byte helpers wrong")
	}
}

func TestCopyHelpers(t *testing.T) {
	xs := []int{1, 2, 3}
	cp := CopyInts(xs)
	cp[0] = 99
	if xs[0] != 1 {
		t.Fatal("CopyInts aliases its input")
	}
	fs := []float64{1.5}
	fcp := CopyFloats(fs)
	fcp[0] = 0
	if fs[0] != 1.5 {
		t.Fatal("CopyFloats aliases its input")
	}
	bs := []bool{true}
	bcp := CopyBools(bs)
	bcp[0] = false
	if !bs[0] {
		t.Fatal("CopyBools aliases its input")
	}
}
