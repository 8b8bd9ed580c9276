package pcomm

// Fold combines one contribution per processor, in rank order, with op.
// Every backend's AllReduce ends here, over the same left-to-right loop:
// that is what makes a floating-point reduction bitwise identical across
// backends (a tree reduction would be faster asymptotically but would
// change the rounding order and break the Dong & Cooperman
// bit-compatibility property the cross-backend tests assert).
//
//pilut:hotpath
func Fold[T int | float64](vals []T, op ReduceOp) T {
	out := vals[0]
	for _, x := range vals[1:] {
		switch op {
		case OpSum:
			out += x
		case OpMax:
			if x > out {
				out = x
			}
		case OpMin:
			if x < out {
				out = x
			}
		}
	}
	return out
}
