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

// Unbox copies boxed contributions into buf[:0] as Ts, for backends whose
// rendezvous carries []any (the modelled machine's deposit slots,
// netcomm's decoded round results) so they Fold over the same typed view
// as the shared-memory slots. buf is the caller's reusable scratch.
func Unbox[T any](buf []T, vals []any) []T {
	buf = buf[:0]
	for _, v := range vals {
		buf = append(buf, v.(T))
	}
	return buf
}
