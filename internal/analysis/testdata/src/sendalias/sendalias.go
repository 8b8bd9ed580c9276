// Package sendalias exercises the sendalias analyzer: payloads of
// Send/SendSlice/AllGatherSlice must not alias memory the sender retains.
package sendalias

import (
	"slices"

	"repro/internal/pcomm"
	"repro/internal/pcomm/engine"
)

type holder struct {
	data []float64
}

// Violations: the payload provably aliases sender-visible memory.
func bad(p *engine.Proc, xs []int, h holder, rows [][]float64, raw pcomm.RawSlice) {
	p.Send(1, 0, xs, pcomm.BytesOfInts(len(xs)))              // want `payload of Send may alias memory the sender retains`
	p.Send(1, 1, h.data, pcomm.BytesOf[float64](len(h.data))) // want `payload of Send may alias memory the sender retains`
	for _, row := range rows {
		p.Send(1, 2, row, pcomm.BytesOf[float64](len(row))) // want `payload of Send may alias memory the sender retains`
	}
	v := p.Recv(0, 3)
	p.Send(2, 3, v, 0)          // want `payload of Send may alias memory the sender retains`
	p.AllGatherRaw(raw)         // want `payload of AllGatherRaw may alias memory the sender retains`
	pcomm.AllGatherSlice(p, xs) // want `payload of AllGatherSlice may alias memory the sender retains`

	alias := xs
	p.Send(1, 4, alias, pcomm.BytesOfInts(len(alias))) // want `payload of Send may alias memory the sender retains`
}

// badComm repeats the violations through the backend-agnostic
// pcomm.Comm interface and the generic slice fast path.
func badComm(c pcomm.Comm, xs []int, ys []float64) {
	c.Send(1, 0, xs, pcomm.BytesOfInts(len(xs))) // want `payload of Send may alias memory the sender retains`
	pcomm.SendSlice(c, 1, 1, ys)                 // want `payload of SendSlice may alias memory the sender retains`
	pcomm.AllGatherSlice(c, ys)                  // want `payload of AllGatherSlice may alias memory the sender retains`

	got := pcomm.RecvSlice[float64](c, 0, 2)
	pcomm.SendSlice(c, 2, 2, got)    // want `payload of SendSlice may alias memory the sender retains`
	c.SendRaw(2, 3, c.RecvRaw(0, 3)) // want `payload of SendRaw may alias memory the sender retains`
}

// Clean: freshly built payloads and scalar payloads.
func good(p *engine.Proc, xs []int, n int) {
	p.Send(1, 0, []int{1, 2, 3}, pcomm.BytesOfInts(3))

	msg := make([]float64, n)
	for i := range msg {
		msg[i] = float64(i)
	}
	p.Send(1, 1, msg, pcomm.BytesOf[float64](len(msg)))

	var out []int
	out = append(out, xs...)
	p.Send(1, 2, out, pcomm.BytesOfInts(len(out)))

	p.Send(1, 3, slices.Clone(xs), pcomm.BytesOfInts(len(xs)))
	p.Send(1, 4, n, pcomm.BytesOfInts(1)) // scalar payload: no references
	p.Send(1, 5, nil, 0)
	pcomm.AllGatherSlice(p, slices.Clone(xs))
}

// goodComm: fresh buffers through the interface and the generic path.
func goodComm(c pcomm.Comm, xs []int) {
	pcomm.SendSlice(c, 1, 0, slices.Clone(xs))
	msg := make([]int, len(xs))
	copy(msg, xs)
	pcomm.SendSlice(c, 1, 1, msg)
	pcomm.AllGatherSlice(c, []int{c.ID()})
}

// Suppressed: the sender provably never mutates xs again.
func waived(p *engine.Proc, xs []int) {
	//pilutlint:ok sendalias xs is never mutated after this send
	p.Send(1, 0, xs, pcomm.BytesOfInts(len(xs)))
}
