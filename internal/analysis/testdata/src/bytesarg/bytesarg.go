// Package bytesarg exercises the bytesarg analyzer: modelled byte counts
// at Send/SendRaw/AllGatherRaw sites must come from BytesOf* helpers (or be 0 for
// pure control messages) so the LogP cost model stays honest.
package bytesarg

import (
	"repro/internal/pcomm"
	"repro/internal/pcomm/engine"
)

// BytesOfPairs is a domain-specific sizing helper; any BytesOf* name is
// accepted, package-qualified or not.
func BytesOfPairs(n int) int { return 16 * n }

type pair struct{ a, b float64 }

// Violations: raw literals and hand-rolled arithmetic.
func bad(p *engine.Proc, xs []int, h pcomm.RawSlice) {
	p.Send(1, 0, xs, 8*len(xs)) // want `modelled byte count of Send should come from a BytesOf\* helper`

	p.Send(1, 1, xs, 800) // want `modelled byte count of Send should come from a BytesOf\* helper`

	p.AllGatherRaw(h, len(xs)) // want `modelled byte count of AllGatherRaw should come from a BytesOf\* helper`

	b := 8 * len(xs)
	p.Send(1, 2, xs, b) // want `modelled byte count of Send should come from a BytesOf\* helper`
}

// badComm: the same violations through the backend-agnostic interface.
func badComm(c pcomm.Comm, xs []int, h pcomm.RawSlice) {
	c.Send(1, 0, xs, 8*len(xs)) // want `modelled byte count of Send should come from a BytesOf\* helper`

	c.SendRaw(1, 1, h, 8) // want `modelled byte count of SendRaw should come from a BytesOf\* helper`
}

// Clean: helpers, zero, sums of helpers, accumulators, forwarded params.
func good(p *engine.Proc, xs []int, flags []bool, h pcomm.RawSlice) {
	p.Send(1, 0, xs, pcomm.BytesOfInts(len(xs)))
	p.Send(1, 1, nil, 0)
	p.Send(1, 2, xs, pcomm.BytesOfInts(len(xs))+pcomm.BytesOf[bool](len(flags)))
	p.Send(1, 3, xs, BytesOfPairs(len(xs)))
	p.AllGatherRaw(h, pcomm.BytesOfInts(1))

	b := 0
	b += pcomm.BytesOfInts(len(xs))
	b += pcomm.BytesOf[bool](len(flags))
	p.Send(1, 4, xs, b)
}

// goodComm: the generic BytesOf helper with an explicit instantiation is
// a BytesOf* call like any other.
func goodComm(c pcomm.Comm, ps []pair, h pcomm.RawSlice) {
	c.Send(1, 0, ps, pcomm.BytesOf[pair](len(ps)))
	c.AllGatherRaw(h, pcomm.BytesOf[pair](len(ps)))
}

// sendWith forwards its byte count: the obligation moves to its callers.
func sendWith(p *engine.Proc, bytes int) {
	p.Send(1, 0, []int{1}, bytes)
}

// Suppressed: a deliberately modelled constant header size.
func waived(p *engine.Proc) {
	p.Send(1, 0, nil, 64) //pilutlint:ok bytesarg fixed 64-byte header, modelled deliberately
}
