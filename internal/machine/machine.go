// Package machine holds the cost models of the simulated distributed-
// memory computer the paper runs on (a Cray T3D): the constants of the
// LogP-style virtual clock that internal/pcomm/modelled runs P processors
// on. Computation costs flops × FlopTime; a message costs its ends
// Overhead each and arrives Latency + bytes × ByteTime after it is sent;
// a collective costs a logarithmic number of message steps.
package machine

// CostModel holds the machine constants of the LogP-style clock.
type CostModel struct {
	FlopTime float64 // seconds per floating-point operation
	Latency  float64 // seconds per point-to-point message (wire + software)
	ByteTime float64 // seconds per payload byte
	Overhead float64 // CPU seconds charged to each end per message
}

// T3D returns constants approximating the paper's Cray T3D: 150 MHz Alpha
// EV4 processors sustaining ~15 Mflop/s on sparse kernels, a few µs of
// message latency (the T3D's remote-store network was unusually fast for
// its era — "a small latency" in the paper's words), and ~150 MB/s links.
func T3D() CostModel {
	return CostModel{
		FlopTime: 1.0 / 15e6,
		Latency:  5e-6,
		ByteTime: 1.0 / 150e6,
		Overhead: 1e-6,
	}
}

// Workstation returns constants for a cluster of T3D-class nodes on a
// commodity Ethernet-class network: identical processors, two orders of
// magnitude more latency, an order of magnitude less bandwidth. Only the
// network differs from T3D(), isolating the effect the paper's conclusion
// is about — ILUT*'s synchronization savings matter most on slow networks.
func Workstation() CostModel {
	return CostModel{
		FlopTime: 1.0 / 15e6,
		Latency:  500e-6,
		ByteTime: 1.0 / 10e6,
		Overhead: 10e-6,
	}
}

// Zero returns a cost model in which time never advances; useful for tests
// that only care about data movement semantics.
func Zero() CostModel { return CostModel{} }
