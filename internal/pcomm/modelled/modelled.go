// Package modelled is the paper's machine: P processors on a LogP virtual
// clock (internal/machine's cost models) in place of the Cray T3D.
// Computation advances a rank's clock by flops × FlopTime; a message
// arrives at its sender's time + Latency + bytes × ByteTime and a receiver
// waits for it; a collective ends log P message steps after its last
// rank enters. The elapsed time of a run is the largest clock — the
// makespan of the communication DAG — which reproduces the scaling shape
// of a real distributed machine on a host with far fewer cores.
//
// The world is realcomm's shared-memory transport under the engine's
// modelled clock (internal/pcomm/engine): the same mailboxes,
// collectives, supervisor and trace spans as the wall-clock backends.
// Since no result or clock reading depends on how the ranks interleave,
// they run one at a time, as coroutines on one goroutine, the rank with
// the least clock first; a world in which no rank can proceed fails at
// once with a *pcomm.DeadlockError, watchdog or not.
package modelled

import (
	"repro/internal/machine"
	"repro/internal/pcomm/realcomm"
)

// New creates a modelled world with p processors and the given cost
// model.
func New(p int, cost machine.CostModel) *realcomm.World { return realcomm.NewModelled(p, cost) }
