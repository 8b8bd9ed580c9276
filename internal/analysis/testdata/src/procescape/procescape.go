// Package procescape exercises the procescape analyzer: a communicator
// handle (*machine.Proc or pcomm.Comm) is confined to the goroutine Run
// handed it to.
package procescape

import (
	"repro/internal/machine"
	"repro/internal/pcomm"
	"repro/internal/pcomm/netcomm"
)

var global *machine.Proc

var globalComm pcomm.Comm

func worker(p *machine.Proc) {
	p.Barrier()
}

func commWorker(c pcomm.Comm) {
	c.Barrier()
}

// Violations: the Proc leaks to another goroutine or outlives the run.
func bad(p *machine.Proc, ch chan *machine.Proc) {
	go worker(p) // want `\*machine.Proc passed to a goroutine`

	go p.Barrier() // want `\*machine.Proc method launched as a goroutine`

	go func() {
		p.Send(1, 0, nil, 0) // want `\*machine.Proc p captured by a go-statement closure`
	}()

	ch <- p // want `\*machine.Proc sent on a channel`

	global = p // want `\*machine.Proc stored in a package-level variable`
}

// badComm: the same escapes through the backend-agnostic interface.
func badComm(c pcomm.Comm, ch chan pcomm.Comm) {
	go commWorker(c) // want `pcomm.Comm passed to a goroutine`

	go c.Barrier() // want `pcomm.Comm method launched as a goroutine`

	go func() {
		c.Send(1, 0, nil, 0) // want `pcomm.Comm c captured by a go-statement closure`
	}()

	ch <- c // want `pcomm.Comm sent on a channel`

	globalComm = c // want `pcomm.Comm stored in a package-level variable`
}

// badConcrete: a backend's concrete handle is a communicator too, found
// by its method set rather than by name — *netcomm.Proc was on no list.
func badConcrete(p *netcomm.Proc, ch chan *netcomm.Proc) {
	go commWorker(p) // want `pcomm.Comm passed to a goroutine`

	go p.Barrier() // want `pcomm.Comm method launched as a goroutine`

	ch <- p // want `pcomm.Comm sent on a channel`
}

// Clean: scalar results may cross goroutines; local aliases are fine.
func good(p *machine.Proc, c pcomm.Comm, done chan int) {
	go func(id int) {
		done <- id
	}(p.ID())

	go func(id int) {
		done <- id
	}(c.ID())

	q := p // a local alias stays confined
	q.Barrier()

	go func() {
		// A fresh closure variable shadowing the name is not a capture.
		var p int
		_ = p
	}()
}

// Suppressed: a deliberate hand-off, e.g. a helper goroutine joined
// before the processor body returns.
func waived(p *machine.Proc) {
	//pilutlint:ok procescape helper is joined before the proc body returns
	go worker(p)
}
