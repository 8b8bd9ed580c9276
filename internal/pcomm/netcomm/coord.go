package netcomm

import (
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/pcomm"
)

// opStats is the reserved collective op of the run-completion round:
// after the SPMD function returns, every rank deposits its statistics
// under this op and the coordinator answers with a done broadcast
// instead of a result frame. The "__" prefix keeps it out of the user
// collective namespace ("barrier", "allreduce_f64", ...).
const opStats = "__stats"

// coordinator is process 0's collective brain: it owns one control
// connection per peer process, collects the P deposits of each
// (generation, round), and broadcasts the rank-ordered result — or an
// abort — to every process. Keeping the fold inputs in rank order here
// is what lets each rank reduce locally with realcomm's exact loop, so
// results stay bitwise identical across backends.
type coordinator struct {
	node *Node

	mu         sync.Mutex
	conns      []*ctlConn // index = process; [0] stays nil (local)
	registered int
	allIn      chan struct{}
	gens       map[uint64]*genCollect
	dead       error // a peer process died; every subsequent round aborts
}

// genCollect is the coordinator's state for one world generation.
type genCollect struct {
	p       int
	rounds  map[uint64]*roundCollect
	aborted bool
}

// roundCollect holds one collective round's deposits by rank: memory
// follows the deposits received, never the world size a peer claims.
type roundCollect struct {
	op   string
	pays map[int]payload
}

func newCoordinator(n *Node) *coordinator {
	return &coordinator{
		node:  n,
		conns: make([]*ctlConn, n.n),
		allIn: make(chan struct{}),
		gens:  make(map[uint64]*genCollect),
	}
}

// awaitPeers blocks until every peer's control connection has
// registered, or the rendezvous times out.
func (c *coordinator) awaitPeers(timeout time.Duration) error {
	if c.node.n == 1 {
		return nil
	}
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case <-c.allIn:
		return nil
	case <-t.C:
		c.mu.Lock()
		got := c.registered
		c.mu.Unlock()
		return fmt.Errorf("netcomm: rendezvous timed out after %v: %d of %d peer processes checked in",
			timeout, got, c.node.n-1)
	}
}

// register adopts a handshaken control connection from process idx and
// starts its read loop.
func (c *coordinator) register(idx int, conn net.Conn) {
	c.mu.Lock()
	if c.conns[idx] != nil {
		c.mu.Unlock()
		if err := conn.Close(); err != nil {
			_ = err // duplicate control connection; the first one stays authoritative
		}
		return
	}
	c.conns[idx] = &ctlConn{c: conn}
	c.registered++
	if c.registered == c.node.n-1 {
		close(c.allIn)
	}
	c.mu.Unlock()
	go c.readLoop(idx, conn)
}

// closeConns tears down every control connection (node shutdown).
func (c *coordinator) closeConns() {
	c.mu.Lock()
	conns := append([]*ctlConn(nil), c.conns...)
	c.mu.Unlock()
	for _, cc := range conns {
		if cc == nil {
			continue
		}
		if err := cc.c.Close(); err != nil {
			_ = err // shutdown path; the connection is being discarded
		}
	}
}

// readLoop consumes deposits and aborts from one peer process. Its EOF
// is the death notice of that process: the group cannot complete any
// round without it, so everything aborts.
func (c *coordinator) readLoop(idx int, conn net.Conn) {
	for {
		typ, body, err := readFrame(conn)
		if err != nil {
			c.node.mu.Lock()
			closed := c.node.closed
			c.node.mu.Unlock()
			if !closed {
				c.peerLost(idx, fmt.Errorf("netcomm: lost control connection to process %d (%s): %v",
					idx, c.node.peers[idx], err))
			}
			return
		}
		switch typ {
		case fDeposit:
			d, derr := decodeDepositFrame(body)
			if derr != nil {
				c.peerLost(idx, derr)
				return
			}
			c.deposit(d)
		case fAbort:
			a, aerr := decodeAbortFrame(body)
			if aerr != nil {
				c.peerLost(idx, aerr)
				return
			}
			c.abortGen(a)
		default:
			c.peerLost(idx, fmt.Errorf("netcomm: unexpected frame type %d on control connection from process %d", typ, idx))
			return
		}
	}
}

// deposit folds one rank's contribution into its round; when the round
// is full it broadcasts the rank-ordered result (or, for the stats
// round, assembles and broadcasts the run Result).
func (c *coordinator) deposit(d deposit) {
	c.mu.Lock()
	if c.dead != nil {
		dead := c.dead
		c.mu.Unlock()
		c.abortGen(abortMsg{gen: d.gen, rank: -1, msg: dead.Error()})
		return
	}
	gc, ok := c.gens[d.gen]
	if !ok {
		gc = &genCollect{p: d.p, rounds: make(map[uint64]*roundCollect)}
		c.gens[d.gen] = gc
	}
	if gc.aborted {
		c.mu.Unlock()
		return
	}
	abort := func(msg string) {
		c.mu.Unlock()
		c.abortGen(abortMsg{gen: d.gen, rank: d.rank, msg: msg})
	}
	if gc.p != d.p {
		abort(fmt.Sprintf("netcomm: SPMD violation: rank %d deposited into a %d-rank world, this generation has %d ranks", d.rank, d.p, gc.p))
		return
	}
	if d.rank < 0 || d.rank >= gc.p {
		abort(fmt.Sprintf("netcomm: deposit from out-of-range rank %d (P=%d)", d.rank, gc.p))
		return
	}
	rc, ok := gc.rounds[d.round]
	if !ok {
		rc = &roundCollect{op: d.op, pays: make(map[int]payload)}
		gc.rounds[d.round] = rc
	}
	if rc.op != d.op {
		abort(fmt.Sprintf("netcomm: collective mismatch in round %d: rank %d entered %q, others entered %q", d.round, d.rank, d.op, rc.op))
		return
	}
	if _, dup := rc.pays[d.rank]; dup {
		abort(fmt.Sprintf("netcomm: rank %d deposited twice into round %d (%q)", d.rank, d.round, d.op))
		return
	}
	rc.pays[d.rank] = d.pay
	if len(rc.pays) < gc.p {
		c.mu.Unlock()
		return
	}
	delete(gc.rounds, d.round)
	pays := make([]payload, gc.p) // all p ranks have deposited: p is real
	for rank, pay := range rc.pays {
		pays[rank] = pay
	}
	if d.op == opStats {
		delete(c.gens, d.gen) // the stats round is every rank's last act
		c.mu.Unlock()
		c.finishGen(d.gen, pays)
		return
	}
	c.mu.Unlock()
	c.broadcastResult(roundResult{gen: d.gen, round: d.round, op: d.op, pays: pays})
}

// finishGen decodes the stats round and broadcasts the assembled run
// Result so Run returns the same value in every process.
func (c *coordinator) finishGen(gen uint64, pays []payload) {
	stats := make([]pcomm.Stats, len(pays))
	for i, pay := range pays {
		st, err := decodeStatsPayload(pay)
		if err != nil {
			c.abortGen(abortMsg{gen: gen, rank: i, msg: fmt.Sprintf("netcomm: malformed stats deposit from rank %d: %v", i, err)})
			return
		}
		stats[i] = st
	}
	res := pcomm.NewResult(stats)
	body := encodeDoneFrame(gen, res)
	c.node.handleDone(gen, res)
	for idx, cc := range c.snapshotConns() {
		if cc == nil {
			continue
		}
		if err := cc.send(fDone, body); err != nil {
			c.peerLost(idx, fmt.Errorf("netcomm: broadcasting done to process %d: %w", idx, err))
		}
	}
}

// broadcastResult delivers one completed round to every process.
func (c *coordinator) broadcastResult(r roundResult) {
	body := encodeResultFrame(r)
	c.node.handleResult(r)
	for idx, cc := range c.snapshotConns() {
		if cc == nil {
			continue
		}
		if err := cc.send(fResult, body); err != nil {
			c.peerLost(idx, fmt.Errorf("netcomm: broadcasting round result to process %d: %w", idx, err))
		}
	}
}

// abortGen marks a generation failed (first cause wins) and broadcasts
// the abort to every process, including this one.
func (c *coordinator) abortGen(a abortMsg) {
	c.mu.Lock()
	gc, ok := c.gens[a.gen]
	if !ok {
		gc = &genCollect{rounds: make(map[uint64]*roundCollect)}
		c.gens[a.gen] = gc
	}
	if gc.aborted {
		c.mu.Unlock()
		return
	}
	gc.aborted = true
	gc.rounds = make(map[uint64]*roundCollect) // drop buffered deposits
	c.mu.Unlock()
	body := encodeAbortFrame(a)
	c.node.handleAbort(a)
	for _, cc := range c.snapshotConns() {
		if cc == nil {
			continue
		}
		if err := cc.send(fAbort, body); err != nil {
			// A peer unreachable during an abort broadcast is already dead;
			// its own read-loop EOF handling raises the group failure.
			continue
		}
	}
}

// peerLost handles the death of a peer process: the node is poisoned,
// every active generation aborts, and the dead flag makes any later
// round abort immediately.
func (c *coordinator) peerLost(idx int, err error) {
	c.mu.Lock()
	if c.dead == nil {
		c.dead = err
	}
	c.conns[idx] = nil
	gens := make([]uint64, 0, len(c.gens))
	for gen, gc := range c.gens {
		if !gc.aborted {
			gens = append(gens, gen)
		}
	}
	c.mu.Unlock()
	for _, gen := range gens {
		c.abortGen(abortMsg{gen: gen, rank: -1, msg: err.Error()})
	}
	c.node.fail(err)
}

func (c *coordinator) snapshotConns() []*ctlConn {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*ctlConn(nil), c.conns...)
}
