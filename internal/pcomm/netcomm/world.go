package netcomm

import (
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"repro/internal/pcomm"
	"repro/internal/pcomm/engine"
)

// RemoteAbort is the failure cause a World panics with when the run was
// killed by a rank hosted on another process: the original panic value
// cannot cross the process boundary, so its rendering travels instead.
type RemoteAbort struct {
	Rank int // root-cause rank, -1 when unknown
	Msg  string
}

func (e *RemoteAbort) Error() string {
	if e.Rank < 0 {
		return fmt.Sprintf("netcomm: run aborted by a peer process: %s", e.Msg)
	}
	return fmt.Sprintf("netcomm: run aborted by rank %d on a peer process: %s", e.Rank, e.Msg)
}

// resultEntry is one broadcast round result with a countdown of local
// ranks still to consume it.
type resultEntry struct {
	r       roundResult
	readers int
}

// rankState is the transport's share of one locally hosted rank, touched
// only by the rank's own goroutine (DropTransport included: the fault
// injector runs inside the rank).
type rankState struct {
	w     *World
	round uint64
	bell  engine.Bell
	// conns are the rank's dialed outbound data connections by dst.
	conns map[int]net.Conn
}

// World is one P-rank netcomm run, the engine's transport for a group of
// OS processes: the local block of ranks executes here on the engine's
// mailboxes, everything else is reached over the node's sockets, and
// collectives meet at the coordinator. Like the other backends a World
// is single-use.
type World struct {
	*engine.World
	node   *Node
	gen    uint64
	p      int
	lo, hi int // local rank block [lo, hi)
	ranks  []rankState

	rmu     sync.Mutex
	results map[uint64]*resultEntry

	doneOnce sync.Once
	doneCh   chan struct{}
	result   pcomm.Result

	connMu sync.Mutex
	conns  map[io.Closer]struct{}

	completed atomic.Bool
}

func newWorld(n *Node, gen uint64, p int) *World {
	lo, hi := rankRange(p, n.n, n.self)
	w := &World{
		node:    n,
		gen:     gen,
		p:       p,
		lo:      lo,
		hi:      hi,
		ranks:   make([]rankState, hi-lo),
		results: make(map[uint64]*resultEntry),
		doneCh:  make(chan struct{}),
		conns:   make(map[io.Closer]struct{}),
	}
	for i := range w.ranks {
		w.ranks[i].w = w
		w.ranks[i].bell.Init()
		w.ranks[i].conns = make(map[int]net.Conn)
	}
	w.World = engine.New(w, nil, "netcomm", p, lo, hi)
	return w
}

// Proc is the handle Run gives a locally hosted rank: the engine's, plus
// the one capability only a socket transport has.
type Proc struct {
	*engine.Proc
	w *World
}

// Run executes f on this process's block of ranks and rendezvouses with
// the rest of the group; it returns the same Result on every process.
func (w *World) Run(f func(pcomm.Comm)) pcomm.Result {
	return w.World.Run(func(c pcomm.Comm) { f(&Proc{c.(*engine.Proc), w}) })
}

// Abort implements engine.Transport: a failure that originated here is
// broadcast to the group (one that arrived as a RemoteAbort already has
// been), and either way every live connection is severed so no rank
// stays blocked in socket I/O.
func (w *World) Abort(rank int, cause any) {
	if _, remote := cause.(*RemoteAbort); !remote {
		w.node.sendAbort(abortMsg{gen: w.gen, rank: rank, msg: fmt.Sprint(cause)})
	}
	w.ringAll()
	w.closeConns()
}

// poison records a remotely originated failure (abort broadcast, node
// death) — unless the coordinator has already declared the run done:
// every rank has finished then, and a peer process that exits before
// this one has retired the world is not a failure of the run.
func (w *World) poison(a abortMsg) {
	select {
	case <-w.doneCh:
	default:
		w.Fail(-1, &RemoteAbort{Rank: a.rank, Msg: a.msg}, "")
	}
}

// trackConn registers a connection for teardown; if the world already
// failed the connection is severed immediately.
func (w *World) trackConn(c io.Closer) {
	w.connMu.Lock()
	w.conns[c] = struct{}{}
	w.connMu.Unlock()
	select {
	case <-w.Failed():
		if err := c.Close(); err != nil {
			_ = err // the world is failing; this close only wakes blocked I/O
		}
	default:
	}
}

func (w *World) untrackConn(c io.Closer) {
	w.connMu.Lock()
	delete(w.conns, c)
	w.connMu.Unlock()
}

// closeConns severs every live connection of this world, waking any
// rank blocked in socket I/O.
func (w *World) closeConns() {
	w.connMu.Lock()
	conns := make([]io.Closer, 0, len(w.conns))
	for c := range w.conns {
		conns = append(conns, c)
	}
	w.connMu.Unlock()
	for _, c := range conns {
		if err := c.Close(); err != nil {
			continue // already closed; teardown is idempotent
		}
	}
}

// startReader adopts a handshaken inbound data connection and pumps its
// frames into the (src, dst) mailbox. A clean EOF at a frame boundary is
// a benign half-close — the sender may redial (fault injection cuts
// connections exactly this way) — while a torn frame or decode error
// fails the run.
func (w *World) startReader(c net.Conn, src, dst int) {
	if dst < w.lo || dst >= w.hi || src < 0 || src >= w.p {
		w.Fail(-1, fmt.Errorf("netcomm: SPMD violation: inbound data connection for rank %d→%d, this process hosts [%d,%d) of P=%d",
			src, dst, w.lo, w.hi, w.p), "")
		if err := c.Close(); err != nil {
			_ = err // the run is failing; nothing more to learn from this close
		}
		return
	}
	w.trackConn(c)
	go func() {
		defer w.untrackConn(c)
		for {
			typ, body, err := readFrame(c, maxFrameLen)
			if err != nil {
				if err == io.EOF || w.completed.Load() {
					if cerr := c.Close(); cerr != nil {
						_ = cerr // half-closed by the peer; local close is best-effort
					}
					return
				}
				w.Fail(-1, fmt.Errorf("netcomm: data connection rank %d→%d: %w", src, dst, err), "")
				return
			}
			if typ != fData {
				w.Fail(-1, fmt.Errorf("netcomm: unexpected frame type %d on data connection rank %d→%d", typ, src, dst), "")
				return
			}
			tag, pay, err := decodeDataFrame(body)
			if err != nil {
				w.Fail(-1, err, "")
				return
			}
			m, err := decodeMessage(tag, pay)
			if err != nil {
				w.Fail(-1, fmt.Errorf("netcomm: message rank %d→%d tag %d: %w", src, dst, tag, err), "")
				return
			}
			w.Deliver(src, dst, m)
		}
	}()
}

// postResult delivers a round-result broadcast to the local ranks.
func (w *World) postResult(r roundResult) {
	if w.hi == w.lo {
		return // no local ranks consume results on a zero-rank process
	}
	w.rmu.Lock()
	if _, dup := w.results[r.round]; !dup {
		w.results[r.round] = &resultEntry{r: r, readers: w.hi - w.lo}
	}
	w.rmu.Unlock()
	// Every local rank has deposited for this round, or it would not have
	// completed: whoever sleeps, sleeps for it.
	w.ringAll()
}

// Ready reports that the broadcast of the round the rank is in has
// arrived.
func (rs *rankState) Ready() bool {
	rs.w.rmu.Lock()
	_, ok := rs.w.results[rs.round]
	rs.w.rmu.Unlock()
	return ok
}

// ringAll wakes every local rank asleep in a collective.
func (w *World) ringAll() {
	for i := range w.ranks {
		w.ranks[i].bell.Ring()
	}
}

// awaitResult blocks rank p until its round's broadcast arrives.
func (w *World) awaitResult(p *engine.Proc, rs *rankState, op engine.Op) roundResult {
	p.Wait(engine.Waiting(op, rs.round), &rs.bell, rs)
	w.rmu.Lock()
	defer w.rmu.Unlock()
	e := w.results[rs.round]
	e.readers--
	if e.readers <= 0 {
		delete(w.results, rs.round)
	}
	return e.r
}

// postDone installs the coordinator's run Result exactly once.
func (w *World) postDone(res pcomm.Result) {
	w.doneOnce.Do(func() {
		w.result = res
		close(w.doneCh)
	})
}

// Finish implements engine.Transport. Each local rank's final act is to
// contribute its statistics to the reserved stats round (bookkeeping, not
// part of the program, so Collectives does not count it); the coordinator
// answers with the assembled Result, awaited here still under the
// watchdog. A failed run skips the round — completing it would let the
// coordinator tell the other processes the run succeeded. Then the
// world's transport state is retired.
func (w *World) Finish(local []pcomm.Stats) pcomm.Result {
	select {
	case <-w.Failed():
	default:
		w.depositStats(local)
	}
	select {
	case <-w.doneCh:
	case <-w.Failed():
	}
	w.completed.Store(true)
	w.closeConns()
	w.node.finishWorld(w.gen)
	return w.result
}

func (w *World) depositStats(local []pcomm.Stats) {
	for i, st := range local {
		err := w.node.deposit(deposit{gen: w.gen, round: w.ranks[i].round + 1, rank: w.lo + i, p: w.p, op: opStats, pay: statsPayload(st)})
		if err != nil {
			w.Fail(-1, fmt.Errorf("netcomm: depositing the run statistics of rank %d: %w", w.lo+i, err), "")
			return
		}
	}
}

// DumpFrame implements engine.Transport: only the local ranks' blocked
// states are in reach, which the report says explicitly.
func (w *World) DumpFrame() (head, tail string) {
	head = fmt.Sprintf("P=%d ranks; process %d of %d hosts ranks [%d,%d):", w.p, w.node.self, w.node.n, w.lo, w.hi)
	if w.node.n > 1 {
		tail = fmt.Sprintf("\n  (ranks on the other %d processes are not visible from here)", w.node.n-1)
	}
	return head, tail
}

// Ship implements engine.Transport: the message goes out as a data frame
// on the rank's connection to dst's process (a raw slice as its element
// bytes). A boxed payload other than nil, int or float64 fails the run.
func (w *World) Ship(p *engine.Proc, dst int, m engine.Message) {
	var pay payload
	if m.IsRaw {
		pay = encodeRawPayload(m.Raw)
	} else {
		var err error
		pay, err = encodePayload(m.Payload)
		if err != nil {
			panic(err)
		}
	}
	c, err := w.dataConn(p.ID(), dst)
	if err == nil {
		err = writeFrame(c, fData, (&dataMsg{m.Tag, pay}).code)
		if err != nil {
			// The connection died under us (peer gone, or a fault cut it).
			// Drop it so a retry would redial, then unwind.
			if cerr := w.dropConn(p.ID(), dst, c); cerr != nil {
				_ = cerr // already severed; the write error is the diagnosis
			}
		}
	}
	if err != nil {
		w.CheckFailed()
		panic(fmt.Errorf("netcomm: sending rank %d→%d: %w", p.ID(), dst, err))
	}
}

// dataConn returns rank src's outbound connection to dst's process,
// dialing and handshaking on first use (and again after a drop).
func (w *World) dataConn(src, dst int) (net.Conn, error) {
	conns := w.ranks[src-w.lo].conns
	if c, ok := conns[dst]; ok {
		return c, nil
	}
	addr := w.node.peers[rankProc(w.p, w.node.n, dst)]
	c, err := net.DialTimeout(network(addr), addr, handshakeTimeout)
	if err != nil {
		return nil, fmt.Errorf("netcomm: dialing %s for rank %d→%d: %w", addr, src, dst, err)
	}
	if err := handshake(c, hello{kind: connData, gen: w.gen, a: uint32(src), b: uint32(dst), c: uint32(w.p)}); err != nil {
		if cerr := c.Close(); cerr != nil {
			_ = cerr // the handshake error is the diagnosis
		}
		return nil, fmt.Errorf("netcomm: data handshake rank %d→%d: %w", src, dst, err)
	}
	w.trackConn(c)
	conns[dst] = c
	return c, nil
}

// dropConn forgets and closes rank src's connection toward dst, so the
// next send redials.
func (w *World) dropConn(src, dst int, c net.Conn) error {
	delete(w.ranks[src-w.lo].conns, dst)
	w.untrackConn(c)
	return c.Close()
}

// DropTransport implements pcomm.TransportDropper for the fault layer:
// it severs this rank's live connection toward dst once and describes
// the transport it cut. The next send redials — the reconnect path —
// while the message the fault swallowed stays lost, so the receiver
// either deadlocks into the watchdog or the run fails loudly.
func (p *Proc) DropTransport(dst int) string {
	w := p.w
	if dst < 0 || dst >= w.p {
		return fmt.Sprintf("netcomm: no transport toward invalid rank %d", dst)
	}
	if dst >= w.lo && dst < w.hi {
		return fmt.Sprintf("in-process mailbox rank %d→%d (co-located, no socket to cut)", p.ID(), dst)
	}
	c, err := w.dataConn(p.ID(), dst)
	if err != nil {
		return fmt.Sprintf("netcomm connection rank %d→%d (dial failed while arming the drop: %v)", p.ID(), dst, err)
	}
	desc := fmt.Sprintf("netcomm %s connection %s→%s (rank %d→%d), severed once",
		c.LocalAddr().Network(), c.LocalAddr(), c.RemoteAddr(), p.ID(), dst)
	if cerr := w.dropConn(p.ID(), dst, c); cerr != nil {
		desc += fmt.Sprintf(" (close: %v)", cerr)
	}
	return desc
}

// gather is the rendezvous underlying every collective: deposit pay, await
// the coordinator's rank-ordered broadcast, decode it into a fresh slice
// (beside the socket traffic, scratch reuse would buy nothing). The
// engine folds it in rank order, so the network changes nothing bitwise.
func gather[T any](w *World, p *engine.Proc, op engine.Op, pay payload, decode func(payload) (T, error)) []T {
	rs := &w.ranks[p.ID()-w.lo]
	rs.round++
	if err := w.node.deposit(deposit{gen: w.gen, round: rs.round, rank: p.ID(), p: w.p, op: op.String(), pay: pay}); err != nil {
		w.CheckFailed()
		panic(fmt.Errorf("netcomm: depositing into collective %q: %w", op, err))
	}
	r := w.awaitResult(p, rs, op)
	if r.op != op.String() {
		panic(fmt.Sprintf("netcomm: collective mismatch: %q vs %q", r.op, op))
	}
	if len(r.pays) != w.p {
		panic(fmt.Sprintf("netcomm: collective %q result carries %d contributions, want %d", op, len(r.pays), w.p))
	}
	out := make([]T, w.p)
	for i := range out {
		var err error
		if out[i], err = decode(r.pays[i]); err != nil {
			panic(fmt.Errorf("netcomm: decoding collective %q contribution of rank %d: %w", op, i, err))
		}
	}
	return out
}

// GatherFloat64 implements engine.Transport.
func (w *World) GatherFloat64(p *engine.Proc, v float64) []float64 {
	return gather(w, p, engine.OpAllReduceF64, floatPayload(v), decodeFloat)
}

// GatherInt implements engine.Transport.
func (w *World) GatherInt(p *engine.Proc, v int) []int {
	return gather(w, p, engine.OpAllReduceInt, intPayload(v), decodeInt)
}

// Gather implements engine.Transport: every contribution travels as a raw
// payload, a barrier's as an empty one.
func (w *World) Gather(p *engine.Proc, op engine.Op, h pcomm.RawSlice) []pcomm.RawSlice {
	return gather(w, p, op, encodeRawPayload(h), decodeRaw)
}

var _ pcomm.TransportDropper = (*Proc)(nil)
var _ pcomm.World = (*World)(nil)
