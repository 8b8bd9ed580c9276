package netcomm

import (
	"errors"
	"fmt"
	"io/fs"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"repro/internal/pcomm"
)

// BackendEnvVar is the environment variable spawn mode rewrites in its
// children so they join the parent's process group instead of spawning
// their own. It must equal backend.EnvVar (the backend package imports
// netcomm, so the constant is declared here and cross-checked by a test
// there).
const BackendEnvVar = "PILUT_BACKEND"

const (
	// rendezvousTimeout bounds node creation: every process must check in
	// with the coordinator within it.
	rendezvousTimeout = 60 * time.Second
	// dialRetryInterval paces control-connection dial attempts while the
	// coordinator's listener is still coming up.
	dialRetryInterval = 50 * time.Millisecond
	// handshakeTimeout bounds one hello/ack exchange on an established
	// connection.
	handshakeTimeout = 10 * time.Second
)

// Node is one process's membership in a netcomm process group: the
// listener, the control connection to the coordinator (or the
// coordinator state on process 0), and the registry of live worlds.
// A Node persists across worlds — each World.Run is one generation on
// the shared transport — mirroring how a daemon keeps its sockets across
// requests.
type Node struct {
	spec  *Spec
	n     int
	self  int
	peers []string // resolved listen addresses, index = process
	ln    net.Listener

	coord  *coordinator // process 0 only
	ctlOut *ctlConn     // processes > 0: connection to the coordinator

	mu       sync.Mutex
	gen      uint64
	worlds   map[uint64]*World
	doneGens map[uint64]bool
	// Frames and connections for generations this process has not created
	// yet (a peer raced ahead); drained into the world when it appears.
	pendingResults map[uint64][]roundResult
	pendingAborts  map[uint64][]abortMsg
	pendingDones   map[uint64]*pcomm.Result
	pendingConns   map[uint64][]pendingData
	closed         bool
	failure        error // node-wide failure: a peer process died
}

type pendingData struct {
	conn net.Conn
	h    hello
}

// ctlConn serializes writes on one control connection.
type ctlConn struct {
	mu sync.Mutex
	c  net.Conn
}

// send writes what encodeFrame returned: a broadcast encodes its frame
// once for every connection it goes to.
func (c *ctlConn) send(frame []byte, err error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return write(c.c, frame, err)
}

// registry caches one Node per spec text, so repeated WorldFor calls
// (one per test, one per run) share the rendezvoused process group.
var (
	registryMu sync.Mutex
	registry   = map[string]*Node{}
)

// WorldFor returns a fresh single-use world of p ranks on the process
// group selected by the spec, creating and rendezvousing the group on
// first use. This is the backend registry's entry point.
func WorldFor(kind string, p int) (pcomm.World, error) {
	spec, err := ParseSpec(kind)
	if err != nil {
		return nil, err
	}
	registryMu.Lock()
	node, ok := registry[spec.Raw]
	if !ok {
		node, err = NewNode(spec)
		if err != nil {
			registryMu.Unlock()
			return nil, err
		}
		registry[spec.Raw] = node
	}
	registryMu.Unlock()
	return node.NewWorld(p)
}

// NewNode joins (or, in spawn mode, creates) the spec's process group:
// it binds the listen address, spawns children when asked, and completes
// the control rendezvous with the coordinator. It returns only once the
// whole group is connected, so a misconfigured peer list fails here —
// at startup — not at first send.
func NewNode(spec *Spec) (*Node, error) {
	node := &Node{
		spec:           spec,
		worlds:         make(map[uint64]*World),
		doneGens:       make(map[uint64]bool),
		pendingResults: make(map[uint64][]roundResult),
		pendingAborts:  make(map[uint64][]abortMsg),
		pendingDones:   make(map[uint64]*pcomm.Result),
		pendingConns:   make(map[uint64][]pendingData),
	}
	if spec.Spawn > 0 {
		peers, err := spawnPeers(spec)
		if err != nil {
			return nil, err
		}
		node.peers, node.self = peers, 0
	} else {
		node.peers, node.self = spec.Peers, spec.Self
	}
	node.n = len(node.peers)

	listen := node.peers[node.self]
	if network(listen) == "unix" {
		// A stale socket file from a dead process blocks the bind.
		if err := os.Remove(listen); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return nil, fmt.Errorf("netcomm: removing stale socket %s: %w", listen, err)
		}
	}
	ln, err := net.Listen(network(listen), listen)
	if err != nil {
		return nil, fmt.Errorf("netcomm: listen %s: %w", listen, err)
	}
	node.ln = ln
	if node.self == 0 {
		node.coord = newCoordinator(node)
	}
	go node.acceptLoop()

	if err := node.rendezvous(); err != nil {
		closeErr := ln.Close()
		_ = closeErr // the rendezvous error is the diagnosis; the listener is going away either way
		return nil, err
	}
	return node, nil
}

// NewWorld creates the next-generation world with p ranks. Every process
// in the group must create its worlds in the same order with the same p
// — the SPMD contract at program granularity — because the creation
// index is the generation number that keys all traffic.
func (n *Node) NewWorld(p int) (*World, error) {
	if p < 1 {
		return nil, fmt.Errorf("netcomm: need at least one rank, got %d", p)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, fmt.Errorf("netcomm: node is closed")
	}
	if n.failure != nil {
		return nil, fmt.Errorf("netcomm: process group is broken: %w", n.failure)
	}
	n.gen++
	w := newWorld(n, n.gen, p)
	n.worlds[n.gen] = w
	n.drainPendingLocked(w)
	return w, nil
}

// Close shuts the node down: the listener stops, control connections
// close, and active worlds fail. Registry-held nodes live for the
// process lifetime; Close exists for explicitly created nodes in tests.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	worlds := make([]*World, 0, len(n.worlds))
	for _, w := range n.worlds {
		worlds = append(worlds, w)
	}
	n.mu.Unlock()
	err := n.ln.Close()
	if n.ctlOut != nil {
		if cerr := n.ctlOut.c.Close(); err == nil {
			err = cerr
		}
	}
	if n.coord != nil {
		n.coord.closeConns()
	}
	for _, w := range worlds {
		w.poison(abortMsg{gen: w.gen, rank: -1, msg: "node closed"})
	}
	return err
}

// Addr returns the node's bound listen address.
func (n *Node) Addr() net.Addr { return n.ln.Addr() }

// fail poisons the node: active worlds abort and future NewWorld calls
// return the failure. Used when a peer process dies (its control
// connection dropped) — the group cannot form another world.
func (n *Node) fail(err error) {
	n.mu.Lock()
	if n.failure == nil {
		n.failure = err
	}
	worlds := make([]*World, 0, len(n.worlds))
	for _, w := range n.worlds {
		worlds = append(worlds, w)
	}
	n.mu.Unlock()
	for _, w := range worlds {
		w.poison(abortMsg{gen: w.gen, rank: -1, msg: err.Error()})
	}
}

// rendezvous completes the group handshake: the coordinator waits for
// every peer's control connection; everyone else dials the coordinator
// (with retries while its listener comes up).
func (n *Node) rendezvous() error {
	if n.self == 0 {
		return n.coord.awaitPeers(rendezvousTimeout)
	}
	deadline := time.Now().Add(rendezvousTimeout)
	addr := n.peers[0]
	var lastErr error
	for time.Now().Before(deadline) {
		c, err := net.DialTimeout(network(addr), addr, dialRetryInterval*4)
		if err != nil {
			lastErr = err
			time.Sleep(dialRetryInterval)
			continue
		}
		err = handshake(c, hello{kind: connControl, a: uint32(n.self), b: uint32(n.n)})
		if err != nil {
			lastErr = err
			if cerr := c.Close(); cerr != nil {
				lastErr = fmt.Errorf("%w (and closing: %v)", err, cerr)
			}
			// A rejected handshake (version mismatch, wrong group size) is
			// a configuration error retries cannot fix.
			return fmt.Errorf("netcomm: control handshake with coordinator %s: %w", addr, lastErr)
		}
		n.ctlOut = &ctlConn{c: c}
		go n.controlReadLoop(c)
		return nil
	}
	return fmt.Errorf("netcomm: rendezvous with coordinator %s timed out after %v: %w", addr, rendezvousTimeout, lastErr)
}

// handshake sends a hello and waits for the ack, bounded by
// handshakeTimeout.
func handshake(c net.Conn, h hello) error {
	if err := c.SetDeadline(time.Now().Add(handshakeTimeout)); err != nil {
		return err
	}
	if err := writeFrame(c, fHello, h.code); err != nil {
		return err
	}
	typ, body, err := readFrame(c, maxHandshakeLen)
	if err != nil {
		return fmt.Errorf("reading hello ack: %w", err)
	}
	if typ != fHelloAck {
		return fmt.Errorf("netcomm: expected hello ack, got frame type %d", typ)
	}
	if err := decodeAck(body); err != nil {
		return err
	}
	return c.SetDeadline(time.Time{})
}

// acceptLoop serves incoming connections for the node's lifetime.
func (n *Node) acceptLoop() {
	for {
		c, err := n.ln.Accept()
		if err != nil {
			return // listener closed with the node
		}
		go n.handleConn(c)
	}
}

// handleConn performs the server side of the handshake and routes the
// connection: control connections register with the coordinator, data
// connections attach to their world (parking until it exists).
func (n *Node) handleConn(c net.Conn) {
	reject := func(err error) {
		if werr := writeFrame(c, fHelloAck, (&helloAck{rejected: true, reason: err.Error()}).code); werr != nil {
			_ = werr //pilutlint:ok errdrop the peer is being rejected; its ack read failing too adds nothing
		}
		if cerr := c.Close(); cerr != nil {
			_ = cerr //pilutlint:ok errdrop close-on-reject; the connection is already being abandoned
		}
	}
	if err := c.SetDeadline(time.Now().Add(handshakeTimeout)); err != nil {
		reject(err)
		return
	}
	typ, body, err := readFrame(c, maxHandshakeLen)
	if err != nil || typ != fHello {
		reject(fmt.Errorf("netcomm: expected hello frame: %v", err))
		return
	}
	h, err := decodeHello(body)
	if err != nil {
		reject(err)
		return
	}
	switch h.kind {
	case connControl:
		if n.self != 0 {
			reject(fmt.Errorf("netcomm: process %d is not the coordinator", n.self))
			return
		}
		if int(h.b) != n.n {
			reject(fmt.Errorf("netcomm: peer believes the group has %d processes, this node has %d", h.b, n.n))
			return
		}
		if h.a == 0 || int(h.a) >= n.n {
			reject(fmt.Errorf("netcomm: control hello from invalid process index %d", h.a))
			return
		}
		if err := writeFrame(c, fHelloAck, (&helloAck{}).code); err != nil {
			reject(err)
			return
		}
		if err := c.SetDeadline(time.Time{}); err != nil {
			reject(err)
			return
		}
		n.coord.register(int(h.a), c)
	case connData:
		p, src, dst := int(h.c), int(h.a), int(h.b)
		if p < 1 || src < 0 || src >= p || dst < 0 || dst >= p {
			reject(fmt.Errorf("netcomm: data hello with rank %d→%d outside P=%d", src, dst, p))
			return
		}
		if rankProc(p, n.n, dst) != n.self {
			reject(fmt.Errorf("netcomm: rank %d is not hosted on process %d", dst, n.self))
			return
		}
		if err := writeFrame(c, fHelloAck, (&helloAck{}).code); err != nil {
			reject(err)
			return
		}
		if err := c.SetDeadline(time.Time{}); err != nil {
			reject(err)
			return
		}
		n.attachData(c, h)
	default:
		reject(fmt.Errorf("netcomm: unknown connection kind %d", h.kind))
	}
}

// attachData hands a handshaken data connection to its world, parking it
// when the local program has not created that generation yet.
func (n *Node) attachData(c net.Conn, h hello) {
	n.mu.Lock()
	if n.doneGens[h.gen] || n.closed {
		n.mu.Unlock()
		if err := c.Close(); err != nil {
			_ = err //pilutlint:ok errdrop the world is finished; a late connection is simply turned away
		}
		return
	}
	w, ok := n.worlds[h.gen]
	if !ok {
		n.pendingConns[h.gen] = append(n.pendingConns[h.gen], pendingData{conn: c, h: h})
		n.mu.Unlock()
		return
	}
	n.mu.Unlock()
	w.startReader(c, int(h.a), int(h.b))
}

// controlReadLoop is the non-coordinator side of the control connection:
// it dispatches result, abort and done broadcasts. Its EOF means the
// coordinator process died, which breaks the whole group.
func (n *Node) controlReadLoop(c net.Conn) {
	for {
		typ, body, err := readFrame(c, maxFrameLen)
		if err != nil {
			n.mu.Lock()
			closed := n.closed
			n.mu.Unlock()
			if !closed {
				n.fail(fmt.Errorf("netcomm: lost control connection to coordinator %s: %v", n.peers[0], err))
			}
			return
		}
		n.dispatchControl(typ, body)
	}
}

// dispatchControl routes one coordinator broadcast. Malformed frames
// break the group: the control stream is the spine everything else
// hangs off.
func (n *Node) dispatchControl(typ byte, body []byte) {
	switch typ {
	case fResult:
		r, err := decodeResultFrame(body)
		if err != nil {
			n.fail(err)
			return
		}
		n.handleResult(r)
	case fAbort:
		a, err := decodeAbortFrame(body)
		if err != nil {
			n.fail(err)
			return
		}
		n.handleAbort(a)
	case fDone:
		gen, res, err := decodeDoneFrame(body)
		if err != nil {
			n.fail(err)
			return
		}
		n.handleDone(gen, res)
	default:
		n.fail(fmt.Errorf("netcomm: unexpected control frame type %d", typ))
	}
}

func (n *Node) handleResult(r roundResult) {
	n.mu.Lock()
	w, ok := n.worlds[r.gen]
	if !ok {
		if !n.doneGens[r.gen] {
			n.pendingResults[r.gen] = append(n.pendingResults[r.gen], r)
		}
		n.mu.Unlock()
		return
	}
	n.mu.Unlock()
	w.postResult(r)
}

func (n *Node) handleAbort(a abortMsg) {
	n.mu.Lock()
	w, ok := n.worlds[a.gen]
	if !ok {
		if !n.doneGens[a.gen] {
			n.pendingAborts[a.gen] = append(n.pendingAborts[a.gen], a)
		}
		n.mu.Unlock()
		return
	}
	n.mu.Unlock()
	w.poison(a)
}

func (n *Node) handleDone(gen uint64, res pcomm.Result) {
	n.mu.Lock()
	w, ok := n.worlds[gen]
	if !ok {
		if !n.doneGens[gen] {
			r := res
			n.pendingDones[gen] = &r
		}
		n.mu.Unlock()
		return
	}
	n.mu.Unlock()
	w.postDone(res)
}

// drainPendingLocked replays frames that arrived before the world was
// created. Caller holds n.mu.
func (n *Node) drainPendingLocked(w *World) {
	gen := w.gen
	results := n.pendingResults[gen]
	aborts := n.pendingAborts[gen]
	done := n.pendingDones[gen]
	conns := n.pendingConns[gen]
	delete(n.pendingResults, gen)
	delete(n.pendingAborts, gen)
	delete(n.pendingDones, gen)
	delete(n.pendingConns, gen)
	if len(results) == 0 && len(aborts) == 0 && done == nil && len(conns) == 0 {
		return
	}
	go func() {
		for _, c := range conns {
			w.startReader(c.conn, int(c.h.a), int(c.h.b))
		}
		for _, r := range results {
			w.postResult(r)
		}
		for _, a := range aborts {
			w.poison(a)
		}
		if done != nil {
			w.postDone(*done)
		}
	}()
}

// finishWorld retires a completed (or failed) generation: late frames
// for it are dropped instead of parked forever.
func (n *Node) finishWorld(gen uint64) {
	n.mu.Lock()
	delete(n.worlds, gen)
	n.doneGens[gen] = true
	delete(n.pendingResults, gen)
	delete(n.pendingAborts, gen)
	delete(n.pendingDones, gen)
	conns := n.pendingConns[gen]
	delete(n.pendingConns, gen)
	n.mu.Unlock()
	for _, c := range conns {
		if err := c.conn.Close(); err != nil {
			_ = err //pilutlint:ok errdrop late data connection for a finished world; nothing to diagnose
		}
	}
}

// deposit forwards one collective contribution to the coordinator —
// locally on process 0, over the control connection elsewhere.
func (n *Node) deposit(d deposit) error {
	if n.coord != nil {
		n.coord.deposit(d)
		return nil
	}
	return n.ctlOut.send(encodeFrame(fDeposit, d.code))
}

// sendAbort tells the coordinator (and through it, everyone) that gen
// failed here.
func (n *Node) sendAbort(a abortMsg) {
	if n.coord != nil {
		n.coord.abortGen(a)
		return
	}
	if err := n.ctlOut.send(encodeFrame(fAbort, a.code)); err != nil {
		// The control link is gone; the coordinator will observe the EOF
		// and broadcast the group failure itself.
		_ = err //pilutlint:ok errdrop abort-path write failure is superseded by the coordinator's own EOF detection
	}
}

// spawnPeers implements spawn mode: reserve N unix socket paths in a
// fresh temp directory, re-execute this binary N−1 times with an
// explicit spec pointing each child at its socket, and return the peer
// list with this process as the coordinator. Children are killed by the
// kernel if the parent dies (PDEATHSIG), and reaped as they exit.
func spawnPeers(spec *Spec) ([]string, error) {
	dir, err := os.MkdirTemp("", "netcomm-")
	if err != nil {
		return nil, fmt.Errorf("netcomm: spawn temp dir: %w", err)
	}
	peers := make([]string, spec.Spawn)
	for i := range peers {
		peers[i] = filepath.Join(dir, fmt.Sprintf("p%d.sock", i))
	}
	peerList := ""
	for i, p := range peers {
		if i > 0 {
			peerList += ","
		}
		peerList += p
	}
	for i := 1; i < spec.Spawn; i++ {
		childSpec := fmt.Sprintf("%s:%s;%s", Kind, peers[i], peerList)
		cmd := exec.Command(os.Args[0], os.Args[1:]...)
		cmd.Env = append(envWithout(BackendEnvVar), BackendEnvVar+"="+childSpec)
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := cmd.Start(); err != nil {
			return nil, fmt.Errorf("netcomm: spawning process %d: %w", i, err)
		}
		go func() {
			if err := cmd.Wait(); err != nil {
				_ = err //pilutlint:ok errdrop reaping only; a child's exit status is its own test output
			}
		}()
	}
	return peers, nil
}

// envWithout copies the environment minus the named variable.
func envWithout(name string) []string {
	env := os.Environ()
	out := make([]string, 0, len(env))
	prefix := name + "="
	for _, kv := range env {
		if len(kv) >= len(prefix) && kv[:len(prefix)] == prefix {
			continue
		}
		out = append(out, kv)
	}
	return out
}
