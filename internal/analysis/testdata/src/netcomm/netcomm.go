// Package netcomm exercises the errdrop analyzer's stricter in-transport
// boundary: inside a package whose import path ends in /netcomm, dropped
// errors from the layers the transport is built on (net, io, bufio,
// os/exec, the wire codec) and from the package's own helpers fail
// lint — a dropped dial/accept/frame error is a rank that blocks forever
// instead of a *RunError naming the broken link. Close is excepted:
// teardown paths drop Close errors deliberately.
package netcomm

import (
	"io"
	"net"

	"repro/internal/codec"
)

// writeFrame is a module-local transport helper; its dropped errors are
// boundary violations like the stdlib's.
func writeFrame(w io.Writer, body []byte) error {
	_, err := w.Write(body)
	return err
}

func badDial(addr string) {
	net.Dial("tcp", addr) // want `error result of net.Dial discarded .call used as a statement.`

	c, _ := net.Dial("tcp", addr) // want `error result of net.Dial assigned to _`
	_ = c
}

func badFrame(w io.Writer, body []byte) {
	w.Write(body) // want `error result of io.Writer.Write discarded .call used as a statement.`

	writeFrame(w, body) // want `error result of netcomm.writeFrame discarded .call used as a statement.`

	codec.Frame(1<<20, func(c *codec.Coder) { c.Bytes(body) }) // want `error result of codec.Frame discarded .call used as a statement.`

	go writeFrame(w, body) // want `error result of netcomm.writeFrame discarded .go statement.`
}

func closeIsDeliberate(c net.Conn, ln net.Listener) {
	// Teardown: the interesting error already happened upstream.
	c.Close()
	defer ln.Close()
}

func good(addr string, body []byte) error {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer c.Close()
	if err := writeFrame(c, body); err != nil {
		return err
	}
	return nil
}

func waived(w io.Writer, body []byte) {
	writeFrame(w, body) //pilutlint:ok errdrop best-effort wakeup; the reader notices the dead conn itself
}
