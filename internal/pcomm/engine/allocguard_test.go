//go:build !race

package engine_test

import (
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/pcomm"
	"repro/internal/pcomm/engine"
	"repro/internal/pcomm/netcomm"
	"repro/internal/pcomm/pcommtest"
	"repro/internal/pcomm/realcomm"
)

// Alloc-regression guard for the mailbox fast path (ISSUE 8): a steady-
// state SendSlice/RecvSlice ping-pong under the ownership-transfer
// protocol must not touch the allocator — the raw path boxes nothing,
// blocking receives select on pre-existing channels, and the transport
// buffers circulate through pcomm.Floats. The path belongs to the engine,
// so it must hold under both transports: realcomm, and two co-located
// ranks of a netcomm world. So must the spill path, which a mailbox only
// a few messages deep takes whenever a sender is that far ahead: the
// "spill" row sends each round a burst deeper than the mailbox before
// the peer receives anything, so every burst overflows into a pooled
// buffer. AllocsPerRun cannot see across goroutines, so the guard reads
// the global malloc counter around a quiesced measurement window
// instead; the generous budget absorbs the barrier generations that
// delimit the window and incidental runtime housekeeping, while a real
// per-message regression would show up as thousands. Excluded under the
// race detector, whose instrumentation allocates.
func TestMailboxSteadyStateAllocs(t *testing.T) {
	const (
		tag    = 4242
		msgLen = 64
		budget = 100
		// netcomm's two window barriers each cross the coordinator: gob
		// payloads, deposit and result records, a wait channel per round.
		coordBarriers = 100
	)
	sock := filepath.Join(t.TempDir(), "alloc.sock")
	node, err := netcomm.NewNode(&netcomm.Spec{Raw: "allocguard:" + sock, Listen: sock, Peers: []string{sock}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := node.Close(); err != nil {
			t.Logf("closing node: %v", err)
		}
	})
	netWorld, err := node.NewWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([][]float64, 2)
	send := func(c pcomm.Comm, peer int) {
		buf := pcomm.Floats.Get(msgLen)
		for k := range buf {
			buf[k] = float64(k)
		}
		pcomm.SendSlice(c, peer, tag, buf)
	}
	recv := func(c pcomm.Comm, peer int) {
		msg := pcomm.RecvSlice[float64](c, peer, tag)
		if copy(dst[c.ID()], msg) != msgLen {
			panic("short ghost message in alloc guard")
		}
		pcomm.Floats.Put(msg)
	}
	pingPong := func(c pcomm.Comm, peer int) {
		if c.ID() == 0 {
			send(c, peer)
			recv(c, peer)
		} else {
			recv(c, peer)
			send(c, peer)
		}
	}
	burst := engine.MailboxCap + 4
	spill := func(c pcomm.Comm, peer int) {
		for i := 0; i < burst; i++ {
			send(c, peer)
		}
		c.Barrier() // the peer has sent its whole burst, and received nothing
		for i := 0; i < burst; i++ {
			recv(c, peer)
		}
	}
	for _, row := range []struct {
		name       string
		w          pcomm.World
		round      func(c pcomm.Comm, peer int)
		warm, meas int
		budget     uint64
	}{
		{"realcomm", realcomm.New(2), pingPong, 300, 2000, budget},
		{"netcomm", netWorld, pingPong, 300, 2000, budget + coordBarriers},
		{"spill", realcomm.New(2), spill, 50, 200, budget},
	} {
		var delta uint64
		row.w.Run(func(c pcomm.Comm) {
			dst[c.ID()] = make([]float64, msgLen)
			peer := 1 - c.ID()
			for i := 0; i < row.warm; i++ {
				row.round(c, peer)
			}
			c.Barrier()
			var m1, m2 runtime.MemStats
			if c.ID() == 0 {
				pcommtest.QuiesceAllocs()
				runtime.ReadMemStats(&m1)
			}
			c.Barrier()
			for i := 0; i < row.meas; i++ {
				row.round(c, peer)
			}
			c.Barrier()
			if c.ID() == 0 {
				runtime.ReadMemStats(&m2)
				delta = m2.Mallocs - m1.Mallocs
			}
			c.Barrier()
		})
		t.Logf("%s: mallocs over %d rounds: %d (budget %d)", row.name, row.meas, delta, row.budget)
		if delta > row.budget {
			t.Errorf("%s: mailbox path allocated %d objects over %d rounds, budget %d", row.name, delta, row.meas, row.budget)
		}
	}
}
