//go:build !race

package engine_test

import (
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/pcomm"
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
// ranks of a netcomm world. AllocsPerRun cannot see across goroutines, so
// the guard reads the global malloc counter around a quiesced measurement
// window instead; the generous budget absorbs the barrier generations
// that delimit the window and incidental runtime housekeeping, while a
// real per-message regression would show up as thousands. Excluded under
// the race detector, whose instrumentation allocates.
func TestMailboxSteadyStateAllocs(t *testing.T) {
	const (
		tag    = 4242
		msgLen = 64
		warm   = 300
		meas   = 2000
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
	for _, row := range []struct {
		name   string
		w      pcomm.World
		budget uint64
	}{
		{"realcomm", realcomm.New(2), budget},
		{"netcomm", netWorld, budget + coordBarriers},
	} {
		var delta uint64
		row.w.Run(func(c pcomm.Comm) {
			dst := make([]float64, msgLen)
			round := func(peer int, sendFirst bool) {
				send := func() {
					buf := pcomm.Floats.Get(msgLen)
					for k := range buf {
						buf[k] = float64(k)
					}
					pcomm.SendSlice(c, peer, tag, buf)
				}
				recv := func() {
					msg := pcomm.RecvSlice[float64](c, peer, tag)
					if copy(dst, msg) != msgLen {
						panic("short ghost message in alloc guard")
					}
					pcomm.Floats.Put(msg)
				}
				if sendFirst {
					send()
					recv()
				} else {
					recv()
					send()
				}
			}
			peer := 1 - c.ID()
			for i := 0; i < warm; i++ {
				round(peer, c.ID() == 0)
			}
			c.Barrier()
			var m1, m2 runtime.MemStats
			if c.ID() == 0 {
				pcommtest.QuiesceAllocs()
				runtime.ReadMemStats(&m1)
			}
			c.Barrier()
			for i := 0; i < meas; i++ {
				round(peer, c.ID() == 0)
			}
			c.Barrier()
			if c.ID() == 0 {
				runtime.ReadMemStats(&m2)
				delta = m2.Mallocs - m1.Mallocs
			}
			c.Barrier()
		})
		t.Logf("%s: mallocs over %d ping-pong rounds: %d (budget %d)", row.name, meas, delta, row.budget)
		if delta > row.budget {
			t.Errorf("%s: mailbox fast path allocated %d objects over %d rounds, budget %d", row.name, delta, meas, row.budget)
		}
	}
}
