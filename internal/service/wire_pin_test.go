package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/fault"
	"repro/internal/matgen"
	"repro/internal/sparse"
)

// TestPeerBodyBytesPinned pins the peer wire's bytes: the sha-256 of the
// factor body and of the matrix body for a fixed zoo matrix at p ∈ {1, 4}
// and for a block-Jacobi entry. A daemon reads only its own wireVersion,
// so any change of these bytes must come with a new version; while they
// hold, daemons of either side of a change still share factors. The wall
// clock fields (FactorSeconds, each piece's phase seconds) are zeroed
// before hashing: they are the only fields not determined by the matrix
// and the configuration.
func TestPeerBodyBytesPinned(t *testing.T) {
	cases := []struct {
		name   string
		a      *sparse.CSR
		procs  int
		faults string
		factor string // sha-256 of the factor body
		matrix string // sha-256 of the matrix body
	}{
		{"grid2d/p1", matgen.Grid2D(12, 12), 1, "",
			"5335e6f98526ad54bbe8d5ec7488ab63e4d04e29be756efb11d3d293c4cb4434", "6c812666cd01fd4527df412e12a7273e6942ba89fec4253e34011557fa488406"},
		{"grid2d/p4", matgen.Grid2D(12, 12), 4, "",
			"c577731a4fe73f0422dab517474deb2085fa4f8d7433f0b4e40179424c7fab6b", "6c812666cd01fd4527df412e12a7273e6942ba89fec4253e34011557fa488406"},
		{"blockjacobi/p4", matgen.Grid2D(16, 16), 4, "seed=3,pivot=1e-320",
			"4aeeed108061dd2c34c5e3bf6e0f779e34c62b4414a68215efc40ab0408c2cb1", "0ed99752a57fb71b0d8cbc49c6dc0f9965b9332a950402c8c90b114bd4049eb9"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Procs: tc.procs, Workers: 1, Backend: "real"}
			if tc.faults != "" {
				spec, err := fault.Parse(tc.faults)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Faults = spec
			}
			srv := New(cfg)
			defer srv.Shutdown(context.Background())
			key, _, err := srv.Submit(tc.a)
			if err != nil {
				t.Fatal(err)
			}
			ent, _, err := srv.entryForLocal(key, tc.a)
			if err != nil {
				t.Fatal(err)
			}
			if want := tc.faults != ""; ent.degraded != want || want && ent.ladderStep != "blockjacobi" {
				t.Fatalf("entry degraded=%v step=%q", ent.degraded, ent.ladderStep)
			}
			data, err := encodeEntry(ent, srv.cfg)
			if err != nil {
				t.Fatal(err)
			}
			wf := mustDecodeFactor(t, data)
			wf.FactorSeconds = 0
			for q := range wf.Pieces {
				st := &wf.Pieces[q].Stats
				st.Phase1InteriorSeconds, st.Phase1InterfaceSeconds, st.Phase2Seconds = 0, 0, 0
			}
			sum := func(b []byte) string { h := sha256.Sum256(b); return hex.EncodeToString(h[:]) }
			if got := sum(mustEncodeFactor(t, wf)); got != tc.factor {
				t.Errorf("factor body sha-256 = %s, want %s", got, tc.factor)
			}
			if got := sum(mustEncodeMatrix(t, tc.a)); got != tc.matrix {
				t.Errorf("matrix body sha-256 = %s, want %s", got, tc.matrix)
			}
		})
	}
}
