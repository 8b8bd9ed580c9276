package service

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/matgen"
	"repro/internal/sparse"
)

// TestLadderRungsPassCheckExchange: every recovery-ladder rung — the
// shifted plan, the relaxed parameters and the block-diagonal plan —
// produces pieces that fit together as the solves' exchange plan needs
// them to, on the zoo at p ∈ {1, 2, 4, 8}: what an importer would check
// of them holds of them where they are built.
func TestLadderRungsPassCheckExchange(t *testing.T) {
	for _, p := range []int{1, 2, 4, 8} {
		srv := New(Config{Procs: p, Workers: 1, Backend: "real"})
		defer srv.Shutdown(context.Background())
		for name, a := range oracleZoo() {
			key := sparse.Fingerprint(a)
			an, err := srv.analysisFor(key, a)
			if err != nil {
				t.Fatal(err)
			}
			for _, step := range ladderRungs[1:] {
				t.Run(fmt.Sprintf("%s/p%d/%s", name, p, step), func(t *testing.T) {
					ent, err := srv.buildRung(key, an, step)
					if err != nil {
						t.Fatal(err)
					}
					if err := core.CheckExchange(ent.pcs); err != nil {
						t.Errorf("CheckExchange rejects the rung's pieces: %v", err)
					}
				})
			}
		}
	}
}

// TestRungPlanCounted: the factor cache counts what an entry keeps alive.
// The pieces of a "shift" or "blockjacobi" entry keep that rung's own
// plan alive — its matrix, row norms and classification — so the entry's
// bytes include the plan's; rungs factored under the analysis's plan
// count that plan's row norms, which neither the entry's matrix nor the
// symbolic tier's classification covers.
func TestRungPlanCounted(t *testing.T) {
	srv := New(Config{Procs: 4, Workers: 1, Backend: "real"})
	defer srv.Shutdown(context.Background())
	a := matgen.Grid2D(32, 32)
	key := sparse.Fingerprint(a)
	an, err := srv.analysisFor(key, a)
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range ladderRungs {
		t.Run(fmt.Sprintf("rung=%q", step), func(t *testing.T) {
			ent, err := srv.buildRung(key, an, step)
			if err != nil {
				t.Fatal(err)
			}
			srv.admit(ent, originLocal)
			want := a.SizeBytes()
			for q := range ent.pcs {
				want += ent.pcs[q].SizeBytes() + ent.mats[q].SizeBytes()
			}
			if step == "shift" || step == "blockjacobi" {
				plan, err := rungPlan(key, an, step)
				if err != nil {
					t.Fatal(err)
				}
				want += plan.SizeBytes()
			} else {
				want += 8 * int64(a.N) // the analysis plan's RowTau
			}
			srv.mu.Lock()
			got := srv.cache.items[key].bytes
			srv.mu.Unlock()
			if got != want {
				t.Errorf("entry counted %d bytes, want %d", got, want)
			}
		})
	}
}
