package service

import (
	"context"
	"runtime/debug"
	"testing"

	"repro/internal/matgen"
)

// startingLimit is the runtime memory limit with no server open, the one
// the accountant caps at and restores. A server an earlier test left
// open would have read its own starting limit already.
func startingLimit(t *testing.T) int64 {
	t.Helper()
	tiers.mu.Lock()
	open := tiers.servers
	tiers.mu.Unlock()
	if open != 0 {
		t.Fatalf("%d servers still open from an earlier test", open)
	}
	return debug.SetMemoryLimit(-1)
}

// tierBytes is what s's three tiers hold.
func tierBytes(s *Server) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.matrices.bytes + s.cache.bytes + s.symbolic.bytes
}

// checkLimit holds the accountant to the tiers of the open servers: its
// count is their sum, and the runtime's limit is that count plus the
// allowance, capped at start.
func checkLimit(t *testing.T, when string, start int64, open ...*Server) {
	t.Helper()
	var want int64
	for _, s := range open {
		want += tierBytes(s)
	}
	held, limit := tiers.snapshot()
	if held != want {
		t.Fatalf("%s: accountant holds %d bytes, the open servers' tiers %d", when, held, want)
	}
	if want := min(held+heapAllowance, start); limit != want {
		t.Fatalf("%s: limit %d, want min(%d + %d, %d) = %d", when, limit, held, heapAllowance, start, want)
	}
	if got := debug.SetMemoryLimit(-1); got != limit {
		t.Fatalf("%s: runtime memory limit %d, accountant set %d", when, got, limit)
	}
}

// TestMemoryLimitFollowsTiers: across builds, evictions from all three
// tiers and a peer import, summed over two servers, the runtime limit is
// what the tiers hold plus the allowance; Shutdown takes a server's bytes
// out, and the last one restores the starting limit.
func TestMemoryLimitFollowsTiers(t *testing.T) {
	ctx := context.Background()
	start := startingLimit(t)
	owner := New(Config{Procs: 4, Workers: 1, CacheBytes: 1 << 20})
	defer owner.Shutdown(ctx)
	importer := New(Config{Procs: 4, Workers: 1})
	defer importer.Shutdown(ctx)
	checkLimit(t, "empty", start, owner, importer)

	// Builds until the owner's 1 MiB factor cache evicts.
	var key string
	for nx := 30; owner.StatsSnapshot().Cache.Evictions == 0; nx++ {
		if nx > 60 {
			t.Fatal("no factor eviction under a 1 MiB cache")
		}
		a := matgen.Grid2D(nx, 32)
		var err error
		if key, _, err = owner.Submit(a); err != nil {
			t.Fatal(err)
		}
		if _, err := owner.Solve(ctx, key, rhs(a.N, 1), SolveOptions{}); err != nil {
			t.Fatal(err)
		}
		checkLimit(t, "build", start, owner, importer)
	}

	// The importer takes the owner's last factor as a peer would.
	data, err := owner.ExportFactor(key)
	if err != nil {
		t.Fatal(err)
	}
	ent, err := importer.importFactor(key, data)
	if err != nil {
		t.Fatal(err)
	}
	importer.admit(ent, originPeer)
	checkLimit(t, "import", start, owner, importer)

	// Submissions until the importer's matrix tier evicts.
	filler := matgen.Grid2D(128, 128)
	for seed := int64(0); importer.StatsSnapshot().Cache.MatrixEvictions == 0; seed++ {
		if _, _, err := importer.Submit(matgen.Evolve(filler, 1, 1e-3, seed)[0]); err != nil {
			t.Fatal(err)
		}
	}
	checkLimit(t, "matrix evictions", start, owner, importer)

	if err := owner.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	checkLimit(t, "one shut down", start, importer)
	if err := importer.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if held, limit := tiers.snapshot(); held != 0 || limit != start || debug.SetMemoryLimit(-1) != start {
		t.Fatalf("after both shut down: held %d, limit %d, runtime %d; want 0, %d, %d",
			held, limit, debug.SetMemoryLimit(-1), start, start)
	}
}

// TestMemoryLimitNeverAboveStart: an operator's lower limit wins over
// held + allowance, and is what Shutdown leaves behind.
func TestMemoryLimitNeverAboveStart(t *testing.T) {
	ctx := context.Background()
	prev := startingLimit(t)
	defer debug.SetMemoryLimit(prev)
	const operator = heapAllowance + 1<<20
	debug.SetMemoryLimit(operator)

	s := New(Config{Procs: 4, Workers: 1})
	defer s.Shutdown(ctx)
	a := matgen.Grid2D(64, 64)
	key, _, err := s.Submit(a)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Solve(ctx, key, rhs(a.N, 1), SolveOptions{}); err != nil {
		t.Fatal(err)
	}
	if held, _ := tiers.snapshot(); held+heapAllowance <= operator {
		t.Fatalf("the tiers hold %d bytes, too few to reach the operator's limit", held)
	}
	checkLimit(t, "held past the operator's limit", operator, s)
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if got := debug.SetMemoryLimit(-1); got != operator {
		t.Fatalf("after Shutdown the limit is %d, want the operator's %d", got, operator)
	}
}
