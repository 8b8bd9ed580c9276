package sparse

import "testing"

// fpTestMatrix builds a small structurally nonsymmetric matrix whose rows
// have distinct patterns, so permutations genuinely move content around.
func fpTestMatrix() *CSR {
	b := NewBuilder(5, 5)
	entries := []struct {
		i, j int
		v    float64
	}{
		{0, 0, 4}, {0, 1, -1}, {0, 4, 0.5},
		{1, 1, 4}, {1, 2, -1},
		{2, 2, 4}, {2, 0, -2},
		{3, 3, 4}, {3, 4, -1},
		{4, 4, 4}, {4, 3, -1}, {4, 0, 0.25},
	}
	for _, e := range entries {
		b.Add(e.i, e.j, e.v)
	}
	return b.Build()
}

func TestFingerprintIdenticalMatrices(t *testing.T) {
	a := fpTestMatrix()
	clone := a.Clone()
	fa, fc := Fingerprint(a), Fingerprint(clone)
	if fa != fc {
		t.Fatalf("clone fingerprint differs: %s vs %s", fa, fc)
	}
	// A structurally identical matrix assembled through a different code
	// path (builder vs clone) must also agree.
	b := NewBuilder(a.N, a.M)
	for i := 0; i < a.N; i++ {
		cols, vals := a.Row(i)
		for k, j := range cols {
			b.Add(i, j, vals[k])
		}
	}
	if fb := Fingerprint(b.Build()); fb != fa {
		t.Fatalf("rebuilt fingerprint differs: %s vs %s", fb, fa)
	}
	if len(fa) != 32 {
		t.Fatalf("fingerprint %q has length %d, want 32 hex chars", fa, len(fa))
	}
}

func TestFingerprintPermutedMatrixDiffers(t *testing.T) {
	a := fpTestMatrix()
	perm := []int{2, 0, 4, 1, 3}
	p := a.Permute(perm)
	if Fingerprint(a) == Fingerprint(p) {
		t.Fatalf("permuted matrix has the same fingerprint")
	}
	// Round-tripping the permutation restores the fingerprint.
	back := p.Permute(InversePermutation(perm))
	if Fingerprint(a) != Fingerprint(back) {
		t.Fatalf("inverse permutation did not restore the fingerprint")
	}
}

func TestFingerprintValuePerturbationDiffers(t *testing.T) {
	a := fpTestMatrix()
	fa := Fingerprint(a)
	b := a.Clone()
	b.Vals[3] += 1e-13 // tiny perturbation still changes the bits
	if Fingerprint(b) == fa {
		t.Fatalf("value-perturbed matrix has the same fingerprint")
	}
	// Structure-only change: same values, one extra explicit zero.
	c := NewBuilder(a.N, a.M)
	for i := 0; i < a.N; i++ {
		cols, vals := a.Row(i)
		for k, j := range cols {
			c.Add(i, j, vals[k])
		}
	}
	c.Add(1, 4, 0)
	if Fingerprint(c.Build()) == fa {
		t.Fatalf("pattern-extended matrix has the same fingerprint")
	}
}

func TestPatternFingerprintIgnoresValues(t *testing.T) {
	a := fpTestMatrix()
	pa, fa := PatternFingerprint(a), Fingerprint(a)
	if pa == fa {
		t.Fatalf("fingerprint families collide: pattern=%s full=%s", pa, fa)
	}

	// A value edit must change the full fingerprint but leave
	// the pattern key unchanged — this is the property the symbolic cache
	// relies on for matrix sequences.
	b := a.Clone()
	for k := range b.Vals {
		b.Vals[k] *= 1 + 1e-3*float64(k+1)
	}
	if got := PatternFingerprint(b); got != pa {
		t.Fatalf("value edit changed pattern fingerprint: %s vs %s", got, pa)
	}
	if Fingerprint(b) == fa {
		t.Fatalf("value edit did not change full fingerprint")
	}

	// Clones agree on both keys.
	c := a.Clone()
	if PatternFingerprint(c) != pa || Fingerprint(c) != fa {
		t.Fatalf("clone fingerprints differ from original")
	}
}

func TestPatternFingerprintSeesStructure(t *testing.T) {
	a := fpTestMatrix()
	pa := PatternFingerprint(a)

	// Adding an explicit zero leaves every stored value's bits intact but
	// changes the structure: the pattern key must move.
	b := NewBuilder(a.N, a.M)
	for i := 0; i < a.N; i++ {
		cols, vals := a.Row(i)
		for k, j := range cols {
			b.Add(i, j, vals[k])
		}
	}
	b.Add(1, 4, 0)
	if PatternFingerprint(b.Build()) == pa {
		t.Fatalf("pattern-extended matrix kept the pattern fingerprint")
	}

	// Permutations move structure too.
	if PatternFingerprint(a.Permute([]int{2, 0, 4, 1, 3})) == pa {
		t.Fatalf("permuted matrix kept the pattern fingerprint")
	}
}

func TestValueFingerprintLengthAndDims(t *testing.T) {
	a := fpTestMatrix()
	for _, fp := range []string{PatternFingerprint(a), Fingerprint(a)} {
		if len(fp) != 32 {
			t.Fatalf("fingerprint %q has length %d, want 32 hex chars", fp, len(fp))
		}
	}
	if PatternFingerprint(NewCSR(3, 4)) == PatternFingerprint(NewCSR(4, 3)) {
		t.Fatalf("transposed empty dimensions collide on pattern fingerprint")
	}
}

// fpTestMatrixFullFingerprint was produced by the pre-split Fingerprint
// implementation on fpTestMatrix().
const fpTestMatrixFullFingerprint = "430b76fe5c9c5ae9d6e2bfc1a9a8a281"

func TestFingerprintEncodingUnchangedBySplit(t *testing.T) {
	// The full fingerprint keys the factorization cache AND the HRW
	// cluster routing, so its encoding is pinned: this literal was
	// produced by the pre-split implementation and must never change.
	if got := Fingerprint(fpTestMatrix()); got != fpTestMatrixFullFingerprint {
		t.Fatalf("Fingerprint(fpTestMatrix()) = %s, want pinned %s", got, fpTestMatrixFullFingerprint)
	}
}

func TestFingerprintDimensionsMatter(t *testing.T) {
	// An empty 3×4 and 4×3 matrix share all (empty) entry arrays except
	// the row-pointer length; dims are hashed explicitly as well.
	if Fingerprint(NewCSR(3, 4)) == Fingerprint(NewCSR(4, 3)) {
		t.Fatalf("transposed empty dimensions collide")
	}
}
