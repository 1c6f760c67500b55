package core

import (
	"math/rand"
	"testing"

	"fesia/internal/simd"
)

// withBackends runs f twice — once per backend — and compares the results.
// When the assembly backend is unavailable only the scalar pass runs (the
// comparison is then trivially true, keeping the test meaningful under
// -tags=noasm as a smoke test).
func runBothBackends(t *testing.T, f func() any) (asm, scalar any) {
	t.Helper()
	prevAsm := simd.SetAsmEnabled(true)
	asm = f()
	simd.SetAsmEnabled(false)
	scalar = f()
	simd.SetAsmEnabled(prevAsm)
	return asm, scalar
}

// TestExecutorAsmParity drives every Executor query shape through both
// backends on the same inputs and requires identical results: the dispatched
// assembly must be observationally equivalent to the pure-Go reference at the
// API surface, not just per-routine. The adaptive Intersect emits in the
// order of the arm the backend's rule picks (ruleOrder), so it must equal
// that arm's output on each backend and hold the same elements on both.
func TestExecutorAsmParity(t *testing.T) {
	if !simd.HasAsm() {
		t.Skip("assembly backend not available")
	}
	rng := rand.New(rand.NewSource(31))
	e := NewExecutor()
	shapes := []struct {
		na, nb int
	}{
		{2000, 1800},  // similar sizes: merge, hash on the AVX-512 rung
		{5000, 300},   // hash, skewed
		{40000, 9000}, // big bitmaps
		{64, 48},      // tiny
	}
	for _, cfg := range []Config{DefaultConfig(), {SegBits: 16}, {SegBits: 32}} {
		for _, sh := range shapes {
			a := MustNewSet(randSet(rng, sh.na, 100000), cfg)
			b := MustNewSet(randSet(rng, sh.nb, 100000), cfg)
			c := MustNewSet(randSet(rng, sh.nb/2+1, 100000), cfg)

			countAsm, countGo := runBothBackends(t, func() any { return e.Count(a, b) })
			if countAsm != countGo {
				t.Fatalf("cfg=%+v shape=%+v Count: asm=%v go=%v", cfg, sh, countAsm, countGo)
			}
			mergeAsm, mergeGo := runBothBackends(t, func() any { return CountMerge(a, b) })
			if mergeAsm != mergeGo {
				t.Fatalf("cfg=%+v shape=%+v CountMerge: asm=%v go=%v", cfg, sh, mergeAsm, mergeGo)
			}
			hashAsm, hashGo := runBothBackends(t, func() any { return CountHash(a, b) })
			if hashAsm != hashGo {
				t.Fatalf("cfg=%+v shape=%+v CountHash: asm=%v go=%v", cfg, sh, hashAsm, hashGo)
			}
			kAsm, kGo := runBothBackends(t, func() any { return e.CountK(a, b, c) })
			if kAsm != kGo {
				t.Fatalf("cfg=%+v shape=%+v CountK: asm=%v go=%v", cfg, sh, kAsm, kGo)
			}
			parAsm, parGo := runBothBackends(t, func() any { return e.CountMergeParallel(a, b, 4) })
			if parAsm != parGo {
				t.Fatalf("cfg=%+v shape=%+v CountMergeParallel: asm=%v go=%v", cfg, sh, parAsm, parGo)
			}

			dst := make([]uint32, min(a.Len(), b.Len()))
			for _, op := range []struct {
				name     string
				run      func() int
				adaptive bool
			}{
				{"Intersect", func() int { return e.Intersect(dst, a, b) }, true},
				{"IntersectMerge", func() int { return e.run(a, b, armMerge, dst, nil) }, false},
			} {
				interAsm, interGo := runBothBackends(t, func() any {
					got := append([]uint32(nil), dst[:op.run()]...)
					if !op.adaptive {
						return got
					}
					if !equalU32(got, ruleOrder(a, b)) {
						t.Fatalf("cfg=%+v shape=%+v Intersect: out of the rule's arm order", cfg, sh)
					}
					return sortedCopy(got)
				})
				ia, ig := interAsm.([]uint32), interGo.([]uint32)
				if len(ia) != len(ig) {
					t.Fatalf("cfg=%+v shape=%+v %s: asm n=%d go n=%d", cfg, sh, op.name, len(ia), len(ig))
				}
				for i := range ia {
					if ia[i] != ig[i] {
						t.Fatalf("cfg=%+v shape=%+v %s elem %d: asm=%d go=%d", cfg, sh, op.name, i, ia[i], ig[i])
					}
				}
			}

			cands := []*Set{b, c, a}
			outA := make([]int, len(cands))
			outG := make([]int, len(cands))
			prevAsm := simd.SetAsmEnabled(true)
			e.CountMany(a, cands, outA)
			simd.SetAsmEnabled(false)
			e.CountMany(a, cands, outG)
			simd.SetAsmEnabled(prevAsm)
			for i := range outA {
				if outA[i] != outG[i] {
					t.Fatalf("cfg=%+v shape=%+v CountMany[%d]: asm=%d go=%d", cfg, sh, i, outA[i], outG[i])
				}
			}
		}
	}
}

// TestAsmPathsZeroAlloc asserts the 0 allocs/op warm guarantee holds with the
// assembly backend active — the fast paths use only stack mask buffers.
func TestAsmPathsZeroAlloc(t *testing.T) {
	if !simd.HasAsm() {
		t.Skip("assembly backend not available")
	}
	prevAsm := simd.SetAsmEnabled(true)
	defer simd.SetAsmEnabled(prevAsm)
	rng := rand.New(rand.NewSource(32))
	a := MustNewSet(randSet(rng, 20000, 300000), DefaultConfig())
	b := MustNewSet(randSet(rng, 15000, 300000), DefaultConfig())
	s := MustNewSet(randSet(rng, 900, 300000), DefaultConfig())
	e := NewExecutor()
	cands := []*Set{b, s}
	out := make([]int, len(cands))
	// Warm every buffer.
	e.Count(a, b)
	e.Count(a, s)
	e.CountK(a, b, s)
	e.CountMany(a, cands, out)
	cases := []struct {
		name string
		fn   func()
	}{
		{"Count/merge", func() { e.Count(a, b) }},
		{"Count/hash", func() { e.Count(a, s) }},
		{"CountK", func() { e.CountK(a, b, s) }},
		{"CountMany", func() { e.CountMany(a, cands, out) }},
	}
	for _, c := range cases {
		if avg := testing.AllocsPerRun(20, c.fn); avg != 0 {
			t.Errorf("%s: %v allocs/op with asm backend, want 0", c.name, avg)
		}
	}
}
