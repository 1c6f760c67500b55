package kernels

import (
	"math/rand"
	"testing"

	"fesia/internal/simd"
)

// randSmall builds a sorted duplicate-free set of length n from a small span,
// so intersections are non-trivial.
func randSmall(rng *rand.Rand, n int, span uint32) []uint32 {
	seen := make(map[uint32]bool, n)
	out := make([]uint32, 0, n)
	for len(out) < n {
		v := rng.Uint32() % span
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// forEachTier runs f once per available dispatch tier with the ladder forced
// to exactly that rung — including forced-AVX2 on AVX-512 hardware —
// restoring the dispatch state afterwards.
func forEachTier(t *testing.T, f func(t *testing.T, tier string)) {
	run := func(tier string, asm, avx512 bool) {
		t.Run(tier, func(t *testing.T) {
			prevAsm := simd.SetAsmEnabled(asm)
			prevAvx512 := simd.SetAvx512Enabled(avx512)
			defer func() {
				simd.SetAsmEnabled(prevAsm)
				simd.SetAvx512Enabled(prevAvx512)
			}()
			f(t, tier)
		})
	}
	run("scalar", false, false)
	if simd.HasAsm() {
		run("avx2", true, false)
	}
	if simd.HasAVX512() {
		run("avx512", true, true)
	}
}

// TestAsmKernelsParity holds the small-set kernels the query path runs
// (simd.CountSmall, assembly on amd64) to every generated table's Count on
// the default tier, across every size pair up to 12: the tables time the
// figures' stand-in for what internal/core calls, so the two must agree.
func TestAsmKernelsParity(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, tab := range Tables() {
		limit := min(tab.Cap(), 12)
		for sa := 0; sa <= limit; sa++ {
			for sb := 0; sb <= limit; sb++ {
				for trial := 0; trial < 20; trial++ {
					span := uint32(max(4+rng.Intn(28), sa+1, sb+1))
					a := randSmall(rng, sa, span)
					b := randSmall(rng, sb, span)
					got, want := simd.CountSmall(a, b), tab.Count(a, b)
					if got != want {
						t.Fatalf("table(w=%v stride=%d) sa=%d sb=%d a=%v b=%v: CountSmall=%d table=%d",
							tab.Width(), tab.Stride(), sa, sb, a, b, got, want)
					}
				}
			}
		}
	}
}

// TestAsmKernelsInterParity holds simd.IntersectSmall to every generated
// table's Intersect on every tier: count AND emitted elements (ordered)
// must agree across every size pair up to 18, past the AVX-512 register's
// 16 lanes, so the register bodies and the scalar fallback are both
// compared.
func TestAsmKernelsInterParity(t *testing.T) {
	forEachTier(t, func(t *testing.T, tier string) {
		rng := rand.New(rand.NewSource(13))
		for _, tab := range Tables() {
			limit := min(tab.Cap(), 18)
			for sa := 0; sa <= limit; sa++ {
				for sb := 0; sb <= limit; sb++ {
					for trial := 0; trial < 4; trial++ {
						span := uint32(sa + sb + 4 + rng.Intn(28))
						a := randSmall(rng, sa, span)
						b := randSmall(rng, sb, span)
						dst := make([]uint32, min(sa, sb)+1)
						want := make([]uint32, min(sa, sb)+1)
						got := simd.IntersectSmall(dst, a, b)
						wn := tab.Intersect(want, a, b)
						if got != wn {
							t.Fatalf("tier=%s table(w=%v stride=%d) sa=%d sb=%d a=%v b=%v: IntersectSmall=%d table=%d",
								tier, tab.Width(), tab.Stride(), sa, sb, a, b, got, wn)
						}
						for i := 0; i < wn; i++ {
							if dst[i] != want[i] {
								t.Fatalf("tier=%s table(w=%v stride=%d) sa=%d sb=%d elem %d: got=%d want=%d",
									tier, tab.Width(), tab.Stride(), sa, sb, i, dst[i], want[i])
							}
						}
					}
				}
			}
		}
	})
}
