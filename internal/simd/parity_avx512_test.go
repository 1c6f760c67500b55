package simd

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"fesia/internal/hashutil"
)

// forEachTier runs f once per available dispatch tier with the ladder forced
// to exactly that rung — including the forced-AVX2 tier on AVX-512 hardware —
// restoring the dispatch state afterwards.
func forEachTier(t *testing.T, f func(t *testing.T, tier string)) {
	run := func(tier string, asm, avx512 bool) {
		t.Run(tier, func(t *testing.T) {
			prevAsm := SetAsmEnabled(asm)
			prevAvx512 := SetAvx512Enabled(avx512)
			defer func() {
				SetAsmEnabled(prevAsm)
				SetAvx512Enabled(prevAvx512)
			}()
			f(t, tier)
		})
	}
	run("go", false, false)
	if HasAsm() {
		run("avx2", true, false)
	}
	if HasAVX512() {
		run("avx512", true, true)
	}
}

// TestBackendLadder pins the Backend string to the forced tier.
func TestBackendLadder(t *testing.T) {
	forEachTier(t, func(t *testing.T, tier string) {
		if tier == "go" {
			tier = "scalar"
		}
		if got := Backend(); got != tier {
			t.Fatalf("Backend() = %q, want %q", got, tier)
		}
		if Avx512Active() && !AsmActive() {
			t.Fatal("Avx512Active without AsmActive: the ladder forked")
		}
	})
}

// smallSizes draws one pair of side lengths for the small-kernel parity
// tests, covering the three bodies the kernels choose from their sizes:
// both sides within one 16-lane register, one side in a register against a
// loop side of up to a few hundred (either order), and both sides past 16
// lanes (the scalar fallback). Segment pairs at Scale 1, k-way chain lists
// and arrayArrayRun's blocks reach every regime from internal/core.
func smallSizes(rng *rand.Rand) (la, lb int) {
	switch rng.Intn(3) {
	case 0:
		la, lb = rng.Intn(17), rng.Intn(17)
	case 1:
		la, lb = rng.Intn(17), rng.Intn(400)
	default:
		la, lb = 17+rng.Intn(300), 17+rng.Intn(300)
	}
	if rng.Intn(2) == 0 {
		la, lb = lb, la
	}
	return la, lb
}

// smallPair draws two sorted sets of the given lengths from a span small
// enough that they overlap.
func smallPair(rng *rand.Rand, la, lb int) (a, b []uint32) {
	span := uint32(2*max(la, lb) + 40 + rng.Intn(48))
	return randSorted(rng, la, span), randSorted(rng, lb, span)
}

// TestCountSmallTierParity runs CountSmall across every tier at the sizes
// smallSizes draws: register sides, loop sides of a few hundred, and the
// scalar fallback.
func TestCountSmallTierParity(t *testing.T) {
	forEachTier(t, func(t *testing.T, _ string) {
		rng := rand.New(rand.NewSource(11))
		for trial := 0; trial < 3000; trial++ {
			la, lb := smallSizes(rng)
			a, b := smallPair(rng, la, lb)
			got := CountSmall(a, b)
			want := countSmallGeneric(a, b)
			if got != want {
				t.Fatalf("trial=%d a=%v b=%v: got=%d want=%d", trial, a, b, got, want)
			}
		}
		// Zero is an element, not padding, on the 16-lane rung too.
		if got := CountSmall([]uint32{0}, []uint32{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}); got != 1 {
			t.Fatalf("CountSmall zero-element = %d, want 1", got)
		}
	})
}

// TestIntersectSmallTierParity checks the materializing kernel across every
// tier at the sizes smallSizes draws: count and output must match the scalar
// merge bit for bit, and the slots past the output must stay untouched.
func TestIntersectSmallTierParity(t *testing.T) {
	forEachTier(t, func(t *testing.T, _ string) {
		rng := rand.New(rand.NewSource(12))
		for trial := 0; trial < 3000; trial++ {
			la, lb := smallSizes(rng)
			a, b := smallPair(rng, la, lb)
			got := make([]uint32, min(la, lb)+4)
			want := make([]uint32, len(got))
			for i := range got {
				got[i] = 0xDEADBEEF // poison: untouched slots must stay equal
				want[i] = 0xDEADBEEF
			}
			gn := IntersectSmall(got, a, b)
			wn := IntersectSmallGeneric(want, a, b)
			if gn != wn {
				t.Fatalf("trial=%d a=%v b=%v: got n=%d want n=%d", trial, a, b, gn, wn)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial=%d a=%v b=%v slot %d (n=%d): got=%d want=%d", trial, a, b, i, wn, got[i], want[i])
				}
			}
		}
		var dst [1]uint32
		dst[0] = 7
		if n := IntersectSmall(dst[:], []uint32{0}, []uint32{0}); n != 1 || dst[0] != 0 {
			t.Fatalf("IntersectSmall({0},{0}) = (%d, %v), want (1, [0])", n, dst)
		}
		// dst with room for the matches only, down to none, as pass 2 passes
		// the tail of a buffer sized for the whole result.
		for trial := 0; trial < 500; trial++ {
			la, lb := smallSizes(rng)
			a, b := smallPair(rng, la, lb)
			want := make([]uint32, min(la, lb))
			wn := IntersectSmallGeneric(want, a, b)
			got := make([]uint32, wn)
			if gn := IntersectSmall(got, a, b); gn != wn || !slices.Equal(got, want[:wn]) {
				t.Fatalf("trial=%d a=%v b=%v into exact dst: got %v want %v", trial, a, b, got[:gn], want[:wn])
			}
		}
	})
}

// TestIntersectSmallConflictParity pins the loop-free VPCONFLICTD kernel
// against the scalar merge on its 8x8 domain.
func TestIntersectSmallConflictParity(t *testing.T) {
	if !HasAVX512() {
		t.Skip("AVX-512 rung not available")
	}
	prevAsm := SetAsmEnabled(true)
	prevAvx512 := SetAvx512Enabled(true)
	defer func() {
		SetAsmEnabled(prevAsm)
		SetAvx512Enabled(prevAvx512)
	}()
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 3000; trial++ {
		la := 1 + rng.Intn(8)
		lb := 1 + rng.Intn(8)
		span := uint32(8 + rng.Intn(24))
		a := randSorted(rng, la, span)
		b := randSorted(rng, lb, span)
		got := make([]uint32, 8)
		want := make([]uint32, 8)
		gn, ok := IntersectSmallConflict(got, a, b)
		if !ok {
			t.Fatalf("trial=%d conflict kernel refused la=%d lb=%d", trial, la, lb)
		}
		wn := IntersectSmallGeneric(want, a, b)
		if gn != wn {
			t.Fatalf("trial=%d a=%v b=%v: got n=%d want n=%d", trial, a, b, gn, wn)
		}
		for i := 0; i < wn; i++ {
			if got[i] != want[i] {
				t.Fatalf("trial=%d a=%v b=%v elem %d: got=%d want=%d", trial, a, b, i, got[i], want[i])
			}
		}
	}
	// A zero b element must match only a real zero a lane, never zero padding.
	var dst [8]uint32
	if n, _ := IntersectSmallConflict(dst[:], []uint32{1, 2}, []uint32{0}); n != 0 {
		t.Fatalf("conflict kernel matched zero padding: n=%d", n)
	}
	if n, _ := IntersectSmallConflict(dst[:], []uint32{0, 2}, []uint32{0}); n != 1 || dst[0] != 0 {
		t.Fatalf("conflict kernel missed genuine zero: n=%d dst=%v", n, dst)
	}
}

// TestContainsTierParity runs Contains across every tier, exercising both
// the 16-lane block loop and the masked tail of the AVX-512 probe.
func TestContainsTierParity(t *testing.T) {
	forEachTier(t, func(t *testing.T, _ string) {
		rng := rand.New(rand.NewSource(14))
		for trial := 0; trial < 500; trial++ {
			n := 1 + rng.Intn(70)
			list := randSorted(rng, n, 96)
			for x := uint32(0); x < 96; x++ {
				want := false
				for _, v := range list {
					want = want || v == x
				}
				if got := Contains(list, x); got != want {
					t.Fatalf("trial=%d Contains(len=%d, %d) = %v, want %v", trial, n, x, got, want)
				}
			}
		}
	})
}

// probeStageRef is the scalar reference for ProbeStage: the exact semantics
// of the probe loop body in internal/core, via hashutil.
func probeStageRef(elems []uint32, words []uint64, h hashutil.Hasher, m uint64) (outE, outP []uint32) {
	for _, x := range elems {
		pos := h.Pos(x, m)
		if words[pos>>6]>>(pos&63)&1 != 0 {
			outE = append(outE, x)
			outP = append(outP, uint32(pos))
		}
	}
	return
}

// TestProbeStageParity checks the gathered hash-probe stage against the
// hashutil splitmix64 reference bit for bit: same survivors, same positions,
// same order.
func TestProbeStageParity(t *testing.T) {
	if !HasAVX512() {
		t.Skip("AVX-512 rung not available")
	}
	prevAsm := SetAsmEnabled(true)
	prevAvx512 := SetAvx512Enabled(true)
	defer func() {
		SetAsmEnabled(prevAsm)
		SetAvx512Enabled(prevAvx512)
	}()
	if !GatherProbeActive() {
		t.Fatal("GatherProbeActive false with the rung forced on")
	}
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 400; trial++ {
		mBits := uint64(64) << rng.Intn(10) // 64 .. 32768 bits
		words := randWords(rng, int(mBits/64))
		seed := rng.Uint64()
		h := hashutil.New(seed)
		n := rng.Intn(129)
		elems := make([]uint32, n)
		for i := range elems {
			elems[i] = rng.Uint32()
		}
		outE := make([]uint32, n)
		outP := make([]uint32, n)
		ns, consumed := ProbeStage(elems, words, seed, mBits-1, outE, outP)
		if want := n &^ 15; consumed != want {
			t.Fatalf("trial=%d consumed=%d want %d", trial, consumed, want)
		}
		wantE, wantP := probeStageRef(elems[:consumed], words, h, mBits)
		if ns != len(wantE) {
			t.Fatalf("trial=%d survivors=%d want %d", trial, ns, len(wantE))
		}
		for i := 0; i < ns; i++ {
			if outE[i] != wantE[i] || outP[i] != wantP[i] {
				t.Fatalf("trial=%d survivor %d: got (%d,%d) want (%d,%d)",
					trial, i, outE[i], outP[i], wantE[i], wantP[i])
			}
		}
	}
}

func FuzzIntersectSmallParity(f *testing.F) {
	f.Add([]byte{1, 2, 3}, []byte{2, 3, 4})
	f.Add([]byte{0}, []byte{0})
	f.Add(bytes.Repeat([]byte{3}, 40), bytes.Repeat([]byte{1, 6}, 150))
	f.Fuzz(func(t *testing.T, ra, rb []byte) {
		a, b := fuzzSorted(ra), fuzzSorted(rb)
		want := make([]uint32, min(len(a), len(b)))
		wn := IntersectSmallGeneric(want, a, b)
		if !HasAsm() {
			return
		}
		prevAsm := SetAsmEnabled(true)
		defer SetAsmEnabled(prevAsm)
		for _, avx512 := range []bool{false, true} {
			prev := SetAvx512Enabled(avx512)
			got := make([]uint32, len(want))
			gn := IntersectSmall(got, a, b)
			SetAvx512Enabled(prev)
			if gn != wn {
				t.Fatalf("avx512=%v a=%v b=%v: got n=%d want n=%d", avx512, a, b, gn, wn)
			}
			for i := 0; i < wn; i++ {
				if got[i] != want[i] {
					t.Fatalf("avx512=%v a=%v b=%v elem %d: got=%d want=%d", avx512, a, b, i, got[i], want[i])
				}
			}
		}
	})
}

func FuzzProbeStageParity(f *testing.F) {
	f.Add(uint64(1), uint64(0xFFFF), []byte{1, 2, 3, 4})
	f.Fuzz(func(t *testing.T, seed, w0 uint64, raw []byte) {
		if !HasAVX512() {
			return
		}
		prevAsm := SetAsmEnabled(true)
		prevAvx512 := SetAvx512Enabled(true)
		defer func() {
			SetAsmEnabled(prevAsm)
			SetAvx512Enabled(prevAvx512)
		}()
		words := []uint64{w0, ^w0, w0 ^ 0xAAAA, 0}
		const mBits = 256
		elems := make([]uint32, 32)
		for i := range elems {
			elems[i] = uint32(i)
			if i < len(raw) {
				elems[i] = uint32(raw[i]) << 16
			}
		}
		outE := make([]uint32, len(elems))
		outP := make([]uint32, len(elems))
		ns, consumed := ProbeStage(elems, words, seed, mBits-1, outE, outP)
		wantE, wantP := probeStageRef(elems[:consumed], words, hashutil.New(seed), mBits)
		if ns != len(wantE) {
			t.Fatalf("survivors=%d want %d", ns, len(wantE))
		}
		for i := 0; i < ns; i++ {
			if outE[i] != wantE[i] || outP[i] != wantP[i] {
				t.Fatalf("survivor %d: got (%d,%d) want (%d,%d)", i, outE[i], outP[i], wantE[i], wantP[i])
			}
		}
	})
}

// BenchmarkIntersectSmall measures the materializing kernels per tier plus
// the VPCONFLICTD variant — the measurement behind the broadcast-vs-conflict
// dispatch choice documented in DESIGN.md §11.
func BenchmarkIntersectSmall(b *testing.B) {
	a8 := []uint32{3, 9, 17, 22, 31, 40, 51, 63}
	b8 := []uint32{1, 9, 18, 22, 35, 40, 52, 63}
	a16 := []uint32{1, 3, 9, 14, 17, 22, 31, 40, 51, 63, 70, 81, 92, 99, 104, 110}
	b16 := []uint32{2, 3, 10, 14, 18, 22, 35, 40, 52, 63, 71, 81, 93, 99, 105, 110}
	dst := make([]uint32, 16)
	cases := []struct {
		name string
		a, b []uint32
	}{{"8x8", a8, b8}, {"16x16", a16, b16}}
	for _, c := range cases {
		for _, tier := range []string{"go", "avx2", "avx512"} {
			if tier != "go" && !HasAsm() || tier == "avx512" && !HasAVX512() {
				continue
			}
			b.Run(c.name+"/"+tier, func(b *testing.B) {
				prevAsm := SetAsmEnabled(tier != "go")
				prevAvx512 := SetAvx512Enabled(tier == "avx512")
				defer func() {
					SetAsmEnabled(prevAsm)
					SetAvx512Enabled(prevAvx512)
				}()
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					sinkInt = IntersectSmall(dst, c.a, c.b)
				}
			})
		}
	}
	if HasAVX512() {
		b.Run("8x8/conflict", func(b *testing.B) {
			prevAsm := SetAsmEnabled(true)
			prevAvx512 := SetAvx512Enabled(true)
			defer func() {
				SetAsmEnabled(prevAsm)
				SetAvx512Enabled(prevAvx512)
			}()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkInt, _ = IntersectSmallConflict(dst, a8, b8)
			}
		})
	}
}

// BenchmarkProbeStage measures the gathered probe against the scalar loop.
func BenchmarkProbeStage(b *testing.B) {
	rng := rand.New(rand.NewSource(16))
	const mBits = 1 << 16
	words := randWords(rng, mBits/64)
	elems := make([]uint32, 128)
	for i := range elems {
		elems[i] = rng.Uint32()
	}
	outE := make([]uint32, len(elems))
	outP := make([]uint32, len(elems))
	h := hashutil.New(42)
	b.Run("go", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			n := 0
			for _, x := range elems {
				pos := h.Pos(x, mBits)
				if words[pos>>6]>>(pos&63)&1 != 0 {
					outE[n] = x
					outP[n] = uint32(pos)
					n++
				}
			}
			sinkInt = n
		}
	})
	if !HasAVX512() {
		return
	}
	b.Run("avx512", func(b *testing.B) {
		prevAsm := SetAsmEnabled(true)
		prevAvx512 := SetAvx512Enabled(true)
		defer func() {
			SetAsmEnabled(prevAsm)
			SetAvx512Enabled(prevAvx512)
		}()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkInt, _ = ProbeStage(elems, words, 42, mBits-1, outE, outP)
		}
	})
}
