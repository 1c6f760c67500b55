package simd

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
)

// withAsm runs f with the assembly backend forced on, restoring the previous
// dispatch state. It skips when the backend is unavailable (non-amd64, noasm
// build, or missing CPU features).
func withAsm(t testing.TB, f func()) {
	t.Helper()
	if !HasAsm() {
		t.Skip("assembly backend not available")
	}
	prev := SetAsmEnabled(true)
	defer SetAsmEnabled(prev)
	f()
}

// randWords generates word slices with a mix of densities so zero and
// non-zero segments of every width are exercised.
func randWords(rng *rand.Rand, n int) []uint64 {
	w := make([]uint64, n)
	for i := range w {
		switch rng.Intn(4) {
		case 0:
			w[i] = 0
		case 1:
			w[i] = rng.Uint64()
		case 2:
			w[i] = 1 << uint(rng.Intn(64)) // single live segment
		default:
			w[i] = rng.Uint64() & rng.Uint64() & rng.Uint64() // sparse
		}
	}
	return w
}

func TestAndSegMasksParity(t *testing.T) {
	withAsm(t, func() {
		rng := rand.New(rand.NewSource(1))
		for _, segBits := range []int{8, 16, 32} {
			for trial := 0; trial < 200; trial++ {
				nblocks := 1 + rng.Intn(16)
				a := randWords(rng, nblocks*BlockWords)
				b := randWords(rng, nblocks*BlockWords)
				got := make([]uint32, nblocks)
				want := make([]uint32, nblocks)
				gn := AndSegMasks(got, a, b, segBits)
				wn := AndSegMasksGeneric(want, a, b, segBits)
				if gn != wn {
					t.Fatalf("segBits=%d trial=%d live count: asm=%d go=%d", segBits, trial, gn, wn)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("segBits=%d trial=%d block=%d mask: asm=%#x go=%#x (a=%x b=%x)",
							segBits, trial, i, got[i], want[i],
							a[i*BlockWords:i*BlockWords+BlockWords], b[i*BlockWords:i*BlockWords+BlockWords])
					}
				}
			}
		}
	})
}

// TestSegMaskWordsMatchBranchy pins the branch-free scalar segment
// transformations against the original branchy SegmentMask* functions; this
// holds on every architecture.
func TestSegMaskWordsMatchBranchy(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	check := func(w uint64) {
		if g, want := segMaskWord8(w), SegmentMask8(w); g != want {
			t.Fatalf("segMaskWord8(%#x) = %#x, want %#x", w, g, want)
		}
		if g, want := segMaskWord16(w), SegmentMask16(w); g != want {
			t.Fatalf("segMaskWord16(%#x) = %#x, want %#x", w, g, want)
		}
		if g, want := segMaskWord32(w), SegmentMask32(w); g != want {
			t.Fatalf("segMaskWord32(%#x) = %#x, want %#x", w, g, want)
		}
	}
	check(0)
	check(^uint64(0))
	for i := 0; i < 64; i++ {
		check(1 << uint(i))
	}
	for trial := 0; trial < 10000; trial++ {
		check(rng.Uint64())
		check(rng.Uint64() & rng.Uint64() & rng.Uint64())
	}
}

func TestAndWordsParity(t *testing.T) {
	withAsm(t, func() {
		rng := rand.New(rand.NewSource(3))
		for trial := 0; trial < 300; trial++ {
			n := rng.Intn(70) // covers 0, sub-block, block tails
			a := randWords(rng, n)
			b := randWords(rng, n)
			got := make([]uint64, n)
			want := make([]uint64, n)
			prev := SetAsmEnabled(false)
			wn := AndWords(want, a, b)
			SetAsmEnabled(prev)
			gn := AndWords(got, a, b)
			if gn != wn {
				t.Fatalf("n=%d trial=%d nonZero: asm=%d go=%d", n, trial, gn, wn)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("n=%d trial=%d word %d: asm=%#x go=%#x", n, trial, i, got[i], want[i])
				}
			}
		}
	})
}

// randSorted builds a sorted, duplicate-free uint32 slice of length n.
func randSorted(rng *rand.Rand, n int, span uint32) []uint32 {
	seen := make(map[uint32]bool, n)
	out := make([]uint32, 0, n)
	for len(out) < n {
		v := rng.Uint32() % span
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	slices.Sort(out)
	return out
}

func TestCountSmallParity(t *testing.T) {
	withAsm(t, func() {
		rng := rand.New(rand.NewSource(4))
		for trial := 0; trial < 2000; trial++ {
			la := rng.Intn(9)
			lb := rng.Intn(9)
			span := uint32(8 + rng.Intn(24)) // small span forces overlaps
			a := randSorted(rng, la, span)
			b := randSorted(rng, lb, span)
			got := CountSmall(a, b)
			want := countSmallGeneric(a, b)
			if got != want {
				t.Fatalf("trial=%d a=%v b=%v: asm=%d go=%d", trial, a, b, got, want)
			}
		}
		// Zero is a set element, not padding: the lane mask must keep a
		// genuine 0 match and squash padding-lane pseudo-matches.
		if got := CountSmall([]uint32{0}, []uint32{0}); got != 1 {
			t.Fatalf("CountSmall({0},{0}) = %d, want 1", got)
		}
		if got := CountSmall([]uint32{0, 5}, []uint32{1, 2, 3}); got != 0 {
			t.Fatalf("CountSmall zero-vs-padding = %d, want 0", got)
		}
	})
}

func TestContainsParity(t *testing.T) {
	withAsm(t, func() {
		rng := rand.New(rand.NewSource(5))
		for trial := 0; trial < 2000; trial++ {
			n := 1 + rng.Intn(40)
			list := randSorted(rng, n, 64)
			for x := uint32(0); x < 64; x++ {
				want := false
				for _, v := range list {
					if v == x {
						want = true
					}
				}
				if got := Contains(list, x); got != want {
					t.Fatalf("trial=%d Contains(%v, %d) = %v, want %v", trial, list, x, got, want)
				}
			}
		}
		// Padding lanes in the masked tail load as 0; x=0 must not match them.
		if Contains([]uint32{1, 2, 3}, 0) {
			t.Fatal("Contains({1,2,3}, 0) matched a padding lane")
		}
		if !Contains([]uint32{0, 7}, 0) {
			t.Fatal("Contains({0,7}, 0) = false, want true")
		}
	})
}

func FuzzAndSegMasksParity(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint64(1), uint64(1), uint8(8))
	f.Add(^uint64(0), uint64(0xFF00FF00FF00FF00), uint64(3), uint64(1<<40), uint8(16))
	f.Add(uint64(1), uint64(1), uint64(1<<63), uint64(1<<63), uint8(32))
	f.Fuzz(func(t *testing.T, w0, w1, w2, w3 uint64, sb uint8) {
		segBits := []int{8, 16, 32}[int(sb)%3]
		a := []uint64{w0, w1, w2, w3}
		b := []uint64{w3, w1, w0, w2}
		got := make([]uint32, 1)
		want := make([]uint32, 1)
		wn := AndSegMasksGeneric(want, a, b, segBits)
		if !HasAsm() {
			return
		}
		prev := SetAsmEnabled(true)
		gn := AndSegMasks(got, a, b, segBits)
		SetAsmEnabled(prev)
		if gn != wn || got[0] != want[0] {
			t.Fatalf("segBits=%d a=%x b=%x: asm=(%d,%#x) go=(%d,%#x)", segBits, a, b, gn, got[0], wn, want[0])
		}
	})
}

func FuzzCountSmallParity(f *testing.F) {
	f.Add([]byte{1, 2, 3}, []byte{2, 3, 4})
	f.Add([]byte{0}, []byte{0})
	f.Add(bytes.Repeat([]byte{3}, 40), bytes.Repeat([]byte{1, 6}, 150))
	f.Fuzz(func(t *testing.T, ra, rb []byte) {
		a, b := fuzzSorted(ra), fuzzSorted(rb)
		want := countSmallGeneric(a, b)
		if !HasAsm() {
			return
		}
		prevAsm := SetAsmEnabled(true)
		defer SetAsmEnabled(prevAsm)
		for _, avx512 := range []bool{false, true} {
			prev := SetAvx512Enabled(avx512)
			got := CountSmall(a, b)
			SetAvx512Enabled(prev)
			if got != want {
				t.Fatalf("avx512=%v a=%v b=%v: asm=%d go=%d", avx512, a, b, got, want)
			}
		}
	})
}

// fuzzSorted decodes fuzz bytes as the gaps (1 to 8) of an ascending list
// starting at 0 to 7, at most 400 elements long: two inputs overlap densely,
// and the length reaches past the 16-lane register on either side.
func fuzzSorted(r []byte) []uint32 {
	r = r[:min(len(r), 400)]
	out := make([]uint32, len(r))
	v := ^uint32(0)
	for i, g := range r {
		v += 1 + uint32(g&7)
		out[i] = v
	}
	return out
}

func BenchmarkAndSegMasks(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	const nblocks = 256 // 64 KiB of bitmap per side
	aw := randWords(rng, nblocks*BlockWords)
	bw := randWords(rng, nblocks*BlockWords)
	masks := make([]uint32, nblocks)
	for _, segBits := range []int{8, 16, 32} {
		for _, backend := range []string{"go", "asm"} {
			if backend == "asm" && !HasAsm() {
				continue
			}
			name := "seg" + itoa(segBits) + "/" + backend
			b.Run(name, func(b *testing.B) {
				prev := SetAsmEnabled(backend == "asm")
				defer SetAsmEnabled(prev)
				b.SetBytes(int64(nblocks * BlockWords * 8 * 2))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					sinkInt = AndSegMasks(masks, aw, bw, segBits)
				}
			})
		}
	}
}

func BenchmarkCountSmall(b *testing.B) {
	a := []uint32{3, 9, 17, 22, 31, 40, 51, 63}
	bb := []uint32{1, 9, 18, 22, 35, 40}
	for _, backend := range []string{"go", "asm"} {
		if backend == "asm" && !HasAsm() {
			continue
		}
		b.Run(backend, func(b *testing.B) {
			prev := SetAsmEnabled(backend == "asm")
			defer SetAsmEnabled(prev)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkInt = CountSmall(a, bb)
			}
		})
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [4]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
