//go:build amd64 && !noasm

package simd

import "fesia/internal/cpuid"

// The AVX2 backend needs AVX2 (ymm VPAND/VPCMPEQ/VPMOVMSKB), BMI2 (PEXT in
// the 16-bit segment transformation) and POPCNT. Every AVX2 CPU since
// Haswell has all three.
var asmCapable = cpuid.HasAVX2 && cpuid.HasBMI2 && cpuid.HasPOPCNT

// avx512Capable is the static top-rung eligibility: every AVX-512 subset the
// routines in simd_avx512_amd64.s use (F: zmm/k-masks/compress/gather, VL:
// masked ymm loads, CD: VPCONFLICTD, DQ: VPMULLQ), validated by cpuid against
// the OS XCR0 opmask/ZMM state bits and the FESIA_DISABLE_AVX512 escape
// hatch. AVX2 capability is a prerequisite: the rungs form a ladder, never a
// fork.
var avx512Capable = asmCapable && cpuid.AVX512()

// asmOn is the live dispatch switch for the whole assembly backend. It
// starts at asmCapable and is only mutated by SetAsmEnabled (benchmarks and
// parity tests); it must not be toggled while queries are in flight.
var asmOn = asmCapable

// avx512On is the live switch for the top rung only. Avx512Active requires
// both switches, so SetAsmEnabled(false) still yields pure Go and
// SetAvx512Enabled(false) yields the forced-AVX2 tier.
var avx512On = avx512Capable

// HasAsm reports whether the assembly backend is compiled in and the CPU/OS
// support it, independent of test-time toggling.
func HasAsm() bool { return asmCapable }

// HasAVX512 reports whether the AVX-512 rung is compiled in and the CPU/OS
// support it, independent of test-time toggling (but after the
// FESIA_DISABLE_AVX512 escape hatch, which caps capability at probe time).
func HasAVX512() bool { return avx512Capable }

// AsmActive reports whether dispatched entry points currently take the
// assembly fast path (either rung).
func AsmActive() bool { return asmOn }

// Avx512Active reports whether dispatched entry points currently take the
// AVX-512 rung. Always implies AsmActive.
func Avx512Active() bool { return asmOn && avx512On }

// SetAsmEnabled switches the assembly backend (both rungs) on or off at run
// time and returns the previous state. Enabling is a no-op when the CPU
// lacks support. For benchmarks and parity tests only: not synchronized, so
// it must not race with queries.
func SetAsmEnabled(on bool) bool {
	prev := asmOn
	asmOn = on && asmCapable
	return prev
}

// SetAvx512Enabled switches the AVX-512 rung on or off at run time, leaving
// the AVX2 rung governed by SetAsmEnabled, and returns the previous state:
// off is the forced-AVX2 tier on AVX-512 hardware. Enabling is a no-op when
// the CPU lacks support. For benchmarks and parity tests only: not
// synchronized, so it must not race with queries.
func SetAvx512Enabled(on bool) bool {
	prev := avx512On
	avx512On = on && avx512Capable
	return prev
}

// Backend names the active kernel backend as a ladder:
// "avx512", "avx2" or "scalar".
func Backend() string {
	switch {
	case !asmOn:
		return "scalar"
	case avx512On:
		return "avx512"
	default:
		return "avx2"
	}
}

// Assembly routine declarations (simd_amd64.s). All operate on raw pointers
// so the hot paths stay free of slice-header traffic; wrappers below bind
// them to slices.

//go:noescape
func andSegMask8AVX2(masks *uint32, a, b *uint64, nblocks int) int

//go:noescape
func andSegMask16AVX2(masks *uint32, a, b *uint64, nblocks int) int

//go:noescape
func andSegMask32AVX2(masks *uint32, a, b *uint64, nblocks int) int

//go:noescape
func andWordsAVX2(dst, a, b *uint64, nblocks int) int

//go:noescape
func countSmallAVX2(a *uint32, la int, b *uint32, lb int) int

// AVX-512 routine declarations (simd_avx512_amd64.s).

//go:noescape
func count16AVX512(a *uint32, la int, b *uint32, lb int) int

//go:noescape
func intersect16AVX512(dst *uint32, a *uint32, la int, b *uint32, lb int) int

//go:noescape
func intersectConflictAVX512(dst *uint32, a *uint32, la int, b *uint32, lb int) int

//go:noescape
func containsAVX512(b *uint32, lb int, x uint32) int

//go:noescape
func probeStageAVX512(elems *uint32, n int, words *uint64, seed uint64, posMask uint64, outElems, outPos *uint32) int

func andSegMasksAsm(masks []uint32, a, b []uint64, segBits int) int {
	switch segBits {
	case 8:
		return andSegMask8AVX2(&masks[0], &a[0], &b[0], len(masks))
	case 16:
		return andSegMask16AVX2(&masks[0], &a[0], &b[0], len(masks))
	case 32:
		return andSegMask32AVX2(&masks[0], &a[0], &b[0], len(masks))
	default:
		panic("simd: AndSegMasks unsupported segment size")
	}
}

// andWordsBlocks runs the vector AND over nblocks 4-word blocks, returning
// the non-zero word count of that prefix.
func andWordsBlocks(dst, a, b []uint64, nblocks int) int {
	return andWordsAVX2(&dst[0], &a[0], &b[0], nblocks)
}

// countSmallAsm dispatches the broadcast-compare kernel down the ladder: the
// 16-lane AVX-512 kernel with the longer side in the register when the top
// rung is active (fewer broadcast iterations), else the 8-lane AVX2 kernel
// with the shorter side in the register; ok is false when neither side fits
// the widest available register.
func countSmallAsm(a, b []uint32) (int, bool) {
	if avx512On {
		if r, l, ok := pickRegisterSide(a, b, 16); ok {
			return count16AVX512(&r[0], len(r), &l[0], len(l)), true
		}
	}
	if len(b) <= 8 {
		return countSmallAVX2(&a[0], len(a), &b[0], len(b)), true
	}
	if len(a) <= 8 {
		return countSmallAVX2(&b[0], len(b), &a[0], len(a)), true
	}
	return 0, false
}

// pickRegisterSide returns (register side, loop side): the longer side when
// it fits lanes, else the shorter side when it fits, else ok=false.
func pickRegisterSide(a, b []uint32, lanes int) ([]uint32, []uint32, bool) {
	r, l := a, b
	if len(l) > len(r) {
		r, l = l, r
	}
	if len(r) > lanes { // longer side spills: register the shorter side
		r, l = l, r
		if len(r) > lanes {
			return nil, nil, false
		}
	}
	return r, l, true
}

// intersectSmallAsm is the materializing twin of countSmallAsm: AVX-512
// compress-store only (the AVX2 rung has no ordered-output kernel — that is
// exactly the gap this rung closes). When both sides fit 8 lanes the
// loop-free VPCONFLICTD kernel is dispatched (measured faster than the
// broadcast loop on Ice Lake-class cores, where VPCONFLICTD is cheap);
// otherwise the 16-lane broadcast kernel runs with the longer side in the
// register. ok is false when the top rung is off, neither side fits 16
// lanes, or dst has room for fewer than min(len(a), len(b)) elements, the
// most a kernel can store: a merge writing into the tail of its output may
// pass less, and the scalar merge then writes only the matches. Either side
// may be compressed: segment element lists are sorted, so register-side
// order equals loop-side order.
func intersectSmallAsm(dst, a, b []uint32) (int, bool) {
	if !avx512On || len(dst) < min(len(a), len(b)) {
		return 0, false
	}
	if len(a) <= 8 && len(b) <= 8 {
		return intersectConflictAVX512(&dst[0], &a[0], len(a), &b[0], len(b)), true
	}
	if r, l, ok := pickRegisterSide(a, b, 16); ok {
		return intersect16AVX512(&dst[0], &r[0], len(r), &l[0], len(l)), true
	}
	return 0, false
}

// IntersectSmallConflict exposes the loop-free VPCONFLICTD 8x8 materializing
// kernel directly, for the kernel-selection benchmark in parity_avx512_test.go
// and fesiabench (production dispatch reaches it through IntersectSmall).
// Both sides must be non-empty and fit 8 lanes, and the top rung must be
// active; returns ok=false otherwise.
func IntersectSmallConflict(dst, a, b []uint32) (int, bool) {
	if !Avx512Active() || len(a) == 0 || len(b) == 0 || len(a) > 8 || len(b) > 8 {
		return 0, false
	}
	return intersectConflictAVX512(&dst[0], &a[0], len(a), &b[0], len(b)), true
}

// containsAsm is the AVX-512 membership probe over a non-empty list.
func containsAsm(list []uint32, x uint32) bool {
	return containsAVX512(&list[0], len(list), x) != 0
}

// probeStageAsm runs the gathered hash-probe stage over n elements (n a
// multiple of 16, checked by the portable wrapper).
func probeStageAsm(elems []uint32, n int, words []uint64, seed, posMask uint64, outE, outP []uint32) int {
	return probeStageAVX512(&elems[0], n, &words[0], seed, posMask, &outE[0], &outP[0])
}
