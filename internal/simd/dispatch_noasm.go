//go:build !amd64 || noasm

package simd

// Scalar-only build: no assembly backend exists, dispatch is compiled out,
// and every entry point takes the pure-Go reference path. This file is the
// `noasm` escape hatch (and the default on non-amd64 architectures).

// HasAsm reports whether the assembly backend is compiled in: never, here.
func HasAsm() bool { return false }

// HasAVX512 reports whether the AVX-512 rung is compiled in: never, here.
func HasAVX512() bool { return false }

// AsmActive is constant false so the compiler removes the fast-path branches.
func AsmActive() bool { return false }

// Avx512Active is constant false so the compiler removes the top-rung
// branches.
func Avx512Active() bool { return false }

// SetAsmEnabled is a no-op on scalar-only builds; it reports the (always
// false) previous state.
func SetAsmEnabled(bool) bool { return false }

// SetAvx512Enabled is a no-op on scalar-only builds; it reports the (always
// false) previous state.
func SetAvx512Enabled(bool) bool { return false }

// Backend names the active kernel backend: always "scalar" here.
func Backend() string { return "scalar" }

// The stubs below keep the dispatching call sites compiling; AsmActive() is
// false, so they are unreachable.

func andSegMasksAsm(masks []uint32, a, b []uint64, segBits int) int {
	return AndSegMasksGeneric(masks, a, b, segBits)
}

func andWordsBlocks(dst, a, b []uint64, nblocks int) int {
	panic("simd: no assembly backend")
}

func countSmallAsm(a, b []uint32) (int, bool) { return 0, false }

func intersectSmallAsm(dst, a, b []uint32) (int, bool) { return 0, false }

// IntersectSmallConflict is the VPCONFLICTD kernel probe: never available on
// scalar-only builds.
func IntersectSmallConflict(dst, a, b []uint32) (int, bool) { return 0, false }

func containsAsm(list []uint32, x uint32) bool {
	panic("simd: no assembly backend")
}

func probeStageAsm(elems []uint32, n int, words []uint64, seed, posMask uint64, outE, outP []uint32) int {
	panic("simd: no assembly backend")
}
