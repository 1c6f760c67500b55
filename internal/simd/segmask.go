package simd

// Fused bitmap filtering: step 1 + step 2 of Section IV in one pass. Instead
// of ANDing one 64-bit word at a time and applying the segment transformation
// to each non-zero word, AndSegMasks processes BlockWords words (one 256-bit
// register on the AVX2 backend) per iteration — VPAND, VPCMPEQB/W/D against
// zero, VPMOVMSKB — and emits one compact per-block mask with a bit per live
// segment. Consumers then extract segment indices from the mask stream with
// tzcnt, exactly as step 3 prescribes, but over 4x fewer loop iterations and
// with no data-dependent branch in the filter itself.
//
// The pure-Go implementation below is the reference semantics (and the only
// implementation on non-amd64 or under the `noasm` build tag); the assembly
// backend in simd_amd64.s must match it bit for bit, which the parity fuzz
// tests assert.

// BlockWords is the number of 64-bit bitmap words one AndSegMasks block
// covers: 4 words = 256 bits = one ymm register.
const BlockWords = 4

// BlockSegs returns the number of segments (mask bits) per block for a
// segment size: 32, 16 or 8 for 8-, 16- and 32-bit segments.
func BlockSegs(segBits int) int { return BlockWords * 64 / segBits }

// AndSegMasks computes, for each block i of BlockWords words, a mask whose
// bit k is set iff segment k of a[4i:4i+4] & b[4i:4i+4] is non-zero, and
// stores it in masks[i]. Bit k of masks[i] corresponds to segment
// i*BlockSegs(segBits) + k of the ANDed bitmap. It returns the total number
// of live segments (set mask bits). len(a) and len(b) must both equal
// BlockWords*len(masks); segBits must be 8, 16 or 32.
func AndSegMasks(masks []uint32, a, b []uint64, segBits int) int {
	if len(a) != len(b) || len(a) != BlockWords*len(masks) {
		panic("simd: AndSegMasks length mismatch")
	}
	if len(masks) == 0 {
		return 0
	}
	if AsmActive() {
		return andSegMasksAsm(masks, a, b, segBits)
	}
	return AndSegMasksGeneric(masks, a, b, segBits)
}

// AndSegMasksWrap is AndSegMasks over a window of a larger bitmap with the
// smaller operand wrapped (the different-bitmap-size rule of Section III-C):
// block i covers x words [xStart+4i, xStart+4i+4), each ANDed with the y word
// at the same index mod len(y). len(y) must be a power of two of at least
// BlockWords words and xStart a multiple of BlockWords — then every wrap
// boundary falls on a block boundary and the window splits into contiguous
// runs, each handed to AndSegMasks whole. Returns the total live segments.
func AndSegMasksWrap(masks []uint32, x, y []uint64, xStart, segBits int) int {
	wordMask := len(y) - 1
	nWords := BlockWords * len(masks)
	live, done := 0, 0
	for done < nWords {
		i := xStart + done
		yOff := i & wordMask
		run := nWords - done
		if r := len(y) - yOff; r < run {
			run = r
		}
		mb := done / BlockWords
		live += AndSegMasks(masks[mb:mb+run/BlockWords], x[i:i+run], y[yOff:yOff+run], segBits)
		done += run
	}
	return live
}

// AndSegMasksGeneric is the portable reference implementation of
// AndSegMasks, always taken on the scalar backend. Exposed so benchmarks and
// parity tests can pin the pure-Go path regardless of dispatch state.
func AndSegMasksGeneric(masks []uint32, a, b []uint64, segBits int) int {
	if len(a) != len(b) || len(a) != BlockWords*len(masks) {
		panic("simd: AndSegMasks length mismatch")
	}
	live := 0
	switch segBits {
	case 8:
		for i := range masks {
			j := i * BlockWords
			m := segMaskWord8(a[j]&b[j]) |
				segMaskWord8(a[j+1]&b[j+1])<<8 |
				segMaskWord8(a[j+2]&b[j+2])<<16 |
				segMaskWord8(a[j+3]&b[j+3])<<24
			masks[i] = m
			live += Popcount32(m)
		}
	case 16:
		for i := range masks {
			j := i * BlockWords
			m := segMaskWord16(a[j]&b[j]) |
				segMaskWord16(a[j+1]&b[j+1])<<4 |
				segMaskWord16(a[j+2]&b[j+2])<<8 |
				segMaskWord16(a[j+3]&b[j+3])<<12
			masks[i] = m
			live += Popcount32(m)
		}
	case 32:
		for i := range masks {
			j := i * BlockWords
			m := segMaskWord32(a[j]&b[j]) |
				segMaskWord32(a[j+1]&b[j+1])<<2 |
				segMaskWord32(a[j+2]&b[j+2])<<4 |
				segMaskWord32(a[j+3]&b[j+3])<<6
			masks[i] = m
			live += Popcount32(m)
		}
	default:
		panic("simd: AndSegMasks unsupported segment size")
	}
	return live
}

// segMaskWord8 is the branch-free scalar segment transformation for 8-bit
// segments over one word: bit i of the result is set iff byte i of w is
// non-zero. Equivalent to SegmentMask8 but without its eight branches: the
// OR-cascade folds each byte's bits into its bit 0, and the multiply gathers
// those eight bits into the top byte (all partial products land on distinct
// bit positions, so no carries occur).
func segMaskWord8(w uint64) uint32 {
	t := w | w>>4
	t |= t >> 2
	t |= t >> 1
	t &= 0x0101010101010101
	return uint32(t * 0x0102040810204080 >> 56)
}

// segMaskWord16 is segMaskWord8 for 16-bit segments: bit i set iff half-word
// i of w is non-zero (4 result bits).
func segMaskWord16(w uint64) uint32 {
	t := w | w>>8
	t |= t >> 4
	t |= t >> 2
	t |= t >> 1
	t &= 0x0001000100010001
	const m = 1<<48 | 1<<33 | 1<<18 | 1<<3
	return uint32(t*m>>48) & 0xF
}

// segMaskWord32 is segMaskWord8 for 32-bit segments: bit i set iff 32-bit
// half i of w is non-zero (2 result bits).
func segMaskWord32(w uint64) uint32 {
	lo := w & 0xFFFFFFFF
	hi := w >> 32
	return uint32((lo|-lo)>>63) | uint32((hi|-hi)>>63)<<1
}

// CountSmall counts |a ∩ b| for two sorted sets of any sizes, choosing its
// body from the sizes and the live rung: when either side fits a register
// (16 lanes on the AVX-512 rung, 8 on AVX2), that side is masked-loaded
// once, every element of the other side is broadcast against it, and the
// compare masks accumulate — the Lemire intersection idiom. Otherwise, and
// on the scalar rung, it runs a scalar merge. internal/core counts every
// segment pair, k-way chain step and array pair here.
func CountSmall(a, b []uint32) int {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	if AsmActive() {
		if n, ok := countSmallAsm(a, b); ok {
			return n
		}
	}
	return countSmallGeneric(a, b)
}

// IntersectSmall writes a ∩ b to dst in ascending order and returns the
// number of elements written. dst must have room for the matches; the SIMD
// bodies run only when it has room for min(len(a), len(b)), so a caller
// writing into the tail of a buffer sized for its whole result (core's
// merge body, (*lane).merge) may pass less.
// On the AVX-512 rung the register side is mask-loaded once, the loop side
// broadcast-compared against it, and one VPCOMPRESSD stores the matching
// lanes contiguously in order — the compress-store materialize path the AVX2
// rung lacks (it can only count). It runs a scalar merge when neither side
// fits 16 lanes and on the lower rungs. internal/core materializes every
// segment pair, k-way chain step and array pair here.
func IntersectSmall(dst, a, b []uint32) int {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	if Avx512Active() {
		if n, ok := intersectSmallAsm(dst, a, b); ok {
			return n
		}
	}
	return IntersectSmallGeneric(dst, a, b)
}

// IntersectSmallGeneric is the scalar two-pointer merge IntersectSmall falls
// back to. Exposed so parity tests can pin the pure-Go path regardless of
// dispatch state.
func IntersectSmallGeneric(dst, a, b []uint32) int {
	i, j, n := 0, 0, 0
	for i < len(a) && j < len(b) {
		av, bv := a[i], b[j]
		switch {
		case av < bv:
			i++
		case av > bv:
			j++
		default:
			dst[n] = av
			n++
			i++
			j++
		}
	}
	return n
}

// countSmallGeneric is the scalar two-pointer merge CountSmall falls back to.
func countSmallGeneric(a, b []uint32) int {
	i, j, n := 0, 0, 0
	for i < len(a) && j < len(b) {
		av, bv := a[i], b[j]
		if av < bv {
			i++
		} else if av > bv {
			j++
		} else {
			i++
			j++
			n++
		}
	}
	return n
}

// Contains reports whether x occurs in the sorted list: the AVX-512
// compare-all-lanes probe for lists of 16 or more elements on that rung (the
// hash-probe strategy's scan of longer segments), a scalar early-exit scan
// otherwise. The AVX2 rung has no probe of its own: its compare-all-lanes
// loop read slower than the scalar scan (EXPERIMENTS.md).
func Contains(list []uint32, x uint32) bool {
	if Avx512Active() && len(list) >= 16 {
		return containsAsm(list, x)
	}
	for _, v := range list {
		if v == x {
			return true
		}
		if v > x {
			return false
		}
	}
	return false
}
