// Package bitmap implements FESIA's segmented bitmap (Section III-B) and the
// bitmap-level intersection of Section IV.
//
// A segmented bitmap is an m-bit vector (m a power of two) whose bits are
// grouped into segments of s bits. Set elements are hashed to bit positions;
// a segment is "live" when any of its bits is set. Intersecting bitmaps
// word-by-word and extracting the indices of non-zero segments yields the
// candidate segments whose element lists the segment-level kernels then
// intersect.
//
// This package holds the bitmap and the k-way walk of Section VI
// (ForEachIntersectingSegmentKRange), which also serves the two-set
// instrumentation (core.DispatchTrace, core.CountMergeBreakdown) at k = 2;
// the queries' two-set walk is core's merge body (core.(*lane).merge), which
// hands each live segment straight to its kernel. The three steps of Section
// IV map onto both as follows:
//
//	Step 1 (bitwise AND, "vandps")        → the word loop of ForEachIntersectingSegmentKRange
//	                                         and of core's merge body, or simd.AndSegMasks
//	                                         over 4-word blocks on the assembly backend
//	Step 2 (segment transformation,        → simd.SegmentMask8/16/32, producing one
//	        "pcmpeq*")                       bit per non-zero segment of a word
//	Step 3 (index extraction,              → the tzcnt/clear-lowest-bit loop over
//	        "pextrb"+"tzcnt")                that per-word mask
package bitmap

import (
	"fmt"

	"fesia/internal/hashutil"
	"fesia/internal/simd"
)

// Bitmap is an m-bit segmented bitmap. m is a power of two and at least 64;
// the segment size divides 64 so segments never straddle words.
type Bitmap struct {
	words   []uint64
	mBits   uint64
	segBits int
}

// SupportedSegBits lists the segment sizes the segment transformation
// supports, matching the pcmpeqb/pcmpeqw/pcmpeqd granularities.
var SupportedSegBits = []int{8, 16, 32}

// New returns an all-zero bitmap of mBits bits with segments of segBits bits.
// mBits must be a power of two >= 64 and segBits one of SupportedSegBits.
func New(mBits uint64, segBits int) *Bitmap {
	if !hashutil.IsPow2(mBits) || mBits < 64 {
		panic(fmt.Sprintf("bitmap: mBits %d must be a power of two >= 64", mBits))
	}
	if !validSegBits(segBits) {
		panic(fmt.Sprintf("bitmap: unsupported segment size %d", segBits))
	}
	return &Bitmap{
		words:   make([]uint64, mBits/64),
		mBits:   mBits,
		segBits: segBits,
	}
}

// NewFromWords returns, by value, a bitmap whose word storage is the
// caller-provided slice — typically a region of a shared arena, so many small
// bitmaps can live in one allocation and inside their owners' headers
// (core.BuildSets). len(words) must be mBits/64; the bitmap takes ownership
// of the slice.
func NewFromWords(words []uint64, mBits uint64, segBits int) Bitmap {
	if !hashutil.IsPow2(mBits) || mBits < 64 {
		panic(fmt.Sprintf("bitmap: mBits %d must be a power of two >= 64", mBits))
	}
	if !validSegBits(segBits) {
		panic(fmt.Sprintf("bitmap: unsupported segment size %d", segBits))
	}
	if uint64(len(words)) != mBits/64 {
		panic(fmt.Sprintf("bitmap: %d words for %d bits", len(words), mBits))
	}
	return Bitmap{words: words, mBits: mBits, segBits: segBits}
}

func validSegBits(s int) bool {
	for _, v := range SupportedSegBits {
		if v == s {
			return true
		}
	}
	return false
}

// Bits returns m, the bitmap size in bits.
func (b *Bitmap) Bits() uint64 { return b.mBits }

// SegBits returns s, the segment size in bits.
func (b *Bitmap) SegBits() int { return b.segBits }

// NumSegments returns m/s.
func (b *Bitmap) NumSegments() int { return int(b.mBits) / b.segBits }

// SegmentsPerWord returns how many segments one 64-bit word holds.
func (b *Bitmap) SegmentsPerWord() int { return 64 / b.segBits }

// Words exposes the raw words, for the parallel partitioning in core.
func (b *Bitmap) Words() []uint64 { return b.words }

// Set sets bit pos.
func (b *Bitmap) Set(pos uint64) {
	b.words[pos>>6] |= 1 << (pos & 63)
}

// Test reports whether bit pos is set.
func (b *Bitmap) Test(pos uint64) bool {
	return b.words[pos>>6]&(1<<(pos&63)) != 0
}

// SegmentOf returns the segment index containing bit pos.
func (b *Bitmap) SegmentOf(pos uint64) int { return int(pos) / b.segBits }

// PopCount returns the number of set bits, for diagnostics and tests.
func (b *Bitmap) PopCount() int {
	n := 0
	for _, w := range b.words {
		n += simd.Popcount64(w)
	}
	return n
}

// segMask applies the segment transformation of Section IV step 2 to one
// word, returning one bit per non-zero segment.
func segMask(w uint64, segBits int) uint32 {
	switch segBits {
	case 8:
		return simd.SegmentMask8(w)
	case 16:
		return simd.SegmentMask16(w)
	default:
		return simd.SegmentMask32(w)
	}
}

// ForEachIntersectingSegmentKRange streams the k-way AND of Section VI over
// words [wordLo, wordHi) of the largest bitmap — [0, len(Words())) for the
// whole bitmap, a share of it for multicore partitioning or a cancellable
// query's block. maps must be ordered with the largest bitmap first and all
// share one segment size; every smaller bitmap's size divides the largest
// (automatic for powers of two). fn receives the segment index in the
// largest bitmap; callers recover each set's own segment as segA mod that
// set's segment count.
func ForEachIntersectingSegmentKRange(maps []*Bitmap, wordLo, wordHi int, fn func(segA int)) {
	if len(maps) == 0 {
		panic("bitmap: no bitmaps")
	}
	a := maps[0]
	for _, m := range maps[1:] {
		if m.segBits != a.segBits {
			panic("bitmap: mismatched segment sizes")
		}
		if m.mBits > a.mBits {
			panic("bitmap: largest bitmap must come first")
		}
	}
	if len(maps) >= 2 && simd.AsmActive() && wordHi-wordLo >= 2*simd.BlockWords {
		forEachSegKFastRange(maps, wordLo, wordHi, fn)
		return
	}
	spw := a.SegmentsPerWord()
	for i := wordLo; i < wordHi; i++ {
		w := a.words[i]
		for _, bm := range maps[1:] {
			w &= bm.words[i&(len(bm.words)-1)]
			if w == 0 {
				break
			}
		}
		if w == 0 {
			continue
		}
		base := i * spw
		m := segMask(w, a.segBits)
		for m != 0 {
			fn(base + simd.Tzcnt32(m))
			m &= m - 1
		}
	}
}
