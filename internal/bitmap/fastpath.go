package bitmap

import "fesia/internal/simd"

// Chunked mask-stream fast path for the k-way bitmap filter. When the
// assembly backend is active, the word loop of ForEachIntersectingSegmentKRange
// is replaced by a chunk-wise k-way AND followed by simd.AndSegMasks over
// 4-word blocks: the fused VPAND + VPCMPEQ + VPMOVMSKB kernel emits one
// compact live-segment mask per block into a stack buffer, and index
// extraction then runs over the mask stream — one branch per block instead
// of one per word, and the filter itself branch-free. Partial blocks at the
// range edges are handled by computing the full block's mask and trimming
// the out-of-range segment bits (reads beyond [lo,hi) stay inside the
// bitmap because word counts on this path are multiples of BlockWords;
// concurrent range workers only ever read the shared words).

// fastChunkBlocks is the mask buffer size: 256 blocks = 1024 words = 8 KiB of
// bitmap per side per chunk, L1-resident alongside the segment data.
const fastChunkBlocks = 256

const fastChunkWords = fastChunkBlocks * simd.BlockWords

// forEachSegKFastRange is the fast-path body of the k-way filter: the k-way
// AND is materialized chunk-wise into a stack buffer (contiguous sub-runs per
// wrapped bitmap, vectorized by AndWords), then the segment transformation
// runs on the result. maps is ordered largest-first; preconditions of the
// caller's gate hold (range at least two blocks; the largest bitmap's word
// count, being >= the range, is a multiple of BlockWords).
func forEachSegKFastRange(maps []Bitmap, lo, hi int, fn func(segA int)) {
	a := &maps[0]
	spw := a.SegmentsPerWord()
	segBits := a.segBits
	loDown := lo &^ (simd.BlockWords - 1)
	hiUp := (hi + simd.BlockWords - 1) &^ (simd.BlockWords - 1)
	var tmp [fastChunkWords]uint64
	var masks [fastChunkBlocks]uint32
	for cb := loDown; cb < hiUp; {
		nw := hiUp - cb
		if nw > fastChunkWords {
			nw = fastChunkWords
		}
		chunk := tmp[:nw]
		andWrapInto(chunk, a.words[cb:cb+nw], maps[1].words, cb)
		for j := range maps[2:] {
			andWrapInto(chunk, chunk, maps[2+j].words, cb)
		}
		nb := nw / simd.BlockWords
		live := simd.AndSegMasks(masks[:nb], chunk, chunk, segBits)
		if live != 0 {
			if cb < lo {
				masks[0] &^= 1<<uint((lo-cb)*spw) - 1
			}
			if end := cb + nw; end > hi {
				last := end - simd.BlockWords
				masks[nb-1] &= 1<<uint((hi-last)*spw) - 1
			}
			for bi := 0; bi < nb; bi++ {
				m := masks[bi]
				if m == 0 {
					continue
				}
				base := (cb + bi*simd.BlockWords) * spw
				for m != 0 {
					fn(base + simd.Tzcnt32(m))
					m &= m - 1
				}
			}
		}
		cb += nw
	}
}

// andWrapInto computes dst[i] = x[i] & y[(xStart+i) mod len(y)] by splitting
// the window into contiguous runs of y (len(y) is a power of two). dst may
// alias x.
func andWrapInto(dst, x, y []uint64, xStart int) {
	wordMask := len(y) - 1
	done := 0
	for done < len(dst) {
		yOff := (xStart + done) & wordMask
		run := len(dst) - done
		if r := len(y) - yOff; r < run {
			run = r
		}
		simd.AndWords(dst[done:done+run], x[done:done+run], y[yOff:yOff+run])
		done += run
	}
}
