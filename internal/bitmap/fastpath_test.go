package bitmap

import (
	"fmt"
	"math/rand"
	"testing"

	"fesia/internal/simd"
)

func randBitmap(rng *rand.Rand, mBits uint64, segBits int, density float64) *Bitmap {
	bm := New(mBits, segBits)
	n := int(float64(mBits) * density)
	for i := 0; i < n; i++ {
		bm.Set(rng.Uint64() % mBits)
	}
	return bm
}

// TestFastFilterKParity compares the chunked mask-stream fast path of the
// k-way filter against its scalar word loop over random bitmaps: every
// segment width, two to five maps of halving sizes, and word sub-ranges.
func TestFastFilterKParity(t *testing.T) {
	if !simd.HasAsm() {
		t.Skip("assembly backend not available")
	}
	rng := rand.New(rand.NewSource(22))
	for _, segBits := range SupportedSegBits {
		for _, k := range []int{2, 3, 5} {
			maps := make([]Bitmap, k)
			mBits := uint64(16384)
			for i := range maps {
				maps[i] = *randBitmap(rng, mBits, segBits, 0.3)
				mBits = max64(256, mBits/2)
			}
			nw := len(maps[0].Words())
			for _, r := range [][2]int{{0, nw}, {2, nw - 3}, {nw / 4, nw / 2}} {
				collect := func() []int {
					var out []int
					ForEachIntersectingSegmentKRange(maps, r[0], r[1], func(seg int) {
						out = append(out, seg)
					})
					return out
				}
				prev := simd.SetAsmEnabled(true)
				got := collect()
				simd.SetAsmEnabled(false)
				want := collect()
				simd.SetAsmEnabled(prev)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("segBits=%d k=%d range=%v: fast=%d segs, scalar=%d segs", segBits, k, r, len(got), len(want))
				}
			}
		}
	}
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
