package core

import (
	"fmt"
	"testing"
)

// hashProbeRangeNoHoist is the probe loop without the last-segment cache,
// kept verbatim as the baseline for BenchmarkHashProbeHoist: every surviving
// probe re-derives its segment number and reassembles the segment slice
// header, even when it lands in the same segment as its predecessor.
func hashProbeRangeNoHoist(small, large *Set, lo, hi int, emit Visitor) int {
	n := 0
	lb := &large.bm
	mBits := lb.Bits()
	for _, x := range small.reordered[lo:hi] {
		pos := large.build.hasher.Pos(x, mBits)
		if !lb.Test(pos) {
			continue
		}
		for _, v := range large.segment(lb.SegmentOf(pos)) {
			if v == x {
				n++
				if emit != nil {
					emit(x)
				}
				break
			}
			if v > x {
				break
			}
		}
	}
	return n
}

// TestHashProbeNoHoistParity pins the baseline copy to the real loop, so the
// benchmark comparison below stays honest if hashProbeElems evolves.
func TestHashProbeNoHoistParity(t *testing.T) {
	for _, sizes := range [][2]int{{1000, 1000}, {1000, 100_000}, {317, 40_000}} {
		sa, sb := benchPair(max(sizes[0], sizes[1]), 0.3, DefaultConfig())
		small, large := sa, sb
		if small.n > large.n {
			small, large = large, small
		}
		want := hashProbeElems(small.reordered, large, nil, nil, nil)
		if got := hashProbeRangeNoHoist(small, large, 0, small.n, nil); got != want {
			t.Fatalf("sizes %v: no-hoist %d, hoisted %d", sizes, got, want)
		}
	}
}

// BenchmarkHashProbeHoist measures the last-segment-cache hoist in
// hashProbeElems. "equal" is the regime the hoist targets: equal-size
// bitmaps, where the smaller set's segment-ordered element array maps whole
// runs of consecutive probes onto one segment of the larger set. "skewed" is
// the adversarial regime: a much larger target bitmap scatters consecutive
// probes, so the cache almost never hits and only its compare is measured.
func BenchmarkHashProbeHoist(b *testing.B) {
	regimes := []struct {
		name           string
		nSmall, nLarge int
		overlap        float64
	}{
		{"equal", 100_000, 100_000, 0.5},
		{"skewed", 10_000, 1_000_000, 0.5},
	}
	for _, r := range regimes {
		sa, sb := benchPair(r.nLarge, r.overlap, DefaultConfig())
		small, large := sa, sb
		if r.nSmall < r.nLarge {
			// Rebuild the probing side at its own size, overlapping large.
			small = MustNewSet(append([]uint32(nil), large.reordered[:r.nSmall]...), DefaultConfig())
		}
		if small.n > large.n {
			small, large = large, small
		}
		b.Run(fmt.Sprintf("%s/hoisted", r.name), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchSink += hashProbeElems(small.reordered, large, nil, nil, nil)
			}
		})
		b.Run(fmt.Sprintf("%s/nohoist", r.name), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchSink += hashProbeRangeNoHoist(small, large, 0, small.n, nil)
			}
		})
	}
}
