package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"fesia/internal/simd"
	"fesia/internal/stats"
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
// benchmark comparison below stays honest if probeDirect evolves.
func TestHashProbeNoHoistParity(t *testing.T) {
	for _, sizes := range [][2]int{{1000, 1000}, {1000, 100_000}, {317, 40_000}} {
		sa, sb := benchPair(max(sizes[0], sizes[1]), 0.3, DefaultConfig())
		small, large := sa, sb
		if small.n > large.n {
			small, large = large, small
		}
		want, _ := probeDirect(small.reordered, large, nil, nil)
		if got := hashProbeRangeNoHoist(small, large, 0, small.n, nil); got != want {
			t.Fatalf("sizes %v: no-hoist %d, hoisted %d", sizes, got, want)
		}
	}
}

// BenchmarkHashProbeHoist measures the last-segment-cache hoist in
// probeDirect. "equal" is the regime the hoist targets: equal-size
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
				n, _ := probeDirect(small.reordered, large, nil, nil)
				benchSink += n
			}
		})
		b.Run(fmt.Sprintf("%s/nohoist", r.name), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchSink += hashProbeRangeNoHoist(small, large, 0, small.n, nil)
			}
		})
	}
}

// TestProbeParity holds every body probe can pick to one reference on every
// rung of the ladder: list lengths straddle the gathered stage's 16-lane
// block, the staged body's 128-element block and probeStagedMin, and each
// length runs into a fresh dst, through emit, and in place with dst aliasing
// elems (the probe chain's compaction). Matches must arrive in elems' order,
// and the survivor counters must agree on every rung.
func TestProbeParity(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	large := MustNewSet(randSet(rng, 60_000, 1<<20), DefaultConfig())
	for _, n := range []int{1, 15, 16, 17, 127, 128, 129, probeStagedMin - 1, probeStagedMin,
		probeStagedMin + 17, 4*probeBlock + 15} {
		elems := MustNewSet(randSet(rng, n, 1<<20), DefaultConfig()).reordered
		var want []uint32
		for _, x := range elems {
			if large.Contains(x) {
				want = append(want, x)
			}
		}
		names, res := runTiers(t, func() any {
			st := stats.New()
			sh := st.NewShard()
			dst := make([]uint32, len(elems))
			k, _ := probe(elems, large, dst, nil, sh)
			var got []uint32
			if m, _ := probe(elems, large, nil, func(x uint32) { got = append(got, x) }, sh); m != k {
				t.Fatalf("%s n=%d: emit counted %d, dst %d", simd.Backend(), n, m, k)
			}
			inPlace := slices.Clone(elems)
			j, _ := probe(inPlace, large, inPlace, nil, sh)
			for name, out := range map[string][]uint32{"dst": dst[:k], "emit": got, "in place": inPlace[:j]} {
				if !slices.Equal(out, want) {
					t.Fatalf("%s n=%d staged=%v: %s wrote %d matches, want %d in elems' order",
						simd.Backend(), n, probeStages(n, large), name, len(out), len(want))
				}
			}
			snap := st.Snapshot()
			return [2]uint64{snap.Counter(stats.CtrHashProbes), snap.Counter(stats.CtrHashSurvivors)}
		})
		for i := range res {
			if res[i] != res[0] || res[i].([2]uint64)[0] != uint64(3*len(elems)) {
				t.Fatalf("n=%d: %s counted (probes, survivors) %v, %s %v", n, names[i], res[i], names[0], res[0])
			}
		}
	}
}

// BenchmarkProbeArms is the sweep behind probeStagedMin: the staged body
// against the direct loop over probing lists of 4-8,192 elements, in three
// regimes — eight 1M-element sets at 10% density (a pool past L3, as in the
// pairs-skewed workload), one 200k-element set at ~1% and four 100k-element
// sets at 10% (both cache-resident) — on each available rung. Every op
// probes 32 lists round-robin over the regime's sets once with each body,
// alternating which body goes first, and reports each body's ns per probe
// and staged/direct (below 1 where staging wins). Rungs without the gathered
// stage have no staged body and report the direct loop alone. make
// probebench runs it.
func BenchmarkProbeArms(b *testing.B) {
	regimes := []struct {
		name     string
		sets, n  int
		universe uint32
	}{
		{"mem-8x1M-10pct", 8, 1_000_000, 10_000_000},
		{"cache-1x200k-1pct", 1, 200_000, 20_000_000},
		{"cache-4x100k-10pct", 4, 100_000, 1_000_000},
	}
	prevAsm, prevAvx512 := simd.SetAsmEnabled(true), simd.SetAvx512Enabled(true)
	defer func() {
		simd.SetAvx512Enabled(prevAvx512)
		simd.SetAsmEnabled(prevAsm)
	}()
	for _, r := range regimes {
		rng := rand.New(rand.NewSource(int64(r.n)))
		targets := make([]*Set, r.sets)
		for i := range targets {
			targets[i] = MustNewSet(randSet(rng, r.n, r.universe), DefaultConfig())
		}
		for _, n := range []int{4, 16, 64, 128, 256, 512, 1024, 2048, 8192} {
			lists := make([][]uint32, 32)
			for i := range lists {
				lists[i] = MustNewSet(randSet(rng, n, r.universe), DefaultConfig()).reordered
			}
			for _, rung := range []string{"scalar", "avx2", "avx512"} {
				if (rung == "avx2" && !simd.HasAsm()) || (rung == "avx512" && !simd.HasAVX512()) {
					continue
				}
				simd.SetAsmEnabled(rung != "scalar")
				simd.SetAvx512Enabled(rung == "avx512")
				staged := probeStages(probeStagedMin, targets[0])
				b.Run(fmt.Sprintf("%s/%s/n=%d", rung, r.name, n), func(b *testing.B) {
					var direct, stagedT time.Duration
					pass := func(stage bool) {
						start := time.Now()
						for i, l := range lists {
							large := targets[i%len(targets)]
							if stage {
								m, _, touch := probeStaged(l, large, nil, nil)
								benchSink += m + int(touch&1)
							} else {
								m, _ := probeDirect(l, large, nil, nil)
								benchSink += m
							}
						}
						if stage {
							stagedT += time.Since(start)
						} else {
							direct += time.Since(start)
						}
					}
					for i := 0; i < b.N; i++ {
						first := i%2 == 0 || !staged
						pass(!first)
						if staged {
							pass(first)
						}
					}
					probes := float64(b.N * len(lists) * n)
					b.ReportMetric(float64(direct)/probes, "direct-ns/probe")
					if staged {
						b.ReportMetric(float64(stagedT)/probes, "staged-ns/probe")
						b.ReportMetric(float64(stagedT)/float64(direct), "staged/direct")
					}
				})
			}
		}
	}
}
