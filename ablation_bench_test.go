// Ablation benchmarks for the design choices the paper motivates:
//
//   - code specialization (Section V): dispatching to per-size kernels vs
//     always running the scalar generic kernel on surviving segment pairs;
//   - bitmap sizing (Section III-D): m = n·√w against smaller and larger
//     bitmaps, exposing the filter-cost/false-positive trade-off behind
//     Proposition 1;
//   - segment size (Fig. 14): s ∈ {8, 16, 32};
//   - adaptive strategy switching (Section VI): the skew-threshold switch
//     against always-merge and always-hash;
//   - kernel stride sampling (Section VI): run-time cost of rounding sizes
//     up to sampled kernels.
//
// Run with: go test -bench=Ablation -benchmem
package fesia

import (
	"fmt"
	"math/rand"
	"testing"

	"fesia/internal/baselines"
	"fesia/internal/core"
	"fesia/internal/datasets"
	"fesia/internal/experiments"
	"fesia/internal/kernels"
	"fesia/internal/simd"
)

// BenchmarkAblationSpecialization compares jump-table dispatch to
// specialized kernels against the generic scalar kernel over the same
// segment-size distribution the bitmap filter produces.
func BenchmarkAblationSpecialization(b *testing.B) {
	rng := rand.New(rand.NewSource(31))
	const n = 200_000
	ea, eb := datasets.GenPairSelectivity(rng, n, n, 0.01, uint32(16*n))
	cfg := core.Config{Width: simd.WidthAVX}
	sa := core.MustNewSet(ea, cfg)
	sb := core.MustNewSet(eb, cfg)
	pairs := tracePairs(core.DispatchTrace(sa, sb), 32)
	tbl := kernels.ForWidth(simd.WidthAVX)
	b.Run("specialized", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, p := range pairs {
				benchSink += tbl.Count(p.a, p.b)
			}
		}
	})
	b.Run("generic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, p := range pairs {
				benchSink += kernels.GenericCount(p.a, p.b)
			}
		}
	})
}

// segPair is one segment pair of a replayed dispatch trace.
type segPair struct{ a, b []uint32 }

// tracePairs rebuilds segment slices of the sizes a DispatchTrace records,
// with random overlaps, for replaying the trace through a kernel table.
func tracePairs(trace [][2]int, seed int64) []segPair {
	pairs := make([]segPair, 0, len(trace))
	rng := rand.New(rand.NewSource(seed))
	for _, t := range trace {
		x, y := datasets.GenPair(rng, t[0], t[1],
			rng.Intn(min(t[0], t[1])+1), uint32(8*(t[0]+t[1]+2)))
		pairs = append(pairs, segPair{x, y})
	}
	return pairs
}

// BenchmarkAblationFastVsFESIA isolates FESIA's SIMD design (segment
// transformation + specialized kernels) from the shared bitmap-pruning idea
// by comparing against Fast [4], its non-SIMD predecessor with the same
// O(n/√w + r) complexity (Table I).
func BenchmarkAblationFastVsFESIA(b *testing.B) {
	rng := rand.New(rand.NewSource(38))
	const n = 200_000
	for _, sel := range []float64{0, 0.01, 0.16} {
		ea, eb := datasets.GenPairSelectivity(rng, n, n, sel, uint32(16*n))
		methods := []experiments.PairMethod{
			experiments.ScalarMethod(),
			experiments.FastMethod(),
			experiments.FESIAMethod("FESIA", core.Config{Width: simd.WidthAVX}),
		}
		for _, m := range methods {
			op := m.Prepare(ea, eb)
			b.Run(fmt.Sprintf("sel=%.2f/%s", sel, m.Name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					benchSink += op()
				}
			})
		}
	}
}

// BenchmarkAblationHieraDensity exercises the Hiera [3] limitation the
// paper cites ("its effectiveness highly depends on the data distribution
// ... it downgrades to a scalar approach when the elements in input sets
// are sparse"): on sparse data every 16-bit bucket holds about one element
// and Hiera is scalar merge plus bucket overhead. (Hiera's dense-data win
// requires native STTNI throughput — one instruction per 8x8 block — which
// the one-op-per-comparison emulation deliberately does not grant any
// method; FESIA's advantage here is algorithmic and survives.)
func BenchmarkAblationHieraDensity(b *testing.B) {
	rng := rand.New(rand.NewSource(39))
	const n = 100_000
	for _, dense := range []bool{true, false} {
		universe := uint32(1 << 31)
		label := "sparse"
		if dense {
			universe = uint32(4 * n)
			label = "dense"
		}
		ea, eb := datasets.GenPair(rng, n, n, n/100, universe)
		ha, hb := baselines.NewHieraSet(ea), baselines.NewHieraSet(eb)
		b.Run(label+"/Hiera", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchSink += baselines.CountHiera(ha, hb)
			}
		})
		b.Run(label+"/Scalar", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchSink += baselines.CountScalar(ea, eb)
			}
		})
		fesiaOp := experiments.FESIAMethod("FESIA", core.Config{Width: simd.WidthAVX}).Prepare(ea, eb)
		b.Run(label+"/FESIA", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchSink += fesiaOp()
			}
		})
	}
}

// BenchmarkAblationBitmapScale sweeps m/n around the paper's m = n·√w
// optimum (scale 16 for AVX).
func BenchmarkAblationBitmapScale(b *testing.B) {
	rng := rand.New(rand.NewSource(33))
	const n = 200_000
	ea, eb := datasets.GenPairSelectivity(rng, n, n, 0.01, uint32(16*n))
	for _, scale := range []float64{1, 4, 16, 64, 256} {
		cfg := core.Config{Width: simd.WidthAVX, Scale: scale}
		sa := core.MustNewSet(ea, cfg)
		sb := core.MustNewSet(eb, cfg)
		b.Run(fmt.Sprintf("scale=%.0f", scale), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchSink += core.CountMerge(sa, sb)
			}
		})
	}
}

// BenchmarkAblationSegBits sweeps the segment size at fixed bitmap size.
func BenchmarkAblationSegBits(b *testing.B) {
	rng := rand.New(rand.NewSource(34))
	const n = 200_000
	ea, eb := datasets.GenPairSelectivity(rng, n, n, 0.01, uint32(16*n))
	for _, segBits := range []int{8, 16, 32} {
		cfg := core.Config{Width: simd.WidthAVX, SegBits: segBits}
		sa := core.MustNewSet(ea, cfg)
		sb := core.MustNewSet(eb, cfg)
		b.Run(fmt.Sprintf("s=%d", segBits), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchSink += core.CountMerge(sa, sb)
			}
		})
	}
}

// BenchmarkAblationAdaptive compares the adaptive strategy against the two
// fixed strategies across the skew range.
func BenchmarkAblationAdaptive(b *testing.B) {
	rng := rand.New(rand.NewSource(35))
	const n2 = 200_000
	for _, skew := range []float64{1.0 / 64, 1.0 / 4, 1} {
		n1 := int(float64(n2) * skew)
		ea, eb := datasets.GenPair(rng, n1, n2, n1/10, uint32(16*n2))
		sa := core.MustNewSet(ea, core.DefaultConfig())
		sb := core.MustNewSet(eb, core.DefaultConfig())
		b.Run(fmt.Sprintf("skew=%.3f/adaptive", skew), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchSink += core.Count(sa, sb)
			}
		})
		b.Run(fmt.Sprintf("skew=%.3f/merge", skew), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchSink += core.CountMerge(sa, sb)
			}
		})
		b.Run(fmt.Sprintf("skew=%.3f/hash", skew), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchSink += core.CountHash(sa, sb)
			}
		})
	}
}

// BenchmarkAblationKernelStride measures the run-time cost of stride
// sampling (redundant comparisons from rounded-up kernels) that Table II's
// code-size savings buy, by replaying one pair's dispatch trace through each
// sampled AVX512 table (kernels.ForStride).
func BenchmarkAblationKernelStride(b *testing.B) {
	rng := rand.New(rand.NewSource(36))
	const n = 200_000
	ea, eb := datasets.GenPairSelectivity(rng, n, n, 0.01, uint32(16*n))
	cfg := core.Config{Width: simd.WidthAVX512}
	pairs := tracePairs(core.DispatchTrace(core.MustNewSet(ea, cfg), core.MustNewSet(eb, cfg)), 36)
	for _, stride := range []int{1, 4, 8} {
		tbl := kernels.ForStride(stride)
		b.Run(fmt.Sprintf("stride=%d", stride), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, p := range pairs {
					benchSink += tbl.Count(p.a, p.b)
				}
			}
		})
	}
}

// BenchmarkAblationParallel measures bitmap-partitioned parallel scaling.
// (On a single-CPU host this shows goroutine overhead, not speedup; the
// partitioning itself is correctness-tested in internal/core.)
func BenchmarkAblationParallel(b *testing.B) {
	rng := rand.New(rand.NewSource(37))
	const n = 1_000_000
	ea, eb := datasets.GenPairSelectivity(rng, n, n, 0.01, uint32(16*n))
	sa := core.MustNewSet(ea, core.DefaultConfig())
	sb := core.MustNewSet(eb, core.DefaultConfig())
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchSink += core.CountMergeParallel(sa, sb, workers)
			}
		})
	}
}
