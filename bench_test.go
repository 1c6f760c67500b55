// Benchmarks regenerating every table and figure of the FESIA paper's
// evaluation (one Benchmark function per table/figure). Run them all with
//
//	go test -bench=. -benchmem
//
// These use moderate input sizes so the full suite completes in minutes;
// cmd/fesiabench runs the same experiments at paper scale and prints the
// result tables. See EXPERIMENTS.md for recorded paper-vs-measured results.
package fesia

import (
	"fmt"
	"math/rand"
	"testing"

	"fesia/internal/baselines"
	"fesia/internal/core"
	"fesia/internal/datasets"
	"fesia/internal/experiments"
	"fesia/internal/graph"
	"fesia/internal/icachesim"
	"fesia/internal/invindex"
	"fesia/internal/kernels"
	"fesia/internal/simd"
)

var benchSink int

// ---------------------------------------------------------------------------
// Figures 4-6: specialized vs general kernels per ISA width.
// ---------------------------------------------------------------------------

func benchKernels(b *testing.B, w simd.Width) {
	rng := rand.New(rand.NewSource(4))
	tbl := kernels.ForWidth(w)
	sizes := []struct{ sa, sb int }{
		{1, 1}, {1, tbl.Cap() / 2}, {2, 4}, {tbl.Cap() / 2, tbl.Cap() / 2},
		{tbl.Cap(), tbl.Cap()},
	}
	for _, sz := range sizes {
		if sz.sa == 0 || sz.sb == 0 {
			continue
		}
		as := make([][]uint32, 64)
		bs := make([][]uint32, 64)
		for i := range as {
			as[i], bs[i] = datasets.GenPair(rng, sz.sa, sz.sb,
				rng.Intn(min(sz.sa, sz.sb)+1), uint32(8*(sz.sa+sz.sb)))
		}
		b.Run(fmt.Sprintf("general/%dx%d", sz.sa, sz.sb), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchSink += kernels.GeneralCount(w, as[i%64], bs[i%64])
			}
		})
		b.Run(fmt.Sprintf("specialized/%dx%d", sz.sa, sz.sb), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchSink += tbl.Count(as[i%64], bs[i%64])
			}
		})
	}
}

func BenchmarkFig4SSEKernels(b *testing.B)    { benchKernels(b, simd.WidthSSE) }
func BenchmarkFig5AVXKernels(b *testing.B)    { benchKernels(b, simd.WidthAVX) }
func BenchmarkFig6AVX512Kernels(b *testing.B) { benchKernels(b, simd.WidthAVX512) }

// ---------------------------------------------------------------------------
// Figure 7: time vs input size at selectivity 1%.
// ---------------------------------------------------------------------------

func BenchmarkFig7VaryInputSize(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{100_000, 400_000, 1_600_000} {
		ea, eb := datasets.GenPairSelectivity(rng, n, n, 0.01, uint32(16*n))
		methods := experiments.BaselineMethods(simd.WidthAVX)
		for _, wcfg := range experiments.FESIAWidthConfigs() {
			methods = append(methods, experiments.FESIAMethod(wcfg.Name, wcfg.Cfg))
		}
		for _, m := range methods {
			op := m.Prepare(ea, eb)
			b.Run(fmt.Sprintf("n=%d/%s", n, m.Name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					benchSink += op()
				}
			})
		}
	}
}

// ---------------------------------------------------------------------------
// Figures 8-9: selectivity sweep at fixed size.
// ---------------------------------------------------------------------------

func benchSelectivity(b *testing.B, fesiaName string, cfg core.Config) {
	rng := rand.New(rand.NewSource(8))
	const n = 200_000
	for _, sel := range []float64{0, 0.01, 0.08, 0.64} {
		ea, eb := datasets.GenPairSelectivity(rng, n, n, sel, uint32(16*n))
		methods := experiments.BaselineMethods(cfg.Width)
		methods = append(methods, experiments.FESIAMethod(fesiaName, cfg))
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

func BenchmarkFig8Selectivity(b *testing.B) {
	benchSelectivity(b, "FESIAavx", core.Config{Width: simd.WidthAVX})
}

func BenchmarkFig9SelectivityAVX512(b *testing.B) {
	benchSelectivity(b, "FESIAavx512", core.Config{Width: simd.WidthAVX512})
}

// ---------------------------------------------------------------------------
// Figure 10: three-way intersection vs density.
// ---------------------------------------------------------------------------

func BenchmarkFig10ThreeWay(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	const n = 200_000
	for _, density := range []float64{0, 0.2, 0.8} {
		sets := datasets.GenGroup(rng, 3, n, density)
		kmethods := experiments.BaselineKMethods(simd.WidthAVX)
		kmethods = append(kmethods, experiments.FESIAKMethod("FESIA", core.Config{Width: simd.WidthAVX}))
		for _, m := range kmethods {
			op := m.Prepare(sets)
			b.Run(fmt.Sprintf("density=%.1f/%s", density, m.Name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					benchSink += op()
				}
			})
		}
	}
}

// ---------------------------------------------------------------------------
// Figure 11: skewed input sizes, both FESIA strategies.
// ---------------------------------------------------------------------------

func BenchmarkFig11Skew(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	const n2 = 320_000
	cfg := core.Config{Width: simd.WidthAVX}
	for _, skew := range []float64{1.0 / 32, 1.0 / 4, 1} {
		n1 := int(float64(n2) * skew)
		ea, eb := datasets.GenPair(rng, n1, n2, n1/10, uint32(16*n2))
		methods := experiments.BaselineMethods(simd.WidthAVX)
		methods = append(methods,
			experiments.FESIAMethod("FESIAmerge", cfg),
			experiments.FESIAHashMethod("FESIAhash", cfg))
		for _, m := range methods {
			op := m.Prepare(ea, eb)
			b.Run(fmt.Sprintf("skew=%d-%d/%s", n1, n2, m.Name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					benchSink += op()
				}
			})
		}
	}
}

// ---------------------------------------------------------------------------
// Figure 12: the database query task over a WebDocs-like corpus.
// ---------------------------------------------------------------------------

func BenchmarkFig12DatabaseQuery(b *testing.B) {
	corpus := datasets.NewCorpus(datasets.CorpusConfig{
		NumDocs: 30_000, NumItems: 60_000, MeanLen: 40, Seed: 12,
	})
	ix, err := invindex.FromCorpus(corpus, core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	for _, k := range []int{2, 3} {
		queries := corpus.SampleQueries(rng, 16, k, 64, 0.2, 0)
		items := make([][]uint32, len(queries))
		lists := make([][][]uint32, len(queries))
		for i, q := range queries {
			items[i] = q.Items
			lists[i] = q.Postings
		}
		b.Run(fmt.Sprintf("%dsets/Scalar", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, l := range lists {
					benchSink += baselines.CountScalarK(l)
				}
			}
		})
		b.Run(fmt.Sprintf("%dsets/Shuffling", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, l := range lists {
					benchSink += baselines.CountShufflingK(simd.WidthAVX, l)
				}
			}
		})
		b.Run(fmt.Sprintf("%dsets/BMiss", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, l := range lists {
					benchSink += baselines.CountBMissK(l)
				}
			}
		})
		b.Run(fmt.Sprintf("%dsets/FESIA", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, it := range items {
					benchSink += ix.QueryCount(it...)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Figure 13: triangle counting.
// ---------------------------------------------------------------------------

func BenchmarkFig13TriangleCounting(b *testing.B) {
	g := datasets.NewGraph(datasets.GraphConfig{
		Nodes: 30_000, EdgesPer: 8, Clustering: 0.5, Seed: 13,
	})
	oriented := graph.FromEdges(g.Nodes, g.Edges).Oriented()
	fg, err := graph.BuildFesia(oriented, core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.Run("Scalar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchSink += int(graph.CountTriangles(oriented, baselines.CountScalar))
		}
	})
	b.Run("Shuffling", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchSink += int(graph.CountTriangles(oriented, func(x, y []uint32) int {
				return baselines.CountShuffling(simd.WidthAVX, x, y)
			}))
		}
	})
	b.Run("FESIA", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchSink += int(fg.CountTriangles(1))
		}
	})
	b.Run("FESIA4core", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchSink += int(fg.CountTriangles(4))
		}
	})
	b.Run("FESIA8core", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchSink += int(fg.CountTriangles(8))
		}
	})
}

// ---------------------------------------------------------------------------
// Figure 14: step 1 / step 2 breakdown vs bitmap and segment size.
// ---------------------------------------------------------------------------

func BenchmarkFig14Breakdown(b *testing.B) {
	rng := rand.New(rand.NewSource(14))
	const n = 50_000
	ea, eb := datasets.GenPairSelectivity(rng, n, n, 0, uint32(64*n))
	for _, scale := range []float64{4, 16, 32} {
		for _, segBits := range []int{8, 16} {
			cfg := core.Config{Width: simd.WidthAVX, Scale: scale, SegBits: segBits}
			sa := core.MustNewSet(ea, cfg)
			sb := core.MustNewSet(eb, cfg)
			b.Run(fmt.Sprintf("scale=%.0f/seg=%d", scale, segBits), func(b *testing.B) {
				var bitmapNs, segmentNs int64
				for i := 0; i < b.N; i++ {
					bd := core.CountMergeBreakdown(sa, sb)
					benchSink += bd.Count
					bitmapNs += bd.BitmapTime.Nanoseconds()
					segmentNs += bd.SegmentTime.Nanoseconds()
				}
				b.ReportMetric(float64(bitmapNs)/float64(b.N), "step1-ns/op")
				b.ReportMetric(float64(segmentNs)/float64(b.N), "step2-ns/op")
			})
		}
	}
}

// ---------------------------------------------------------------------------
// Table II: kernel library code size and modelled L1i misses per stride.
// ---------------------------------------------------------------------------

func BenchmarkTable2KernelStride(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	const n = 200_000
	ea, eb := datasets.GenPairSelectivity(rng, n, n, 0.01, uint32(16*n))
	// A dense bitmap (Scale 1.5) spreads dispatches across many kernel
	// sizes, the regime Table II's stride sampling addresses.
	cfg := core.Config{Width: simd.WidthAVX512, Scale: 1.5}
	trace := core.DispatchTrace(core.MustNewSet(ea, cfg), core.MustNewSet(eb, cfg))
	for _, stride := range []int{1, 4, 8} {
		layout := icachesim.NewLayout(kernels.ForStride(stride))
		b.Run(fmt.Sprintf("stride=%d", stride), func(b *testing.B) {
			misses := 0
			for i := 0; i < b.N; i++ {
				cache := icachesim.New(32*1024, 64, 8)
				misses = layout.Replay(cache, trace)
				benchSink += misses
			}
			b.ReportMetric(float64(layout.CodeBytes()), "code-bytes")
			b.ReportMetric(float64(misses), "l1i-misses")
		})
	}
}

// ---------------------------------------------------------------------------
// Table III: construction time.
// ---------------------------------------------------------------------------

func BenchmarkTable3Construction(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	elems := make([]uint32, 100_000)
	for i := range elems {
		elems[i] = rng.Uint32()
	}
	b.Run("NewSet100k", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := core.MustNewSet(elems, core.DefaultConfig())
			benchSink += s.Len()
		}
	})
	g := datasets.NewGraph(datasets.GraphConfig{Nodes: 20_000, EdgesPer: 6, Clustering: 0.4, Seed: 33})
	oriented := graph.FromEdges(g.Nodes, g.Edges).Oriented()
	b.Run("GraphSets20k", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fg, err := graph.BuildFesia(oriented, core.DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			benchSink += int(fg.CountTriangles(1)) % 2
		}
	})
}
