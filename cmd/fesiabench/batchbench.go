// Batch benchmark mode (-batchjson): measures the one-vs-many batch engine
// against the equivalent pairwise query loop and writes BENCH_batch.json.
// Two distributions at three candidate-list lengths:
//
//   - skewed: a small query against uniformly larger candidates — the hash
//     strategy's regime, where the batch engine memoizes the query's hash
//     positions across same-sized candidates and stages probes in
//     branch-free blocks.
//   - uniform: query and candidates the same size — the merge strategy's
//     regime, run through the merge body.
//
// The pairwise baseline is the loop a caller would otherwise write: one
// Executor.Count per candidate on a warm executor.
package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"fesia/internal/core"
	"fesia/internal/datasets"
	"fesia/internal/simd"
)

// batchParallelTolerance is how much slower than serial batch the
// batch-parallel variant may measure before runBatchBench fails: the
// work-size cutover should route any batch where the pool cannot pay for
// itself onto the serial path, so a large gap means the cutover is broken.
const batchParallelTolerance = 1.25

// batchDistribution describes one corpus shape of the batch benchmark.
type batchDistribution struct {
	name string
	qLen int // query set size
	cLen int // size of every candidate set
}

func runBatchBench(path string, quick bool) ([]benchResult, error) {
	scale := 1
	if quick {
		scale = 4
	}
	dists := []batchDistribution{
		// 1:8 skew keeps the adaptive switch on the hash strategy with the
		// query as the probing side.
		{"skewed", 1024 / scale, 8192 / scale},
		{"uniform", 4096 / scale, 4096 / scale},
	}
	candCounts := []int{16, 256, 4096}
	universe := uint32(1 << 21)
	workers := min(runtime.GOMAXPROCS(0), 4)
	cfg := core.Config{Width: simd.WidthAVX}

	results := make([]benchResult, 0, len(dists)*len(candCounts)*3)
	for _, d := range dists {
		rng := rand.New(rand.NewSource(7))
		q := core.MustNewSet(datasets.GenSorted(rng, d.qLen, universe), cfg)
		// Build the largest candidate list once (arena-backed); smaller
		// counts reuse its prefix.
		maxCand := candCounts[len(candCounts)-1]
		lists := make([][]uint32, maxCand)
		for i := range lists {
			lists[i] = datasets.GenSorted(rng, d.cLen, universe)
		}
		allCands, err := core.BuildSets(lists, cfg)
		if err != nil {
			return nil, fmt.Errorf("building %s candidates: %w", d.name, err)
		}
		for _, nc := range candCounts {
			cands := allCands[:nc]
			out := make([]int, nc)
			ex := core.NewExecutor()
			variants := []benchCase{
				{fmt.Sprintf("%s/c%d/pairwise", d.name, nc), func() int {
					n := 0
					for j, c := range cands {
						out[j] = ex.Count(q, c)
						n += out[j]
					}
					return n
				}},
				{fmt.Sprintf("%s/c%d/batch", d.name, nc), func() int {
					ex.CountMany(q, cands, out)
					n := 0
					for _, v := range out {
						n += v
					}
					return n
				}},
				{fmt.Sprintf("%s/c%d/batch-parallel", d.name, nc), func() int {
					ex.CountManyParallel(q, cands, out, workers)
					n := 0
					for _, v := range out {
						n += v
					}
					return n
				}},
			}
			want := -1
			for _, v := range variants {
				r, count := measure(v)
				if want == -1 {
					want = count
				} else if count != want {
					return nil, fmt.Errorf("%s disagrees: %d matches, want %d", v.name, count, want)
				}
				results = append(results, r)
				fmt.Printf("  %-28s %14.1f ns/op %6d allocs/op\n",
					r.Strategy, r.NsPerOp, r.AllocsPerOp)
			}
			pair, batch := results[len(results)-3], results[len(results)-2]
			fmt.Printf("  %-28s %14.2fx\n", d.name+" batch speedup", pair.NsPerOp/batch.NsPerOp)
			// Cutover gate: with the work-size cutover in CountManyParallel,
			// batch-parallel must never be meaningfully slower than serial
			// batch — small batches route to the serial path, large ones must
			// win or tie. The tolerance absorbs timer noise at the
			// microsecond scenarios.
			if par := results[len(results)-1]; par.NsPerOp > batch.NsPerOp*batchParallelTolerance {
				return nil, fmt.Errorf("%s: batch-parallel %.0f ns/op is %.2fx serial batch %.0f ns/op (tolerance %.2fx) — cutover regression",
					par.Strategy, par.NsPerOp, par.NsPerOp/batch.NsPerOp, batch.NsPerOp, batchParallelTolerance)
			}
		}
	}
	return results, writeResults(path, results)
}

// measure runs one case under testing.Benchmark after a warm-up call.
func measure(c benchCase) (benchResult, int) {
	count := c.run() // warm executor scratch outside the measurement
	r := testing.Benchmark(func(tb *testing.B) {
		tb.ReportAllocs()
		for i := 0; i < tb.N; i++ {
			c.run()
		}
	})
	return benchResult{
		Strategy:    c.name,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		Count:       count,
	}, count
}
