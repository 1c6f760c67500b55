// Trace-overhead paired benchmark (-tracejson): measures what the tracing
// layer costs the serving tier. Two identical tiers serve the same query
// stream — one with tracing off (the nil-check fast path), one with tracing
// at the default 1-in-64 head sampling plus tail capture — and their
// single-stream serve latencies are compared round by round. Rounds
// interleave off/on so frequency scaling and cache state drift hit both arms
// equally; per-round medians of the per-query mean defeat outliers. The gate
// pins the PR's headline contract: tracing on at default sampling costs at
// most a few percent, and a forced capture still answers correctly. Results
// go to BENCH_trace.json.
package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"fesia/internal/serve"
)

// traceBenchArm is one arm's aggregated reading in BENCH_trace.json.
type traceBenchArm struct {
	Name       string    `json:"name"`
	MeanNsOp   float64   `json:"mean_ns_op"`   // median across rounds of per-round mean
	RoundsNsOp []float64 `json:"rounds_ns_op"` // per-round means, in run order
}

// traceBenchReport is the whole BENCH_trace.json artifact.
type traceBenchReport struct {
	Rounds        int           `json:"rounds"`
	QueriesPerRnd int           `json:"queries_per_round"`
	SampleN       int           `json:"trace_sample_n"`
	Off           traceBenchArm `json:"off"`
	On            traceBenchArm `json:"on"`
	OverheadRatio float64       `json:"overhead_ratio"`        // median of per-round on/off ratios
	OverheadNs    float64       `json:"overhead_ns_per_query"` // median of per-round on-off differences
	GateMaxRatio  float64       `json:"gate_max_ratio"`
}

// runTraceRound serves `queries` queries from the pool through each tier,
// interleaved in small alternating chunks so slow drift (frequency
// transitions, noisy neighbors) lands on both arms equally, and returns the
// mean ns per query for each arm.
func runTraceRound(off, on *serve.Tier, pool [][]uint32, queries int) (offNs, onNs float64, err error) {
	const chunk = 500
	ctx := context.Background()
	var offTot, onTot time.Duration
	runChunk := func(tier *serve.Tier, base, n int) (time.Duration, error) {
		start := time.Now()
		for i := base; i < base+n; i++ {
			if _, err := tier.QueryCount(ctx, pool[i%len(pool)]...); err != nil {
				return 0, err
			}
		}
		return time.Since(start), nil
	}
	for done := 0; done < queries; done += chunk {
		n := min(chunk, queries-done)
		d, err := runChunk(off, done, n)
		if err != nil {
			return 0, 0, err
		}
		offTot += d
		if d, err = runChunk(on, done, n); err != nil {
			return 0, 0, err
		}
		onTot += d
	}
	q := float64(queries)
	return float64(offTot.Nanoseconds()) / q, float64(onTot.Nanoseconds()) / q, nil
}

func runTraceBench(path string, quick bool) error {
	// Posting lists average docs*meanLen/items ≈ 2000 documents — the paper's
	// regime, where a query does real intersection work per shard. On a toy
	// corpus the serve path is pure scatter overhead and any fixed per-query
	// cost reads as a huge ratio.
	// Rounds must be long enough (tens of ms) that CPU frequency
	// transitions average out inside a round instead of landing on one arm.
	docs, items, meanLen := 200_000, 4_000, 40
	rounds, queries := 9, 20_000
	if quick {
		docs, items = 80_000, 2_000
		rounds, queries = 5, 3_000
	}
	const sampleN = 64
	lists := serveBenchLists(docs, items, meanLen, 1)
	pool := serveQueryPool(lists, rand.New(rand.NewSource(1)))

	base := serve.Config{ShedTargetP99: -1} // isolate the trace seams from shed jitter
	traced := base
	traced.TraceSample = sampleN
	traced.SlowQuery = 50 * time.Millisecond

	tierOff, err := serve.NewTier(lists, base)
	if err != nil {
		return err
	}
	defer tierOff.Shutdown(context.Background())
	tierOn, err := serve.NewTier(lists, traced)
	if err != nil {
		return err
	}
	defer tierOn.Shutdown(context.Background())

	// Warm both tiers past build and first-touch noise before measuring.
	if _, _, err := runTraceRound(tierOff, tierOn, pool, queries/4); err != nil {
		return err
	}

	rep := traceBenchReport{
		Rounds: rounds, QueriesPerRnd: queries, SampleN: sampleN,
		Off:          traceBenchArm{Name: "tracing-off"},
		On:           traceBenchArm{Name: fmt.Sprintf("tracing-1-in-%d", sampleN)},
		GateMaxRatio: 1.05,
	}
	var ratios, diffs []float64
	for r := 0; r < rounds; r++ {
		off, on, err := runTraceRound(tierOff, tierOn, pool, queries)
		if err != nil {
			return err
		}
		rep.Off.RoundsNsOp = append(rep.Off.RoundsNsOp, off)
		rep.On.RoundsNsOp = append(rep.On.RoundsNsOp, on)
		ratios = append(ratios, on/off)
		diffs = append(diffs, on-off)
		fmt.Printf("  round %d/%d: off %7.0f ns/q, on %7.0f ns/q (%.3fx)\n", r+1, rounds, off, on, on/off)
	}
	rep.Off.MeanNsOp = medianOf(rep.Off.RoundsNsOp)
	rep.On.MeanNsOp = medianOf(rep.On.RoundsNsOp)
	// Gate on the median of per-round ratios: each round's two arms run
	// interleaved, so the ratio is immune to drift between rounds.
	// The ratio alone hides how much tracing costs once the untraced query
	// gets cheaper, so the absolute on-off difference is reported beside it.
	rep.OverheadRatio = medianOf(ratios)
	rep.OverheadNs = medianOf(diffs)
	fmt.Printf("  median: off %.0f ns/q, on %.0f ns/q — tracing overhead %.1f%%, %.0f ns/q (medians of per-round ratios and differences)\n",
		rep.Off.MeanNsOp, rep.On.MeanNsOp, 100*(rep.OverheadRatio-1), rep.OverheadNs)

	// Sanity: the traced tier still answers, and a forced capture carries a
	// breakdown (the paired numbers are meaningless if the on arm traces
	// nothing).
	n, capd, err := tierOn.QueryCountTraced(context.Background(), pool[0]...)
	if err != nil || capd == nil || len(capd.Spans) == 0 {
		return fmt.Errorf("tracebench: forced capture broken (n=%d, capd=%v, err=%v)", n, capd, err)
	}

	if rep.OverheadRatio > rep.GateMaxRatio {
		return fmt.Errorf("tracebench gate: tracing overhead %.3fx exceeds %.2fx", rep.OverheadRatio, rep.GateMaxRatio)
	}
	fmt.Println("  trace overhead gate passed")
	return writeResultsAny(path, rep)
}

func medianOf(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[len(s)/2]
}
