// Command fesiabench regenerates the tables and figures of the FESIA paper's
// evaluation (Section VII) and prints them as aligned text tables.
//
// Usage:
//
//	fesiabench -all            # every experiment at default scale
//	fesiabench -exp fig7a      # one experiment
//	fesiabench -exp fig8 -quick
//	fesiabench -json           # strategy micro-benchmarks -> BENCH_intersect.json
//
// Experiments: fig4 fig5 fig6 fig7a fig7b fig8 fig9 fig10 fig11 fig12 fig13
// fig14 table2 table3. The -quick flag shrinks inputs about 10x for a fast
// smoke run; absolute times change, shapes should not.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"fesia/internal/core"
	"fesia/internal/datasets"
	"fesia/internal/experiments"
	"fesia/internal/simd"
	"fesia/internal/stats"
)

type runner struct {
	quick bool
}

func (r *runner) scaleInt(n int) int {
	if r.quick {
		return max(n/10, 1000)
	}
	return n
}

func (r *runner) run(id string) *experiments.Table {
	haswell := []simd.Width{simd.WidthSSE, simd.WidthAVX}
	skylake := []simd.Width{simd.WidthSSE, simd.WidthAVX, simd.WidthAVX512}
	switch id {
	case "fig4":
		return experiments.KernelSpeedups(simd.WidthSSE, "fig4")
	case "fig5":
		return experiments.KernelSpeedups(simd.WidthAVX, "fig5")
	case "fig6":
		return experiments.KernelSpeedups(simd.WidthAVX512, "fig6")
	case "fig7a":
		return experiments.VaryInputSize("fig7a", r.sizes(), haswell)
	case "fig7b":
		return experiments.VaryInputSize("fig7b", r.sizes(), skylake)
	case "fig8":
		return experiments.SelectivitySweep("fig8", r.scaleInt(1_000_000), selectivities(), haswell)
	case "fig9":
		return experiments.SelectivitySweep("fig9", r.scaleInt(1_000_000), selectivities(),
			[]simd.Width{simd.WidthAVX512})
	case "fig10":
		return experiments.ThreeWayDensity("fig10", r.scaleInt(1_000_000),
			[]float64{0, 0.1, 0.2, 0.4, 0.6, 0.8}, simd.WidthAVX)
	case "fig11":
		return experiments.SkewSweep("fig11", r.scaleInt(320_000),
			[]float64{1.0 / 32, 1.0 / 16, 1.0 / 8, 1.0 / 4, 1.0 / 2, 1}, simd.WidthAVX, 0.1)
	case "fig12":
		cfg := datasets.CorpusConfig{NumDocs: r.scaleInt(100_000), NumItems: r.scaleInt(200_000), MeanLen: 40, Seed: 1}
		tbl, _ := experiments.DatabaseQueryTask(cfg, 20, simd.WidthAVX)
		return tbl
	case "fig13":
		scale := 1.0
		if r.quick {
			scale = 0.1
		}
		return experiments.TriangleCountingTask(simd.WidthAVX, scale)
	case "fig14":
		return experiments.BreakdownSweep(r.scaleInt(50_000),
			[]float64{2, 4, 8, 16, 32}, []int{8, 16, 32}, simd.WidthAVX)
	case "table2":
		return experiments.Table2(r.scaleInt(1_000_000))
	case "table3":
		scale := 1.0
		if r.quick {
			scale = 0.1
		}
		return experiments.Table3(scale)
	default:
		return nil
	}
}

func (r *runner) sizes() []int {
	if r.quick {
		return []int{40_000, 80_000, 160_000, 320_000}
	}
	return []int{400_000, 800_000, 1_200_000, 1_600_000, 2_000_000, 2_400_000, 2_800_000, 3_200_000}
}

func selectivities() []float64 {
	return []float64{0, 0.01, 0.02, 0.04, 0.08, 0.16, 0.32, 0.64, 1}
}

var allExperiments = []string{
	"fig4", "fig5", "fig6", "fig7a", "fig7b", "fig8", "fig9",
	"fig10", "fig11", "fig12", "fig13", "fig14", "table2", "table3",
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("fesiabench: ")
	exp := flag.String("exp", "", "experiment id (fig4..fig14, table2, table3)")
	all := flag.Bool("all", false, "run every experiment")
	quick := flag.Bool("quick", false, "shrink inputs ~10x for a fast run")
	list := flag.Bool("list", false, "list experiment ids and exit")
	jsonOut := flag.Bool("json", false, "benchmark strategies (one-shot vs Executor) and write BENCH_intersect.json")
	batchJSON := flag.Bool("batchjson", false, "benchmark the one-vs-many batch engine and write BENCH_batch.json")
	simdJSON := flag.Bool("simdjson", false, "benchmark the assembly backend against pure Go and write BENCH_simd.json")
	hybridJSON := flag.Bool("hybridjson", false, "benchmark hybrid per-set representations against all-segmented and write BENCH_hybrid.json")
	planJSON := flag.Bool("planjson", false, "benchmark the adaptive planner against the static heuristics and write BENCH_planner.json")
	serveJSON := flag.Bool("servejson", false, "run the serving-tier saturation ramp (admission, shedding, hot swaps) and write BENCH_serve.json")
	traceJSON := flag.Bool("tracejson", false, "paired tracing-off vs tracing-on serve benchmark and write BENCH_trace.json")
	snapshot := flag.Bool("snapshot", false, "round-trip a corpus through the checksummed snapshot files and verify")
	baseline := flag.String("baseline", "", "with -json/-batchjson: fail on >15% ns/op regression vs this baseline file")
	statsDump := flag.Bool("stats", false, "enable the observability sink and dump the kernel-dispatch histogram after the run")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	if *statsDump {
		core.EnableStats(stats.New())
		defer dumpKernelStats()
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Fatal(err)
			}
		}()
	}

	if *list {
		fmt.Println(strings.Join(allExperiments, "\n"))
		return
	}
	if *snapshot {
		fmt.Printf("fesiabench: snapshot round trip (quick=%v)\n", *quick)
		if err := runSnapshot(*quick); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *hybridJSON {
		fmt.Printf("fesiabench: hybrid representation benchmarks (quick=%v)\n", *quick)
		if err := runHybridBench("BENCH_hybrid.json", *quick); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *planJSON {
		fmt.Printf("fesiabench: adaptive planner benchmarks (quick=%v, backend=%s)\n", *quick, simd.Backend())
		if err := runPlannerBench("BENCH_planner.json", *quick); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *serveJSON {
		fmt.Printf("fesiabench: serving-tier saturation ramp (quick=%v, backend=%s)\n", *quick, simd.Backend())
		if err := runServeBench("BENCH_serve.json", *quick); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *traceJSON {
		fmt.Printf("fesiabench: trace overhead paired benchmark (quick=%v, backend=%s)\n", *quick, simd.Backend())
		if err := runTraceBench("BENCH_trace.json", *quick); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *jsonOut || *batchJSON || *simdJSON {
		var results []benchResult
		var err error
		switch {
		case *jsonOut:
			fmt.Printf("fesiabench: strategy micro-benchmarks (quick=%v)\n", *quick)
			results, err = runJSONBench("BENCH_intersect.json", *quick)
		case *batchJSON:
			fmt.Printf("fesiabench: one-vs-many batch benchmarks (quick=%v)\n", *quick)
			results, err = runBatchBench("BENCH_batch.json", *quick)
		default:
			fmt.Printf("fesiabench: SIMD backend benchmarks (quick=%v, backend=%s)\n", *quick, simd.Backend())
			results, err = runSimdBench("BENCH_simd.json", *quick)
		}
		if err != nil {
			log.Fatal(err)
		}
		if *baseline != "" {
			fmt.Printf("\nchecking against baseline %s:\n", *baseline)
			if err := checkBaseline(results, *baseline); err != nil {
				log.Fatal(err)
			}
		}
		return
	}
	fmt.Printf("fesiabench: %s/%s, %d CPU(s), %s, quick=%v\n\n",
		runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.Version(), *quick)
	r := &runner{quick: *quick}
	var ids []string
	switch {
	case *all:
		ids = allExperiments
	case *exp != "":
		ids = strings.Split(*exp, ",")
	default:
		flag.Usage()
		os.Exit(2)
	}
	for _, id := range ids {
		id = strings.TrimSpace(id)
		start := time.Now()
		tbl := r.run(id)
		if tbl == nil {
			log.Fatalf("unknown experiment %q (use -list)", id)
		}
		fmt.Println(tbl.String())
		fmt.Printf("(%s completed in %.1fs)\n\n", id, time.Since(start).Seconds())
	}
}

// dumpKernelStats prints what the observability sink accumulated over the
// whole run: per-strategy query counts, the selectivity counters, and the
// kernel-dispatch histogram — the live measurement behind the paper's Table II
// kernel-usage analysis (see EXPERIMENTS.md). Runs as a deferred step of
// main when -stats is set.
func dumpKernelStats() {
	sink := core.StatsSink()
	if sink == nil {
		return
	}
	snap := sink.Snapshot()
	fmt.Printf("\n--- observability dump (-stats) ---\n")
	fmt.Printf("queries: merge=%d hash=%d kway=%d (probe chain %d) batch=%d cross=%d cancelled=%d\n",
		snap.Counter(stats.CtrQueriesMerge), snap.Counter(stats.CtrQueriesHash),
		snap.Counter(stats.CtrQueriesKWay), snap.Counter(stats.CtrQueriesKWayProbe),
		snap.Counter(stats.CtrQueriesBatch), snap.Counter(stats.CtrQueriesCross),
		snap.Counter(stats.CtrCancellations))
	lats := []struct {
		name string
		h    stats.LatHist
	}{
		{"merge", stats.LatMerge}, {"hash", stats.LatHash}, {"kway", stats.LatKWay},
		{"batch", stats.LatBatch}, {"cross", stats.LatCross},
	}
	for _, l := range lats {
		ls := snap.Latency(l.h)
		if ls.Count == 0 {
			continue
		}
		fmt.Printf("latency %-6s n=%-10d mean=%-12v p50=%-12v p99=%v\n",
			l.name, ls.Count, ls.Mean(), ls.Quantile(0.50), ls.Quantile(0.99))
	}
	if scanned := snap.Counter(stats.CtrSegmentsScanned); scanned > 0 {
		fmt.Printf("segment survival: %d pairs / %d scanned (%.4f)\n",
			snap.Counter(stats.CtrSegPairs), scanned,
			float64(snap.Counter(stats.CtrSegPairs))/float64(scanned))
	}
	if probes := snap.Counter(stats.CtrHashProbes); probes > 0 {
		fmt.Printf("hash probe survival: %d survivors / %d probes (%.4f)\n",
			snap.Counter(stats.CtrHashSurvivors), probes,
			float64(snap.Counter(stats.CtrHashSurvivors))/float64(probes))
	}
	if len(snap.Kernels) == 0 {
		fmt.Println("kernel-dispatch histogram: empty (no merge query was sampled)")
		return
	}
	var total uint64
	for _, k := range snap.Kernels {
		total += k.Count
	}
	fmt.Printf("kernel-dispatch histogram (sampled 1 in %d merge queries; %d dispatches, %d size pairs):\n",
		stats.KernelSampleRate, total, len(snap.Kernels))
	fmt.Printf("  %-18s %12s %7s\n", "kernel", "dispatches", "share")
	top := snap.Kernels
	if len(top) > 20 {
		top = top[:20]
	}
	for _, k := range top {
		fmt.Printf("  %-18s %12d %6.1f%%\n",
			fmt.Sprintf("Intersect%dx%d", k.SizeA, k.SizeB),
			k.Count, 100*float64(k.Count)/float64(total))
	}
	if rest := len(snap.Kernels) - len(top); rest > 0 {
		fmt.Printf("  (+%d more size pairs)\n", rest)
	}
}
