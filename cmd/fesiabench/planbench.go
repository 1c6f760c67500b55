// Planner benchmark mode (-planjson): measures what the adaptive strategy
// planner buys over the static size rules on two corpus shapes, and writes
// BENCH_planner.json. Each scenario runs the one-vs-many batch engine
// (Executor.CountMany over the whole corpus) twice — once with the planner
// off (the static rules) and once with a learned model that is trained on
// the corpus first — and gates on the ratio.
//
//   - crossover: a segmented query against a shuffled mix of candidates the
//     rules in force misprice. Dense-bitmap candidates with den.n just under
//     the query size: the smaller-side rule probes from the dense set, paying
//     a hash probe (~8ns) per dense bit, when bit-testing the query's
//     elements against the dense span (~2-3ns each) is far cheaper — the
//     size rule assumes the two probe directions cost the same per element,
//     and they do not. Plus segmented candidates sized just above the ratio
//     rule's cutover (small/large in [1/4, ~0.29)), mispriced against the
//     seg×seg rule in force (planner.HashSegSeg). Where the rule is the
//     paper's ratio it merges the band, but the pair sweep
//     (BenchmarkPairArms) has hash ahead at 1/4 on every rung. On the
//     AVX-512 rung the rule hashes the band, which at the default bitmap
//     scale is the faster arm, so there the query and the band are built at
//     scale 2: two bits per element fill the bitmap, the hash probe's
//     one-bit filter passes most probes into long segment scans, and merge
//     runs 2-3x faster — a cost the rule, which reads lengths only, cannot
//     see. The planner measures both arms of both decisions and flips the
//     mispriced ones. Gate: learned >= 1.10x static throughput.
//   - uniform: equal-sized segmented candidates over the full span — the
//     static rule already picks the faster arm (merge on the ratio rule's
//     rungs, hash on the AVX-512 rung), so the planner must match it. Gate:
//     learned >= 0.95x static (the table lookup, sampling clocks and
//     residual exploration may cost a few percent).
package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"testing"

	"fesia/internal/core"
	"fesia/internal/datasets"
	"fesia/internal/planner"
	"fesia/internal/simd"
)

// Planner gates: committed BENCH_planner.json must show at least these
// ratios, and `make benchcheck` re-measures them.
const (
	planCrossoverGate = 1.10 // crossover: static/learned CountMany ns/op
	// uniform floor: the planner's target is within 2% of static (the
	// committed full-scale BENCH_planner.json shows ~1.01); the re-measured
	// floor is looser because back-to-back -quick runs on a shared 1-CPU
	// container wobble ±4% run-to-run — the gate exists to catch the planner
	// grossly getting in the way, not to re-certify the 2% target.
	planUniformGate = 0.95
)

// planTrainRounds is how many passes over the corpus the learned model sees
// before the measured run. Sampling the chosen arm alone is enough to flip a
// mispriced cell (its measured cost rises past the other arm's prior), so a
// handful of passes converges the EWMA; exploration then keeps the
// road-not-taken estimates honest.
const planTrainRounds = 24

// planResult is one row of BENCH_planner.json: one (scenario, variant) run.
type planResult struct {
	Scenario     string  `json:"scenario"`
	Variant      string  `json:"variant"` // "static" or "learned"
	Backend      string  `json:"backend"`
	Sets         int     `json:"sets"`
	QueryLen     int     `json:"query_len"`
	NsPerOp      float64 `json:"ns_per_op"` // one CountMany over the corpus
	AllocsPerOp  int64   `json:"allocs_per_op"`
	Count        int     `json:"count"`         // total matches, sanity anchor
	LearnedCells int     `json:"learned_cells"` // cost cells with samples (learned only)
}

type planScenario struct {
	name  string
	query *core.Set
	cands []*core.Set
}

func planScenarios(quick bool) ([]planScenario, error) {
	scale := 1
	if quick {
		scale = 2
	}
	rng := rand.New(rand.NewSource(23))
	segCfg := core.Config{Width: simd.WidthAVX, Rep: core.RepSegmented}
	denCfg := core.Config{Width: simd.WidthAVX, Rep: core.RepDense}

	// crossover: a segmented query; half the candidates segmented in the
	// skew band [1/4, ~0.29) (at scale 2 where the rule in force hashes the
	// band), half dense bitmaps with den.n in [0.4, 0.9) of the query size
	// (packed at 1/4 fill into narrow windows), shuffled together so the
	// batch interleaves both decision kinds.
	qn := 65_536
	crossCfg := segCfg
	if planner.HashSegSeg(qn/4, qn) {
		crossCfg.Scale = 2
	}
	nSeg := 96 / scale
	segRaw := make([][]uint32, 1, nSeg+1)
	segRaw[0] = datasets.GenSorted(rng, qn, 1<<22)
	for i := 0; i < nSeg; i++ {
		cn := qn/4 + rng.Intn(qn/25)
		segRaw = append(segRaw, datasets.GenSorted(rng, cn, 1<<22))
	}
	segSets, err := core.BuildSets(segRaw, crossCfg)
	if err != nil {
		return nil, err
	}
	nDen := 96 / scale
	denRaw := make([][]uint32, nDen)
	for i := range denRaw {
		dn := 2*qn/5 + rng.Intn(qn/2)
		base := uint32(rng.Intn(1 << 21))
		v := datasets.GenSorted(rng, dn, uint32(4*dn))
		for j := range v {
			v[j] += base
		}
		denRaw[i] = v
	}
	denSets, err := core.BuildSets(denRaw, denCfg)
	if err != nil {
		return nil, err
	}
	crossQ := segSets[0]
	cross := append(append([]*core.Set{}, segSets[1:]...), denSets...)
	rng.Shuffle(len(cross), func(i, j int) { cross[i], cross[j] = cross[j], cross[i] })

	// uniform: equal-sized segmented candidates over the same wide span. The
	// static rule's arm at size ratio 1 (merge, or hash on the AVX-512 rung)
	// is also what the pair sweep finds fastest — the planner must simply
	// not get in the way.
	nUniform := 96 / scale
	uniRaw := make([][]uint32, 1, nUniform+1)
	uniRaw[0] = datasets.GenSorted(rng, qn, 1<<22)
	for i := 0; i < nUniform; i++ {
		uniRaw = append(uniRaw, datasets.GenSorted(rng, qn, 1<<22))
	}
	uniSets, err := core.BuildSets(uniRaw, segCfg)
	if err != nil {
		return nil, err
	}

	return []planScenario{
		{"crossover", crossQ, cross},
		{"uniform", uniSets[0], uniSets[1:]},
	}, nil
}

// runPlanVariant measures one CountMany-over-the-corpus configuration. When m
// is non-nil the executor consults it, and the corpus is replayed
// planTrainRounds times (then re-fit) before the measured run.
func runPlanVariant(q *core.Set, cands []*core.Set, m *planner.Model) (res planResult, out []int) {
	ex := core.NewExecutor()
	if m != nil {
		ex.EnablePlanner(m)
	}
	out = make([]int, len(cands))
	run := func() int {
		ex.CountMany(q, cands, out)
		n := 0
		for _, c := range out {
			n += c
		}
		return n
	}
	res.Count = run() // warm executor scratch outside the measurement
	if m != nil {
		for i := 0; i < planTrainRounds; i++ {
			run()
			m.Refit()
		}
		res.LearnedCells = len(m.Snapshot().Cells)
	}
	r := testing.Benchmark(func(tb *testing.B) {
		tb.ReportAllocs()
		for i := 0; i < tb.N; i++ {
			run()
		}
	})
	res.NsPerOp = float64(r.T.Nanoseconds()) / float64(r.N)
	res.AllocsPerOp = r.AllocsPerOp()
	res.Backend = simd.Backend()
	res.Sets = len(cands)
	return res, out
}

func runPlannerBench(path string, quick bool) error {
	scenarios, err := planScenarios(quick)
	if err != nil {
		return err
	}
	var rows []planResult
	for _, sc := range scenarios {
		q, cands := sc.query, sc.cands

		static, staticOut := runPlanVariant(q, cands, nil)
		static.Scenario, static.Variant, static.QueryLen = sc.name, "static", q.Len()
		fmt.Printf("  %-20s %14.1f ns/op %6d allocs/op  count=%d\n",
			sc.name+"/static", static.NsPerOp, static.AllocsPerOp, static.Count)

		// Exploration is widened from the 1/64 default: the measured run keeps
		// exploring, and at 1/512 the dispreferred arm costs the uniform
		// scenario well under its 2% budget while training still measures each
		// cell's road-not-taken dozens of times.
		m := planner.New(planner.WithMode(planner.ModeLearned), planner.WithExploreEvery(512))
		learned, learnedOut := runPlanVariant(q, cands, m)
		learned.Scenario, learned.Variant, learned.QueryLen = sc.name, "learned", q.Len()
		fmt.Printf("  %-20s %14.1f ns/op %6d allocs/op  count=%d cells=%d\n",
			sc.name+"/learned", learned.NsPerOp, learned.AllocsPerOp, learned.Count, learned.LearnedCells)

		if !slices.Equal(staticOut, learnedOut) {
			return fmt.Errorf("%s: learned per-candidate counts disagree with static", sc.name)
		}
		ratio := static.NsPerOp / learned.NsPerOp
		fmt.Printf("  %-20s %5.2fx\n", sc.name+" learned vs static", ratio)
		switch sc.name {
		case "crossover":
			if ratio < planCrossoverGate {
				return fmt.Errorf("crossover speedup %.2fx below the %.2fx gate (static %.0f ns/op, learned %.0f ns/op)",
					ratio, planCrossoverGate, static.NsPerOp, learned.NsPerOp)
			}
		case "uniform":
			if ratio < planUniformGate {
				return fmt.Errorf("uniform ratio %.2fx below the %.2fx floor (static %.0f ns/op, learned %.0f ns/op)",
					ratio, planUniformGate, static.NsPerOp, learned.NsPerOp)
			}
		}
		rows = append(rows, static, learned)
	}
	out, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if err := os.WriteFile(path, out, 0o644); err != nil {
		return err
	}
	fmt.Printf("\nwrote %s\n", path)
	return nil
}
