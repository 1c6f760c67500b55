package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync/atomic"
	"testing"

	"fesia/internal/datasets"
	"fesia/internal/planner"
)

// newTestModel builds a learned model tuned for tests: every decision is
// measured, and every other decision explores — the harshest churn the
// dispatch seams can see.
func newTestModel() *planner.Model {
	return planner.New(planner.WithMode(planner.ModeLearned),
		planner.WithSampleEvery(1), planner.WithExploreEvery(2))
}

func equalU32(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestPlannerPriorBitIdentical: a prior-mode planner reproduces the static
// rules' decisions exactly, so every entry point must return the exact same
// bytes — including emission order — as a planner-free executor, across all
// nine representation pairs, on every rung. The model is built once, before
// the rungs are walked, so every rung after the first is reached by toggling
// AVX-512 (and assembly) under a live model. The shapes include pairs on both
// sides of planner.HashFloor, and every seg×seg length pair up to
// 8×HashFloor is decided both ways.
func TestPlannerPriorBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	plain := NewExecutor()
	ex := NewExecutor()
	ex.EnablePlanner(planner.New(planner.WithMode(planner.ModePrior)))
	f := planner.HashFloor
	shapes := hybridShapes(rng)
	for _, sh := range [][2]int{{f - 1, f - 1}, {f, f}, {f + 1, f + 1}, {f - 1, 2 * (f - 1)}, {f, 4 * f}, {f + 1, 3 * f}} {
		shapes = append(shapes, [2][]uint32{datasets.GenSorted(rng, sh[0], 1<<10), datasets.GenSorted(rng, sh[1], 1<<10)})
	}
	bySize := make([]*Set, 8*f+1)
	for n := range bySize {
		bySize[n] = MustNewSet(datasets.GenSorted(rng, n, 1<<12), DefaultConfig())
	}
	eachRung(t, func(rung string) {
		for i, a := range bySize {
			for _, b := range bySize[i:] {
				if _, hash := planSegSeg(ex.plan, nil, a, b); hash != useHash(a, b) {
					t.Fatalf("%s: prior decides hash=%v for %d×%d, the rule %v", rung, hash, a.Len(), b.Len(), !hash)
				}
			}
		}
		for si, shape := range shapes {
			for _, ra := range allReps {
				for _, rb := range allReps {
					a := buildRep(t, shape[0], ra)
					b := buildRep(t, shape[1], rb)
					want := plain.Count(a, b)
					if got := ex.Count(a, b); got != want {
						t.Fatalf("%s shape %d %v×%v Count = %d, static %d", rung, si, ra, rb, got, want)
					}
					dstP := make([]uint32, want+8)
					dstL := make([]uint32, want+8)
					nP := plain.Intersect(dstP, a, b)
					nL := ex.Intersect(dstL, a, b)
					if nP != nL || !equalU32(dstP[:nP], dstL[:nL]) {
						t.Fatalf("%s shape %d %v×%v Intersect diverges from static (prior mode must be bit-identical)",
							rung, si, ra, rb)
					}
					var visP, visL []uint32
					plain.Visit(a, b, func(v uint32) { visP = append(visP, v) })
					ex.Visit(a, b, func(v uint32) { visL = append(visL, v) })
					if !equalU32(visP, visL) {
						t.Fatalf("%s shape %d %v×%v Visit order diverges from static", rung, si, ra, rb)
					}
					nc, err := ex.CountCtx(context.Background(), a, b)
					if err != nil || nc != want {
						t.Fatalf("%s shape %d %v×%v CountCtx = %d, %v, want %d", rung, si, ra, rb, nc, err, want)
					}
				}
			}
		}
	})
}

// TestPlannerLearnedPairParity: a learned planner under maximum churn (every
// decision measured, every other explored, re-fits between rounds) may flip
// strategies freely, but the result set must stay exactly right for every
// representation pair and entry point. Counts are compared directly;
// materialized and visited outputs are compared as sorted sets.
func TestPlannerLearnedPairParity(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	m := newTestModel()
	ex := NewExecutor()
	ex.EnablePlanner(m)
	for round := 0; round < 3; round++ {
		for si, shape := range hybridShapes(rng) {
			ref := refIntersect(shape[0], shape[1])
			for _, ra := range allReps {
				for _, rb := range allReps {
					a := buildRep(t, shape[0], ra)
					b := buildRep(t, shape[1], rb)
					want := len(ref)
					if got := ex.Count(a, b); got != want {
						t.Fatalf("round %d shape %d %v×%v Count = %d, want %d", round, si, ra, rb, got, want)
					}
					dst := make([]uint32, want+8)
					n := ex.Intersect(dst, a, b)
					if n != want || !equalU32(sortedCopy(dst[:n]), ref) {
						t.Fatalf("round %d shape %d %v×%v Intersect = %d elems, want %d", round, si, ra, rb, n, want)
					}
					var vis []uint32
					ex.Visit(a, b, func(v uint32) { vis = append(vis, v) })
					sort.Slice(vis, func(i, j int) bool { return vis[i] < vis[j] })
					if !equalU32(vis, ref) {
						t.Fatalf("round %d shape %d %v×%v Visit mismatch", round, si, ra, rb)
					}
					nc, err := ex.CountCtx(context.Background(), a, b)
					if err != nil || nc != want {
						t.Fatalf("round %d shape %d %v×%v CountCtx = %d, %v", round, si, ra, rb, nc, err)
					}
					n, err = ex.IntersectIntoCtx(context.Background(), dst, a, b)
					if err != nil || n != want || !equalU32(sortedCopy(dst[:n]), ref) {
						t.Fatalf("round %d shape %d %v×%v IntersectIntoCtx = %d, %v", round, si, ra, rb, n, err)
					}
				}
			}
		}
		m.Refit()
	}
	if len(m.Snapshot().Cells) == 0 {
		t.Fatal("parity run recorded no cost cells — the seams are not consulting the planner")
	}
}

// TestPlannerBatchParity drives the k-way engine's planner-guided seed pick
// with a learned planner over mixed representations and compares every path
// against the reference intersection. (The batch engine's planner lattice is
// TestManyFrame.)
func TestPlannerBatchParity(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	m := newTestModel()
	ex := NewExecutor()
	ex.EnablePlanner(m)

	// k-way with mixed representations through the planner-guided seed pick.
	lists := [][]uint32{
		randSet(rng, 4000, 1<<14), randSet(rng, 2500, 1<<14), randSet(rng, 200, 1<<14),
	}
	wantK := refIntersect(refIntersect(lists[0], lists[1]), lists[2])
	for _, reps := range [][]Rep{
		{RepSegmented, RepArray, RepDense},
		{RepDense, RepSegmented, RepArray},
	} {
		sets := make([]*Set, len(lists))
		for i := range lists {
			sets[i] = buildRep(t, lists[i], reps[i])
		}
		for round := 0; round < 3; round++ {
			if n := ex.CountK(sets...); n != len(wantK) {
				t.Fatalf("round %d reps %v CountK = %d, want %d", round, reps, n, len(wantK))
			}
			dst := make([]uint32, len(wantK)+8)
			if n := ex.IntersectK(dst, sets...); n != len(wantK) || !equalU32(sortedCopy(dst[:n]), wantK) {
				t.Fatalf("round %d reps %v IntersectK mismatch", round, reps)
			}
			if n, err := ex.CountKCtx(context.Background(), sets...); err != nil || n != len(wantK) {
				t.Fatalf("round %d reps %v CountKCtx = %d, %v", round, reps, n, err)
			}
			m.Refit()
		}
	}
}

// TestPlannerGlobalAttach: executors built while a model is active attach to
// it automatically; deactivation only affects future executors, and
// DisablePlanner detaches a live one.
func TestPlannerGlobalAttach(t *testing.T) {
	defer EnablePlanner(nil)
	EnablePlanner(planner.New(planner.WithMode(planner.ModePrior)))
	ex := NewExecutor()
	if ex.plan == nil {
		t.Fatal("executor did not attach to the active model")
	}
	if PlannerModel() == nil {
		t.Fatal("PlannerModel lost the active model")
	}
	EnablePlanner(nil)
	if NewExecutor().plan != nil {
		t.Fatal("executor attached after deactivation")
	}
	ex.DisablePlanner()
	if ex.plan != nil || ex.planModel != nil {
		t.Fatal("DisablePlanner left the handle in place")
	}
	// ModeOff models never attach, even when passed directly.
	ex.EnablePlanner(planner.New(planner.WithMode(planner.ModeOff)))
	if ex.plan != nil {
		t.Fatal("ModeOff model attached")
	}
}

// cancelAfter is a context whose Err reports cancellation from its n+1-th
// call on, so a test can cancel a query at one exact checkpoint. It is safe
// for the concurrent checks of a parallel batch's workers.
type cancelAfter struct {
	context.Context
	n atomic.Int64
}

func newCancelAfter(n int) *cancelAfter {
	c := &cancelAfter{Context: context.Background()}
	c.n.Store(int64(n))
	return c
}

func (c *cancelAfter) Err() error {
	if c.n.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestPlannerCancelledCtxNotRecorded: a cancelled pass must not feed its
// partial latency into the model — on the pair path, and on the k-way probe
// chain when the cancellation lands in its seed pair or in a compaction
// pass. CountKCtx must return ctx.Err() at every checkpoint.
func TestPlannerCancelledCtxNotRecorded(t *testing.T) {
	rng := rand.New(rand.NewSource(84))
	// Every decision measured, none explored: the seed pair keeps the prior
	// (hash) arm, so the checkpoint sequence is the same in every run.
	m := planner.New(planner.WithMode(planner.ModeLearned), planner.WithSampleEvery(1))
	ex := NewExecutor()
	ex.EnablePlanner(m)
	a := buildRep(t, randSet(rng, 200_000, 1<<24), RepSegmented)
	b := buildRep(t, randSet(rng, 150_000, 1<<24), RepSegmented)
	assertNothingRecorded := func(what string) {
		t.Helper()
		m.Refit()
		snap := m.Snapshot()
		for _, c := range snap.Cells {
			if c.Samples > 0 {
				t.Fatalf("%s recorded a sample: %+v", what, c)
			}
		}
		for _, c := range snap.KProbe {
			if c.Samples > 0 {
				t.Fatalf("%s recorded a k-way probe sample: %+v", what, c)
			}
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ex.CountCtx(ctx, a, b); err == nil {
		t.Fatal("cancelled CountCtx returned no error")
	}
	assertNothingRecorded("cancelled CountCtx")

	// A skewed k-way query over dense lists: the 20k-element seed probes b
	// in ctxProbeBlock blocks, and its ~3000 survivors take two blocks to
	// compact through a. Cancel at each checkpoint in turn until a run
	// finishes.
	small := buildRep(t, randSet(rng, 20_000, 1<<20), RepSegmented)
	b = buildRep(t, randSet(rng, 150_000, 1<<20), RepSegmented)
	a = buildRep(t, randSet(rng, 200_000, 1<<20), RepSegmented)
	sets := []*Set{a, b, small}
	if !kwayProbe(sets) {
		t.Fatal("query does not select the probe chain")
	}
	want := len(refIntersect(refIntersect(small.Elements(), b.Elements()), a.Elements()))
	// CountKCtx's own check plus one per seed-pair probe block.
	seedChecks := 1 + (small.Len()+ctxProbeBlock-1)/ctxProbeBlock
	cancelled := 0
	for n := 0; ; n++ {
		got, err := ex.CountKCtx(newCancelAfter(n), sets...)
		if err == nil {
			if got != want {
				t.Fatalf("CountKCtx = %d, want %d", got, want)
			}
			break
		}
		if !errors.Is(err, context.Canceled) || got != 0 {
			t.Fatalf("cancelled at checkpoint %d: CountKCtx = %d, %v, want 0, context.Canceled", n, got, err)
		}
		assertNothingRecorded(fmt.Sprintf("k-way query cancelled at checkpoint %d", n))
		cancelled++
	}
	if cancelled <= seedChecks {
		t.Fatalf("%d checkpoints, none past the seed pair's %d: no compaction pass was cancelled",
			cancelled, seedChecks)
	}
}

// TestPlannerZeroAllocWarm: with a warm executor, planner-guided dispatch
// must not allocate — on the pairwise path or across a whole CountMany batch.
func TestPlannerZeroAllocWarm(t *testing.T) {
	rng := rand.New(rand.NewSource(85))
	m := newTestModel()
	ex := NewExecutor()
	ex.EnablePlanner(m)
	a := buildRep(t, randSet(rng, 20_000, 1<<18), RepSegmented)
	b := buildRep(t, randSet(rng, 4_000, 1<<18), RepSegmented)
	den := buildRep(t, randSet(rng, 6_000, 1<<13), RepDense)
	cands := []*Set{b, den, a}
	out := make([]int, len(cands))
	for i := 0; i < 8; i++ { // warm scratch, caches and the refit cadence
		ex.Count(a, b)
		ex.Count(a, den)
		ex.CountMany(a, cands, out)
	}
	if n := testing.AllocsPerRun(50, func() { ex.Count(a, b) }); n != 0 {
		t.Errorf("warm Count allocates %v times per op with the planner on", n)
	}
	if n := testing.AllocsPerRun(50, func() { ex.Count(a, den) }); n != 0 {
		t.Errorf("warm cross-rep Count allocates %v times per op with the planner on", n)
	}
	if n := testing.AllocsPerRun(50, func() { ex.CountMany(a, cands, out) }); n != 0 {
		t.Errorf("warm CountMany allocates %v times per op with the planner on", n)
	}
	// Both k-way arms: the probe chain consults the planner for its seed
	// pair and samples its compaction passes; the bitmap chain does not.
	c := buildRep(t, randSet(rng, 15_000, 1<<18), RepSegmented)
	d := buildRep(t, randSet(rng, 18_000, 1<<18), RepSegmented)
	for qi, q := range [][]*Set{{a, b, den}, {a, c, b}, {a, c, d}} {
		if kwayProbe(q) != (qi < 2) {
			t.Fatalf("k-way query %d: kwayProbe = %v", qi, kwayProbe(q))
		}
		for i := 0; i < 8; i++ {
			ex.CountK(q...)
		}
		if n := testing.AllocsPerRun(50, func() { ex.CountK(q...) }); n != 0 {
			t.Errorf("warm CountK (probe chain %v) allocates %v times per op with the planner on", kwayProbe(q), n)
		}
	}
}

// TestPlannerConcurrentExecutors: several executors sharing one model, each
// on its own goroutine, with re-fits and snapshots racing from the main
// goroutine — the single-writer shard protocol must hold under -race, and
// every result must stay correct throughout.
func TestPlannerConcurrentExecutors(t *testing.T) {
	rng := rand.New(rand.NewSource(86))
	m := newTestModel()
	a := buildRep(t, randSet(rng, 8000, 1<<16), RepSegmented)
	cands := []*Set{
		buildRep(t, randSet(rng, 5000, 1<<16), RepSegmented),
		buildRep(t, randSet(rng, 200, 1<<16), RepArray),
		buildRep(t, randSet(rng, 3000, 1<<12), RepDense),
	}
	plain := NewExecutor()
	want := make([]int, len(cands))
	plain.CountMany(a, cands, want)

	errc := make(chan error, 4)
	for g := 0; g < 4; g++ {
		go func() {
			ex := NewExecutor()
			ex.EnablePlanner(m)
			out := make([]int, len(cands))
			for i := 0; i < 300; i++ {
				ex.CountMany(a, cands, out)
				for j := range want {
					if out[j] != want[j] {
						errc <- fmt.Errorf("concurrent CountMany[%d] = %d, want %d", j, out[j], want[j])
						return
					}
				}
				for _, c := range cands {
					if got := ex.Count(a, c); got < 0 {
						panic("unreachable")
					}
				}
			}
			errc <- nil
		}()
	}
	for i := 0; i < 40; i++ {
		m.Refit()
		_ = m.Snapshot()
	}
	for g := 0; g < 4; g++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
}

// BenchmarkPlanDecide prices one seg×seg strategy decision (planSegSeg) over
// pairs whose lengths straddle the rule in force (1 to ~7,000 elements:
// both sides of planner.SkewThreshold, and on the AVX-512 rung of
// planner.HashFloor): with no planner handle, the static useHash rule,
// against a prior-mode handle, which makes the same decisions from the cost
// model (TestPlannerPriorBitIdentical). Planner off
// can become prior mode without sampling, and the static rule can go, once
// the prior-mode decision costs about what the rule does.
func BenchmarkPlanDecide(b *testing.B) {
	rng := rand.New(rand.NewSource(87))
	sets := make([]*Set, 64)
	for i := range sets {
		sets[i] = MustNewSet(randSet(rng, 1+int(math.Pow(1.15, float64(i))), 1<<20), DefaultConfig())
	}
	for _, mode := range []struct {
		name string
		h    *planner.Handle
	}{
		{"rule", nil},
		{"prior", planner.New(planner.WithMode(planner.ModePrior)).NewHandle()},
	} {
		b.Run(mode.name, func(b *testing.B) {
			hashes := 0
			for i := 0; i < b.N; i++ {
				if _, hash := planSegSeg(mode.h, nil, sets[i&63], sets[(i*7+3)&63]); hash {
					hashes++
				}
			}
			benchSink += hashes
		})
	}
}
