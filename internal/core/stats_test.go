package core

import (
	"bytes"
	"context"
	"maps"
	"strings"
	"sync"
	"testing"
	"time"

	"fesia/internal/stats"
	"fesia/internal/trace"
)

// statsSkewedPair returns a (small, large) pair whose size ratio forces the
// hash strategy.
func statsSkewedPair(t testing.TB) (*Set, *Set) {
	t.Helper()
	_, large := benchPair(40_000, 0.5, DefaultConfig())
	small := MustNewSet(append([]uint32(nil), large.reordered[:500]...), DefaultConfig())
	if !useHash(small, large) {
		t.Fatal("pair not skewed enough for the hash strategy")
	}
	return small, large
}

// statsMergePair returns a pair the static rule merges on every rung: equal
// lengths one short of HashFloor, sharing half their elements, so
// segment pairs survive the filter.
func statsMergePair(t testing.TB) (*Set, *Set) {
	t.Helper()
	a, b := benchPair(HashFloor-1, 0.5, DefaultConfig())
	if useHash(a, b) {
		t.Fatal("pair not below the hash floor")
	}
	return a, b
}

// TestExecutorStatsRecording drives every instrumented strategy through one
// executor and checks the snapshot reflects it — and that every result is
// identical to the uninstrumented free functions (instrumentation must never
// change answers).
func TestExecutorStatsRecording(t *testing.T) {
	a, b := benchPair(20_000, 0.3, DefaultConfig())
	ma, mb := statsMergePair(t)
	small, large := statsSkewedPair(t)
	k := stats.New()
	e := NewExecutor()
	e.EnableStats(k)

	if got, want := e.Count(ma, mb), Count(ma, mb); got != want {
		t.Fatalf("merge count with stats = %d, want %d", got, want)
	}
	// The merge pair runs the merge body's word loop, and the fresh executor
	// samples its first merge query: the pair counter holds the dispatch
	// trace's length and the kernel histogram its sizes.
	x, y := ordered(ma, mb)
	if walkOf(x, y) != walkWords {
		t.Fatal("the merge pair does not run the word loop")
	}
	traceSizes := func(dt [][2]int) map[[2]int]uint64 {
		m := map[[2]int]uint64{}
		for _, d := range dt {
			m[d]++
		}
		return m
	}
	kernelSizes := func(snap stats.Snapshot) map[[2]int]uint64 {
		m := map[[2]int]uint64{}
		for _, kb := range snap.Kernels {
			m[[2]int{kb.SizeA, kb.SizeB}] += kb.Count
		}
		return m
	}
	dt := DispatchTrace(ma, mb)
	first := e.Stats()
	if got := first.Counter(stats.CtrSegPairs); len(dt) == 0 || got != uint64(len(dt)) {
		t.Errorf("word-loop merge: SegPairs = %d, want the dispatch trace's %d (non-zero)", got, len(dt))
	}
	if got, want := first.Counter(stats.CtrSegmentsScanned), uint64(x.NumSegments()); got != want {
		t.Errorf("word-loop merge: SegmentsScanned = %d, want %d", got, want)
	}
	if got, want := kernelSizes(first), traceSizes(dt); !maps.Equal(got, want) {
		t.Errorf("word-loop merge: kernel histogram %v, want the dispatch trace's %v", got, want)
	}
	// Its kernel trace event carries the same pairs and segments.
	tr := trace.New(trace.Config{})
	cell := tr.ShardCell(0, 0)
	tracer := NewExecutor()
	tracer.SetTraceCell(cell)
	base := time.Now()
	tr.Begin(0, base)
	cell.Reset(base)
	tracer.Count(ma, mb)
	var kernelEvents []trace.Span
	for _, sp := range tr.Capture(0, tr.Finish(0, time.Since(base), true)).Spans {
		if sp.Kind == "kernel" {
			kernelEvents = append(kernelEvents, sp)
		}
	}
	if len(kernelEvents) != 1 || kernelEvents[0].V1 != uint64(len(dt)) || kernelEvents[0].V2 != uint64(x.NumSegments()) {
		t.Errorf("word-loop merge: kernel events %+v, want one with v1 %d, v2 %d", kernelEvents, len(dt), x.NumSegments())
	}
	// A 128-word merge (the mask walk on the assembly rungs), serial and on
	// 3 workers whose word ranges split mask blocks, records the same on a
	// fresh executor, which samples its first merge query.
	wa, wb := benchPair(400, 0.5, DefaultConfig())
	if wx, _ := ordered(wa, wb); len(wx.bm.Words()) < maskWalkWords {
		t.Fatalf("the wide merge pair has %d words, below the mask walk", len(wx.bm.Words()))
	}
	wdt := DispatchTrace(wa, wb)
	for _, c := range []struct {
		name string
		run  func(e *Executor) int
	}{
		{"CountMerge", func(e *Executor) int { return e.CountMerge(wa, wb) }},
		{"CountMergeParallel", func(e *Executor) int { return e.CountMergeParallel(wa, wb, 3) }},
	} {
		fresh := NewExecutor()
		fresh.EnableStats(stats.New())
		if got, want := c.run(fresh), CountMerge(wa, wb); got != want {
			t.Fatalf("%s with stats = %d, want %d", c.name, got, want)
		}
		snap := fresh.Stats()
		if got := snap.Counter(stats.CtrSegPairs); len(wdt) == 0 || got != uint64(len(wdt)) {
			t.Errorf("%s: SegPairs = %d, want the dispatch trace's %d (non-zero)", c.name, got, len(wdt))
		}
		if got, want := kernelSizes(snap), traceSizes(wdt); !maps.Equal(got, want) {
			t.Errorf("%s: kernel histogram %v, want the dispatch trace's %v", c.name, got, want)
		}
	}
	if got, want := e.Count(small, large), Count(small, large); got != want {
		t.Fatalf("hash count with stats = %d, want %d", got, want)
	}
	if got, want := e.CountK(a, b, large), CountK(a, b, large); got != want {
		t.Fatalf("k-way count with stats = %d, want %d", got, want)
	}
	cands := []*Set{b, large, small}
	out := make([]int, len(cands))
	want := make([]int, len(cands))
	e.CountMany(a, cands, out)
	for i, c := range cands {
		want[i] = Count(a, c)
		if out[i] != want[i] {
			t.Fatalf("batch count[%d] with stats = %d, want %d", i, out[i], want[i])
		}
	}

	snap := e.Stats()
	if got := snap.Counter(stats.CtrQueriesMerge); got != 1 {
		t.Errorf("QueriesMerge = %d, want 1", got)
	}
	if got := snap.Counter(stats.CtrQueriesHash); got != 1 {
		t.Errorf("QueriesHash = %d, want 1", got)
	}
	if got := snap.Counter(stats.CtrQueriesKWay); got != 1 {
		t.Errorf("QueriesKWay = %d, want 1", got)
	}
	if got := snap.Counter(stats.CtrQueriesBatch); got != 1 {
		t.Errorf("QueriesBatch = %d, want 1", got)
	}
	if got := snap.Counter(stats.CtrBatchCandidates); got != uint64(len(cands)) {
		t.Errorf("BatchCandidates = %d, want %d", got, len(cands))
	}
	if snap.Counter(stats.CtrSegPairs) == 0 {
		t.Error("no segment pairs recorded by the merge paths")
	}
	if snap.Counter(stats.CtrSegmentsScanned) < snap.Counter(stats.CtrSegPairs) {
		t.Errorf("SegmentsScanned (%d) < SegPairs (%d): survival ratio > 1",
			snap.Counter(stats.CtrSegmentsScanned), snap.Counter(stats.CtrSegPairs))
	}
	probes, surv := snap.Counter(stats.CtrHashProbes), snap.Counter(stats.CtrHashSurvivors)
	if probes == 0 {
		t.Error("no hash probes recorded")
	}
	if surv > probes {
		t.Errorf("HashSurvivors (%d) > HashProbes (%d)", surv, probes)
	}
	// The kernel histogram is sampled 1-in-KernelSampleRate merge queries; a
	// fresh executor samples its very first one, so it must be populated, and
	// it can never exceed the exact pair counter.
	if len(snap.Kernels) == 0 {
		t.Error("kernel-dispatch histogram empty after merge queries")
	}
	var kernelTotal uint64
	for _, kb := range snap.Kernels {
		kernelTotal += kb.Count
	}
	if kernelTotal == 0 || kernelTotal > snap.Counter(stats.CtrSegPairs) {
		t.Errorf("kernel dispatches = %d, want in [1, SegPairs=%d]", kernelTotal, snap.Counter(stats.CtrSegPairs))
	}
	if got := snap.Latency(stats.LatMerge).Count; got != 1 {
		t.Errorf("merge latency count = %d, want 1", got)
	}
	if got := snap.Latency(stats.LatHash).Count; got != 1 {
		t.Errorf("hash latency count = %d, want 1", got)
	}
}

// TestExecutorStatsParallelAndPool checks the worker-shard wiring of the
// parallel paths and the global sink's pool counters.
func TestExecutorStatsParallelAndPool(t *testing.T) {
	a, b := benchPair(50_000, 0.3, DefaultConfig())
	k := stats.New()
	EnableStats(k)
	defer EnableStats(nil)

	e := NewExecutor() // attaches to the global sink
	if got, want := e.CountMergeParallel(a, b, 4), CountMerge(a, b); got != want {
		t.Fatalf("parallel merge with stats = %d, want %d", got, want)
	}
	cands := []*Set{b, a, b, a, b, a}
	out := make([]int, len(cands))
	e.CountManyParallel(a, cands, out, 3)
	for i, c := range cands {
		if want := Count(a, c); out[i] != want {
			t.Fatalf("parallel batch count[%d] = %d, want %d", i, out[i], want)
		}
	}

	snap := k.Snapshot()
	if got := snap.Counter(stats.CtrPoolDo); got == 0 {
		t.Error("no pool Do calls recorded")
	}
	if got, want := snap.Counter(stats.CtrPoolDoDone), snap.Counter(stats.CtrPoolDo); got != want {
		t.Errorf("PoolDoDone = %d, want %d (in-flight should be zero at rest)", got, want)
	}
	if snap.Counter(stats.CtrPoolPartsPooled)+snap.Counter(stats.CtrPoolPartsInline) == 0 {
		t.Error("no pool parts recorded")
	}
	if snap.Counter(stats.CtrSegPairs) == 0 {
		t.Error("worker shards recorded no segment pairs")
	}
	if snap.NumShards < 2 {
		t.Errorf("NumShards = %d, want executor shard + worker shards", snap.NumShards)
	}
}

// TestStatsCancellationCounter checks a cancelled query counts exactly once.
func TestStatsCancellationCounter(t *testing.T) {
	a, b := statsMergePair(t)
	k := stats.New()
	e := NewExecutor()
	e.EnableStats(k)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.CountCtx(ctx, a, b); err == nil {
		t.Fatal("cancelled CountCtx returned nil error")
	}
	snap0 := e.Stats()
	if got := snap0.Counter(stats.CtrCancellations); got != 1 {
		t.Fatalf("Cancellations = %d, want 1", got)
	}
	// A successful ctx query records its strategy, not a cancellation.
	n, err := e.CountCtx(context.Background(), a, b)
	if err != nil || n != Count(a, b) {
		t.Fatalf("CountCtx = %d, %v; want %d, nil", n, err, Count(a, b))
	}
	snap := e.Stats()
	if got := snap.Counter(stats.CtrCancellations); got != 1 {
		t.Errorf("Cancellations after success = %d, want still 1", got)
	}
	if got := snap.Counter(stats.CtrQueriesMerge); got != 1 {
		t.Errorf("QueriesMerge via ctx = %d, want 1", got)
	}
}

// TestStatsSnapshotCodecCounters checks the serialization outcome counters on
// the global sink, including the error paths.
func TestStatsSnapshotCodecCounters(t *testing.T) {
	a, _ := benchPair(1000, 0.3, DefaultConfig())
	k := stats.New()
	EnableStats(k)
	defer EnableStats(nil)

	var buf bytes.Buffer
	if _, err := a.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSet(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSet(strings.NewReader("not a snapshot")); err == nil {
		t.Fatal("garbage stream read succeeded")
	}
	snap := k.Snapshot()
	if got := snap.Counter(stats.CtrSnapshotWrites); got != 1 {
		t.Errorf("SnapshotWrites = %d, want 1", got)
	}
	if got := snap.Counter(stats.CtrSnapshotReads); got != 1 {
		t.Errorf("SnapshotReads = %d, want 1", got)
	}
	if got := snap.Counter(stats.CtrSnapshotReadErrors); got != 1 {
		t.Errorf("SnapshotReadErrors = %d, want 1", got)
	}
}

// TestStatsZeroAllocWarm proves the paper's "queries are the cheap repeated
// step" contract survives instrumentation: with stats ENABLED, the warm hot
// paths still perform zero heap allocations.
func TestStatsZeroAllocWarm(t *testing.T) {
	a, b := benchPair(20_000, 0.3, DefaultConfig())
	small, large := statsSkewedPair(t)
	k := stats.New()
	e := NewExecutor()
	e.EnableStats(k)
	cands := []*Set{b, large, small}
	out := make([]int, len(cands))

	cases := []struct {
		name string
		fn   func()
	}{
		{"Count/merge", func() { benchSink += e.Count(a, b) }},
		{"Count/hash", func() { benchSink += e.Count(small, large) }},
		{"CountK/chain", func() { benchSink += e.CountK(a, b, large) }},
		{"CountK/probe", func() { benchSink += e.CountK(a, b, small) }},
		{"CountMany", func() { e.CountMany(a, cands, out) }},
		// The *Parallel paths are excluded: Pool.Do's task closure costs two
		// allocations with or without stats (same as the seed), so they prove
		// nothing about instrumentation overhead.
	}
	for _, c := range cases {
		c.fn() // warm buffers and worker shards
		if avg := testing.AllocsPerRun(20, c.fn); avg != 0 {
			t.Errorf("%s with stats enabled: %v allocs/op, want 0", c.name, avg)
		}
	}
}

// TestStatsConcurrentExecutors hammers one global sink from many goroutines,
// each with its own executor, overlapping on the shared pool — the serving
// topology. Run under -race this proves the shard ownership model holds end
// to end; the final snapshot proves no query was lost.
func TestStatsConcurrentExecutors(t *testing.T) {
	a, b := benchPair(20_000, 0.3, DefaultConfig())
	ma, mb := statsMergePair(t)
	k := stats.New()
	EnableStats(k)
	defer EnableStats(nil)

	const goroutines = 6
	const iters = 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e := NewExecutor()
			for i := 0; i < iters; i++ {
				e.Count(ma, mb)
				e.CountMergeParallel(a, b, 3)
			}
		}()
	}
	wg.Wait()

	snap := k.Snapshot()
	if got, want := snap.Counter(stats.CtrQueriesMerge), uint64(goroutines*iters*2); got != want {
		t.Errorf("QueriesMerge = %d, want %d (lost updates)", got, want)
	}
	if got, want := snap.Latency(stats.LatMerge).Count, uint64(goroutines*iters*2); got != want {
		t.Errorf("merge latency count = %d, want %d", got, want)
	}
	if got, want := snap.Counter(stats.CtrPoolDoDone), snap.Counter(stats.CtrPoolDo); got != want {
		t.Errorf("PoolDoDone = %d, want %d", got, want)
	}
}

// TestPairObservabilityParity: every two-set entry point is observed the same
// way — one strategy span naming the arm that ran, one query counter and one
// latency observation per call — on a merge, a hash and a cross pair.
func TestPairObservabilityParity(t *testing.T) {
	a, b := statsMergePair(t)
	small, large := statsSkewedPair(t)
	arr := buildRep(t, small.Elements(), RepArray)
	tr := trace.New(trace.Config{})
	cell := tr.ShardCell(0, 0)
	k := stats.New()
	e := NewExecutor()
	e.EnableStats(k)
	e.SetTraceCell(cell)
	dst := make([]uint32, 20_000)
	ctx := context.Background()
	calls := []struct {
		name string
		fn   func(x, y *Set)
	}{
		{"Count", func(x, y *Set) { e.Count(x, y) }},
		{"Intersect", func(x, y *Set) { e.Intersect(dst, x, y) }},
		{"Visit", func(x, y *Set) { e.Visit(x, y, func(uint32) {}) }},
		{"CountCtx", func(x, y *Set) { e.CountCtx(ctx, x, y) }},
		{"IntersectIntoCtx", func(x, y *Set) { e.IntersectIntoCtx(ctx, dst, x, y) }},
	}
	pairs := []struct {
		arm  string
		x, y *Set
		q    stats.Counter
		lat  stats.LatHist
	}{
		{"merge", a, b, stats.CtrQueriesMerge, stats.LatMerge},
		{"hash", small, large, stats.CtrQueriesHash, stats.LatHash},
		{"cross", arr, large, stats.CtrQueriesCross, stats.LatCross},
	}
	allQueries := func(s *stats.Snapshot) (n uint64) {
		for _, c := range []stats.Counter{stats.CtrQueriesMerge, stats.CtrQueriesHash, stats.CtrQueriesCross} {
			n += s.Counter(c)
		}
		return n
	}
	for _, p := range pairs {
		for _, c := range calls {
			before := e.Stats()
			base := time.Now()
			tr.Begin(0, base)
			cell.Reset(base)
			c.fn(p.x, p.y)
			capd := tr.Capture(0, tr.Finish(0, time.Since(base), true))
			var arms []string
			for _, sp := range capd.Spans {
				if sp.Kind == "strategy" {
					arms = append(arms, sp.Arm)
				}
			}
			if len(arms) != 1 || arms[0] != p.arm {
				t.Errorf("%s on the %s pair: strategy spans %v, want one %q", c.name, p.arm, arms, p.arm)
			}
			after := e.Stats()
			if got := after.Counter(p.q) - before.Counter(p.q); got != 1 {
				t.Errorf("%s on the %s pair: %d %s queries recorded, want 1", c.name, p.arm, got, p.arm)
			}
			if got := allQueries(&after) - allQueries(&before); got != 1 {
				t.Errorf("%s on the %s pair: %d pair queries recorded, want 1", c.name, p.arm, got)
			}
			if got := after.Latency(p.lat).Count - before.Latency(p.lat).Count; got != 1 {
				t.Errorf("%s on the %s pair: %d latency observations, want 1", c.name, p.arm, got)
			}
		}
	}
}
