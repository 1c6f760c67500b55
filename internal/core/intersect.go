package core

import (
	"time"

	"fesia/internal/bitmap"
	"fesia/internal/simd"
)

// coreChunkBlocks sizes the stack mask buffer of the merge body's mask walk
// (mergeMasks): 256 blocks = 1024 bitmap words per chunk, one ctxWordBlock,
// matching internal/bitmap's fast filter.
const coreChunkBlocks = 256

// CountMerge returns |a ∩ b| using the two-step FESIA algorithm
// (Algorithm 1): bitmap-level AND, then specialized kernels on the
// surviving segment pairs. This is the paper's FESIAmerge. Pairs involving a
// non-segmented set have no merge/hash strategy distinction; they route to
// the cross-representation dispatch matrix (hybrid.go).
//
// Like every package-level two-set function it runs on a pooled default
// Executor, so it records into the active stats sink; hot loops should hold
// their own Executor.
func CountMerge(a, b *Set) int { return pooledPair(a, b, armMerge, nil) }

// IntersectMerge writes a ∩ b into dst and returns the count. dst must have
// room for min(a.Len(), b.Len()) elements. Results are emitted in segment
// order (ascending within each segment); use sort.Slice for value order.
// Cross-representation pairs route to the dispatch matrix (hybrid.go).
func IntersectMerge(dst []uint32, a, b *Set) int { return pooledPair(a, b, armMerge, dst) }

// pooledPair runs one pair query on a pooled default Executor.
func pooledPair(a, b *Set, force pairArm, dst []uint32) int {
	e := getExecutor()
	defer putExecutor(e)
	return e.run(a, b, force, dst, nil)
}

// CountHash returns |a ∩ b| with the skewed-input strategy of Section VI.
// Complexity O(min(n1, n2)). This is the paper's FESIAhash.
// Cross-representation pairs route to the dispatch matrix (hybrid.go).
func CountHash(a, b *Set) int { return pooledPair(a, b, armHash, nil) }

// IntersectHash writes a ∩ b into dst using the skewed-input strategy and
// returns the count. Results follow the smaller set's segment order.
// Cross-representation pairs route to the dispatch matrix (hybrid.go).
func IntersectHash(dst []uint32, a, b *Set) int { return pooledPair(a, b, armHash, dst) }

// Count picks the strategy from the sets' lengths (useHash): the hash probe
// when one set is dramatically smaller (skew below SkewThreshold, Fig. 11's
// crossover) or, on the AVX-512 rung, when the smaller set holds at least
// HashFloor elements; the two-step merge otherwise.
func Count(a, b *Set) int { return pooledPair(a, b, armAuto, nil) }

// Intersect writes a ∩ b into dst with the adaptively chosen strategy and
// returns the count, in Executor.Intersect's order.
func Intersect(dst []uint32, a, b *Set) int { return pooledPair(a, b, armAuto, dst) }

// SkewThreshold is the size ratio below which the seg×seg rule (HashSegSeg)
// hashes on every rung: Section VI's FESIAmerge/FESIAhash crossover, which
// the paper's Fig. 11 places at a skew of about 1/4. The sweep of the arms
// that ship (BenchmarkPairArms, EXPERIMENTS.md "Fig 11 on the shipped path")
// keeps it on the AVX2 and scalar rungs.
const SkewThreshold = 0.25

// HashFloor is the smaller side's length from which the seg×seg rule hashes
// every pair on the AVX-512 rung, where the probe hashes, gathers and
// bit-tests sixteen elements at a time (simd.ProbeStage) and a probe is
// filtered by one bitmap bit, not by an 8-bit segment. The sweep
// (EXPERIMENTS.md "Fig 11 on the shipped path") has hash ahead on that rung
// in every cell whose smaller side fills a gathered group, but for two
// 16-element sides at low selectivity, and the arms mixed below it.
const HashFloor = 16

// HashSegSeg is the seg×seg merge/hash rule, the one strategy decision of a
// segmented pair: the hash probe when the smaller side's length is below
// SkewThreshold times the larger's, or, on the AVX-512 rung, when the smaller
// side holds at least HashFloor elements; the two-step merge otherwise. It
// reads the live rung, so a simd.SetAvx512Enabled toggle moves it.
func HashSegSeg(small, large int) bool {
	return float64(small) < SkewThreshold*float64(large) || small >= HashFloor && simd.GatherProbeActive()
}

// useHash is HashSegSeg on a and b's lengths.
func useHash(a, b *Set) bool { return HashSegSeg(int(min(a.n, b.n)), int(max(a.n, b.n))) }

// ---------------------------------------------------------------------------
// k-way intersection (Section VI).
// ---------------------------------------------------------------------------

// CountK returns |s1 ∩ s2 ∩ ... ∩ sk|. On the bitmap chain (three or more
// sets of similar size) the k bitmaps are ANDed together to prune segments
// none of which share a bit; the surviving segments' element lists are then
// intersected pairwise with the specialized kernels, expected work
// O(kn/√w + r) (Proposition 2). Two sets take the adaptive pair path, and
// skewed or mixed-representation sets the probe chain (Executor.CountK).
//
// This is a compatibility wrapper over a pooled default Executor; callers on
// a hot path should hold their own Executor to keep its chain buffers warm.
func CountK(sets ...*Set) int {
	e := getExecutor()
	defer putExecutor(e)
	return e.CountK(sets...)
}

// IntersectK writes the k-way intersection into dst and returns the count.
// dst must have room for the smallest set's length. Compatibility wrapper
// over a pooled default Executor.
func IntersectK(dst []uint32, sets ...*Set) int {
	if dst == nil {
		panic("core: IntersectK requires a destination buffer")
	}
	e := getExecutor()
	defer putExecutor(e)
	return e.IntersectK(dst, sets...)
}

// CountKParallel is CountK with the largest bitmap's words partitioned
// across `workers` parts of the persistent shared pool (Section VI's
// multicore scheme applied to the k-way AND). Compatibility wrapper over a
// pooled default Executor.
func CountKParallel(workers int, sets ...*Set) int {
	e := getExecutor()
	defer putExecutor(e)
	return e.CountKParallel(workers, sets...)
}

// ---------------------------------------------------------------------------
// Multicore parallelism (Section VI): the larger bitmap's words are
// partitioned across workers; segments never straddle words, so workers
// touch disjoint segment pairs. These compatibility wrappers run on a pooled
// default Executor, whose persistent worker pool replaces the seed's
// per-call goroutine spawning.
// ---------------------------------------------------------------------------

// CountMergeParallel is CountMerge across `workers` parts of the shared pool.
func CountMergeParallel(a, b *Set, workers int) int {
	e := getExecutor()
	defer putExecutor(e)
	return e.CountMergeParallel(a, b, workers)
}

// IntersectMergeParallel is IntersectMerge across `workers` parts of the
// shared pool. Workers materialize disjoint word ranges into private buffers
// which are concatenated in range order, so the output matches
// IntersectMerge.
func IntersectMergeParallel(dst []uint32, a, b *Set, workers int) int {
	e := getExecutor()
	defer putExecutor(e)
	return e.IntersectMergeParallel(dst, a, b, workers)
}

// CountHashParallel applies the skewed-input strategy with the smaller set's
// elements partitioned across workers (the parallelization Section VI
// prescribes when input sizes differ dramatically).
func CountHashParallel(a, b *Set, workers int) int {
	e := getExecutor()
	defer putExecutor(e)
	return e.CountHashParallel(a, b, workers)
}

// DispatchTrace returns the (sizeA, sizeB) segment-size pairs that the
// merge arm dispatches to kernels, in dispatch order (the larger bitmap's
// segment order). The instruction-cache simulation behind Table II replays
// this trace. It walks the pair with step 1 alone (walkPairs) into a pooled
// executor's buffer, so once it is warm the only allocation is the returned
// slice itself. Cross-representation pairs dispatch no segment kernels; the
// trace is nil.
func DispatchTrace(a, b *Set) [][2]int {
	if crossPair(a, b) {
		return nil
	}
	compatible(a, b)
	e := getExecutor()
	defer putExecutor(e)
	recs := e.walkPairs(ordered(a, b))
	trace := make([][2]int, len(recs))
	for i, r := range recs {
		trace[i] = [2]int{int(r[1] - r[0]), int(r[3] - r[2])}
	}
	return trace
}

// walkPairs runs step 1 of Algorithm 1 on its own over x (the larger-bitmap
// set) and y: the k = 2 form of bitmap.ForEachIntersectingSegmentKRange
// yields each live segment, and each surviving pair's bounds (x's range,
// then y's) are recorded, in segment order, in the executor's walk buffer,
// which it returns. No query runs it; the instrumentation does.
func (e *Executor) walkPairs(x, y *Set) [][4]uint32 {
	e.maps = append(e.maps[:0], x.asBitmap(), y.asBitmap())
	e.walk = e.walk[:0]
	segMaskY := y.numSegments() - 1
	bitmap.ForEachIntersectingSegmentKRange(e.maps, 0, x.nwords(), func(seg int) {
		oa, oaEnd := x.bounds(seg)
		ob, obEnd := y.bounds(seg & segMaskY)
		e.walk = append(e.walk, [4]uint32{oa, oaEnd, ob, obEnd})
	})
	return e.walk
}

// ---------------------------------------------------------------------------
// Instrumented intersection for the Fig. 14 performance breakdown.
// ---------------------------------------------------------------------------

// Breakdown reports the time of a two-step intersection's two steps, each
// run in isolation (CountMergeBreakdown).
type Breakdown struct {
	BitmapTime  time.Duration // step 1: bitmap AND + segment index extraction
	SegmentTime time.Duration // step 2: specialized kernels
	SegPairs    int           // segment pairs surviving the filter (true + false positive)
	Count       int           // final intersection size
}

// CountMergeBreakdown is CountMerge split into the two steps of Fig. 14, each
// run and timed in isolation: step 1 (BitmapTime) walks the bitmap AND and
// records each surviving segment pair's bounds (walkPairs), and step 2
// (SegmentTime) runs simd.CountSmall over the records. No query runs the
// steps apart — the merge body hands each pair to its kernel as the AND
// yields it — so the split is the paper's instrumentation, not a profile of
// that body; time a query for that. The record buffer is retained across
// calls, so repeated Fig. 14 breakdown sweeps are allocation-free once warm.
// The count is identical to CountMerge. Cross-representation pairs have no
// bitmap step; their whole matrix-dispatched run is reported as SegmentTime
// with zero SegPairs.
func (e *Executor) CountMergeBreakdown(a, b *Set) Breakdown {
	compatible(a, b)
	if crossPair(a, b) {
		n, el := e.crossTimed(a, b)
		return Breakdown{SegmentTime: el, Count: n}
	}
	x, y := ordered(a, b)

	start := time.Now()
	recs := e.walkPairs(x, y)
	bitmapTime := time.Since(start)

	start = time.Now()
	n := 0
	xr, yr := x.elems(), y.elems()
	for _, r := range recs {
		n += simd.CountSmall(xr[r[0]:r[1]], yr[r[2]:r[3]])
	}
	segTime := time.Since(start)

	return Breakdown{
		BitmapTime:  bitmapTime,
		SegmentTime: segTime,
		SegPairs:    len(recs),
		Count:       n,
	}
}

// crossTimed runs a cross-representation pair on the pair engine's plan and
// body, and returns its count and run time: the whole of a breakdown of a
// pair with no bitmap phases.
func (e *Executor) crossTimed(a, b *Set) (int, time.Duration) {
	p := planPair(a, b, armAuto)
	start := time.Now()
	n, _ := e.runPair(nil, nil, p, a, b, nil, nil)
	return n, time.Since(start)
}

// CountMergeBreakdown is the pooled-executor compatibility wrapper; hot
// breakdown sweeps should hold an Executor to keep its record buffer warm.
func CountMergeBreakdown(a, b *Set) Breakdown {
	e := getExecutor()
	defer putExecutor(e)
	return e.CountMergeBreakdown(a, b)
}

// HashBreakdown reports where time went during a skewed-input (FESIAhash)
// intersection — the hash-side counterpart of Breakdown, covering the
// strategy CountMergeBreakdown says nothing about.
type HashBreakdown struct {
	StageTime time.Duration // branch-free bitmap probing + survivor compaction
	TouchTime time.Duration // read-ahead touch pass over survivor segment lines
	ScanTime  time.Duration // survivor segment-list scans
	Probes    int           // elements probed (the smaller set's size)
	Survivors int           // probes whose bitmap bit was set (true + false positive)
	Blocks    int           // staged blocks of up to probeBlock elements (0 on the direct loop)
	Count     int           // final intersection size
}

// CountHashBreakdown is CountHash with per-phase timing of the body the hash
// arm runs (probe). On the staged body each block's gathered staging, touch
// pass and segment scans are timed in isolation, and the sub-16 tail, which
// runs the direct loop, counts as scan time. On the direct loop — below
// probeStagedMin elements, or on rungs without the gathered stage — the whole
// loop is reported as ScanTime with Blocks 0. The count is identical to
// CountHash, and repeated sweeps are allocation-free.
// Cross-representation pairs have no probe phases; their whole run is
// reported as ScanTime with the probing-side size as Probes.
func (e *Executor) CountHashBreakdown(a, b *Set) HashBreakdown {
	compatible(a, b)
	if crossPair(a, b) {
		n, el := e.crossTimed(a, b)
		return HashBreakdown{ScanTime: el, Probes: int(min(a.n, b.n)), Count: n}
	}
	small, large := a, b
	if small.n > large.n {
		small, large = large, small
	}
	elems := small.elems()
	bd := HashBreakdown{Probes: len(elems)}
	done := 0
	if probeStages(len(elems), large) {
		var sb stageBuf
		for done+16 <= len(elems) {
			t0 := time.Now()
			ns, consumed := sb.stage(elems[done:min(done+probeBlock, len(elems))], large)
			t1 := time.Now()
			e.touch += sb.touch(ns, large)
			t2 := time.Now()
			bd.Count = sb.scan(ns, large, nil, nil, bd.Count)
			bd.ScanTime += time.Since(t2)
			bd.StageTime += t1.Sub(t0)
			bd.TouchTime += t2.Sub(t1)
			bd.Blocks++
			bd.Survivors += ns
			done += consumed
		}
	}
	t0 := time.Now()
	n, survivors := probeDirect(elems[done:], large, nil, nil)
	bd.ScanTime += time.Since(t0)
	bd.Count += n
	bd.Survivors += survivors
	return bd
}

// CountHashBreakdown is the pooled-executor compatibility wrapper for the
// hash-side breakdown.
func CountHashBreakdown(a, b *Set) HashBreakdown {
	e := getExecutor()
	defer putExecutor(e)
	return e.CountHashBreakdown(a, b)
}

// HashProbe is one element's outcome in a hash-strategy probe trace.
type HashProbe struct {
	Elem     uint32 // probed element (smaller set, segment order)
	Survived bool   // bitmap bit was set; the segment list was scanned
	SegLen   int    // length of the scanned segment list (0 if filtered out)
	Match    bool   // element present in the larger set
}

// HashProbeTrace returns the per-element outcomes the skewed-input strategy
// would produce, in probe order — the hash-side counterpart of DispatchTrace
// (which covers only the merge strategy's kernel dispatches). The filter rate
// and scanned-segment lengths are the quantities behind the strategy's
// O(min(n1, n2)) bound. The only allocation is the returned slice. Pairs
// involving a non-segmented set never hash-probe a bitmap; the trace is nil.
func HashProbeTrace(a, b *Set) []HashProbe {
	if crossPair(a, b) {
		return nil
	}
	compatible(a, b)
	small, large := a, b
	if small.n > large.n {
		small, large = large, small
	}
	words, _, _ := large.region()
	mBits, shift := large.mBits(), segShift(large)
	trace := make([]HashProbe, 0, small.n)
	for _, x := range small.elems() {
		pos := large.build.hasher.Pos(x, mBits)
		p := HashProbe{Elem: x}
		if words[pos>>6]&(1<<(pos&63)) != 0 {
			list := large.segment(int(pos >> shift))
			hit, ok := member(list, x)
			p.Survived, p.SegLen, p.Match = true, len(list), hit || !ok && simd.Contains(list, x)
		}
		trace = append(trace, p)
	}
	return trace
}
