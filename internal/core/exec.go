package core

import (
	"sync"

	"fesia/internal/bitmap"
	"fesia/internal/simd"
	"fesia/internal/stats"
	"fesia/internal/trace"
)

// Visitor consumes one intersection result element. Streaming results through
// a Visitor instead of a destination slice lets callers aggregate, filter, or
// forward matches without materializing them — the result-flow idiom of
// visitor-based set-operation libraries, applied to FESIA's online phase.
type Visitor func(uint32)

// Executor owns all query-time scratch state for the online intersection
// phase: the lane the sequential paths run on (k-way chain buffers, kernel
// scratch) and one lane per parallel worker. The FESIA paper's premise is
// that construction is the one-time offline step and queries are the cheap
// repeated step; an Executor makes the repeated step allocation-free — after
// warm-up, Count, Intersect (into a caller buffer), CountK, CountMany and the
// visitor methods perform zero heap allocations.
//
// The zero value is ready to use (buffers grow on demand and are retained
// across calls; parallel methods lazily attach to SharedPool). An Executor
// may be reused for any number of queries over any sets, but must not be used
// from multiple goroutines at once — give each query goroutine its own, or
// recycle them through a sync.Pool as the package-level wrappers do.
type Executor struct {
	lane                    // the sequential paths' scratch and stats shard
	ord     []*Set          // k-way bitmap-size ordering scratch
	maps    []bitmap.Bitmap // k-way bitmaps in ord's order, built per query
	sched   []int32         // candidate scheduling order (CountManyParallel)
	walk    [][4]uint32     // surviving segment pairs' bounds (DispatchTrace, CountMergeBreakdown)
	workers []worker
	pool    *Pool

	sink *stats.Sink // the sink st and the workers' shards record into

	// Per-query tracing (nil when no tracer is installed — the default).
	// tr is this executor's (shard × slot) staging cell in the serving
	// tier's tracer; the sequential pair and k-way query paths append
	// strategy and kernel records to it. See trace.go for the
	// ownership model.
	tr *trace.Cell

	// The pool hand-off state: the executor's completion group, and the
	// running parallel batch, which the workers' parts read, with its part
	// function, bound once so a parallel batch allocates nothing.
	group     doGroup
	batch     manyRun
	batchPart func(w int)

	// end is the end stamp of the last query frame that timed itself, kept
	// for the goroutine running the executor (TakeEnd); zero once taken.
	end trace.Stamp
}

// lane is the private state of one thread of query work: the executor's own
// for its sequential paths, and one per pool worker of a parallel path. The
// arm bodies and the batch loop run on a lane, so every field has a single
// writer. Buffers persist across queries, so a warm lane stops allocating
// once it has seen its largest query.
type lane struct {
	scratch  []uint32 // merge arm: kernel output the visit sink replays
	chain1   []uint32 // k-way chain buffer A
	chain2   []uint32 // k-way chain buffer B
	denseAnd []uint64 // dense×dense word-AND scratch (cross pairs)
	touch    uint32   // accumulates read-ahead touches so they are not DCE'd

	// Observability, nil when off (the default): the lane's single-writer
	// stats shard. kseq numbers its merge queries for kernel-histogram
	// sampling (kernelShard). See stats.go for the ownership model.
	st   *stats.Shard
	kseq uint64
}

// worker is one pool worker's state inside an Executor's parallel methods:
// its lane plus the share's results, which the caller gathers after Do.
type worker struct {
	lane
	count int      // the share's count
	err   error    // the share's checkpoint error (CountManyParallel)
	buf   []uint32 // materialization buffer (IntersectMergeParallel)
}

// NewExecutor returns an Executor attached to the shared worker pool. If a
// process-global stats sink is installed (EnableStats), the executor attaches
// to it.
func NewExecutor() *Executor {
	e := &Executor{pool: SharedPool()}
	e.maybeAttachStats()
	return e
}

// NewExecutorWithPool returns an Executor whose parallel methods run on the
// given pool instead of the shared one.
func NewExecutorWithPool(p *Pool) *Executor {
	e := &Executor{pool: p}
	e.maybeAttachStats()
	return e
}

// parallel runs fn(0), ..., fn(parts-1) on the executor's pool (Pool.Do) with
// the executor's own completion group.
func (e *Executor) parallel(parts int, fn func(part int)) {
	if e.pool == nil {
		e.pool = SharedPool()
	}
	e.pool.do(&e.group, parts, fn)
}

// growU32 returns a slice of length n, reusing buf's storage when it is large
// enough. The contents are unspecified.
func growU32(buf []uint32, n int) []uint32 {
	if cap(buf) < n {
		return make([]uint32, n)
	}
	return buf[:n]
}

func (e *Executor) ensureWorkers(n int) {
	for len(e.workers) < n {
		w := worker{}
		if e.sink != nil {
			w.st = e.sink.NewShard()
		}
		e.workers = append(e.workers, w)
	}
}

// ---------------------------------------------------------------------------
// Two-way queries: one pair engine. Every two-set entry point — plain, ctx,
// forced-strategy and package-level — is one call into the pair frame, which
// plans the pair once, runs the chosen arm's one body with a nil-able
// checkpoint into a (dst, emit) sink, and records the query once.
// ---------------------------------------------------------------------------

// pairArm names a pair strategy; the values are the trace arms its strategy
// span carries.
type pairArm uint8

const (
	armMerge pairArm = trace.ArmMerge // two-step merge, seg×seg
	armHash  pairArm = trace.ArmHash  // hash probe, seg×seg
	armCross pairArm = trace.ArmCross // cross-representation matrix
	armAuto  pairArm = trace.ArmNone  // merge or hash by useHash
)

// pairPlan is one pair query's resolved strategy.
type pairPlan struct {
	arm       pairArm
	fromDense bool // armCross: walk the dense side (crossPlan)
}

// planPair resolves a pair's arm: the cross matrix when a side is not
// segmented (crossPlan picks its probing side), force when it pins a seg×seg
// arm, and the seg×seg rule (useHash) otherwise.
func planPair(a, b *Set, force pairArm) pairPlan {
	switch {
	case crossPair(a, b):
		return pairPlan{armCross, crossPlan(a, b)}
	case force != armAuto:
		return pairPlan{arm: force}
	case useHash(a, b):
		return pairPlan{arm: armHash}
	}
	return pairPlan{arm: armMerge}
}

// pair is the query frame of every two-set entry point. It plans the pair
// (force pins the seg×seg arm; armAuto lets the rule choose), runs the arm
// with checkpoint ck (nil: uncancellable) into the sink — dst non-nil
// materializes, emit non-nil streams, both nil count — and records the query
// off at most two clock reads: the arm's query counter and latency, and its
// strategy span. The second read is the end stamp TakeEnd returns. A
// cancelled query records only CtrCancellations.
func (e *Executor) pair(ck checkpoint, a, b *Set, force pairArm, dst []uint32, emit Visitor) (int, error) {
	compatible(a, b)
	if err := stop(ck); err != nil {
		return 0, e.noteCancel(err)
	}
	p := planPair(a, b, force)
	timed := e.st != nil || e.tr != nil
	var start trace.Stamp
	if timed {
		start = Now()
	}
	n, err := e.runPair(ck, e.tr, p, a, b, dst, emit)
	if err != nil {
		return 0, e.noteCancel(err)
	}
	if !timed {
		return n, nil
	}
	el := e.since(start)
	if e.st != nil {
		q, lat := stats.CtrQueriesMerge, stats.LatMerge
		switch p.arm {
		case armHash:
			q, lat = stats.CtrQueriesHash, stats.LatHash
		case armCross:
			q, lat = stats.CtrQueriesCross, stats.LatCross
		}
		e.st.Inc(q)
		e.st.Observe(lat, el)
	}
	if e.tr != nil {
		e.tr.Span(trace.KindStrategy, uint8(p.arm), 0, start, el, uint64(a.n), uint64(b.n))
	}
	return n, nil
}

// run is the frame with no checkpoint — the plain entry points, which cannot
// fail.
func (e *Executor) run(a, b *Set, force pairArm, dst []uint32, emit Visitor) int {
	n, _ := e.pair(nil, a, b, force, dst, emit)
	return n
}

// runPair runs plan p's body into the sink, stopping at ck's checkpoints. It
// records the body's counters and, into tr when non-nil, its kernel trace
// event, not the query; the pair frame, the batch loop and the k-way seed
// pair share it.
//
// The merge arm is the two-step merge (Algorithm 1) in one body (merge),
// which runs each surviving segment pair's kernel as the bitmap AND yields
// it, in the larger bitmap's segment order.
func (l *lane) runPair(ck checkpoint, tr *trace.Cell, p pairPlan, a, b *Set, dst []uint32, emit Visitor) (int, error) {
	switch p.arm {
	case armCross:
		return l.crossRun(ck, a, b, p.fromDense, dst, emit)
	case armHash:
		small, large := a, b
		if small.n > large.n {
			small, large = large, small
		}
		if tr != nil {
			tr.Event(trace.KindKernel, trace.ArmHash, 0, uint64(small.n), uint64(large.n))
		}
		return l.probeRun(ck, small.elems(), large, dst, emit, l.st)
	}
	x, y := ordered(a, b)
	var kst *stats.Shard
	if l.st != nil {
		kst = l.kernelShard()
	}
	n, pairs, err := l.merge(ck, kst, walkOf(x, y), x, y, 0, x.nwords(), dst, emit)
	if err == nil && (l.st != nil || tr != nil) {
		l.noteMerge(tr, pairs, x.numSegments())
	}
	return n, err
}

// Count returns |a ∩ b| with the strategy the seg×seg rule picks from the
// lengths (FESIAmerge vs FESIAhash, Fig. 11 crossover; HashSegSeg). Zero
// heap allocations.
func (e *Executor) Count(a, b *Set) int { return e.run(a, b, armAuto, nil, nil) }

// CountMerge forces the two-step FESIAmerge strategy. Zero heap allocations.
// Cross-representation pairs route to the dispatch matrix (hybrid.go).
func (e *Executor) CountMerge(a, b *Set) int { return e.run(a, b, armMerge, nil, nil) }

// CountHash forces the per-element FESIAhash strategy. Zero heap allocations.
// Cross-representation pairs route to the dispatch matrix (hybrid.go).
func (e *Executor) CountHash(a, b *Set) int { return e.run(a, b, armHash, nil, nil) }

// Intersect writes a ∩ b into dst with the adaptive strategy and returns the
// count. dst must have room for min(a.Len(), b.Len()) elements. Results are
// in segment order, not ascending value order: segment order of the
// larger-bitmap set (merge) or of the smaller set (hash), ascending within
// each segment. Zero heap allocations.
func (e *Executor) Intersect(dst []uint32, a, b *Set) int { return e.run(a, b, armAuto, dst, nil) }

// Visit streams a ∩ b through emit with the adaptive strategy, in the order
// Intersect writes. Allocation-free once warm (the emit closure itself is the
// caller's).
func (e *Executor) Visit(a, b *Set, emit Visitor) { e.run(a, b, armAuto, nil, emit) }

// VisitMerge streams the two-step FESIAmerge intersection through emit: each
// surviving segment pair's kernel intersects into the executor's scratch and
// the matches replay element-wise, so no per-query result slice exists.
// Cross-representation pairs route to the dispatch matrix (hybrid.go).
func (e *Executor) VisitMerge(a, b *Set, emit Visitor) { e.run(a, b, armMerge, nil, emit) }

// VisitHash streams the skewed-input FESIAhash intersection through emit, in
// the smaller set's segment order. Cross-representation pairs route to the
// dispatch matrix (hybrid.go).
func (e *Executor) VisitHash(a, b *Set, emit Visitor) { e.run(a, b, armHash, nil, emit) }

// ---------------------------------------------------------------------------
// k-way intersection (Section VI) on reusable chain buffers.
//
// Every k-way entry point makes one strategy choice from the sets' lengths:
// two sets take the adaptive pair path (Count, Intersect, Visit and their
// ctx and parallel forms); three or more segmented sets of similar size run
// the Section VI bitmap chain; skewed or mixed-representation sets run the
// probe chain (kwayProbe).
// ---------------------------------------------------------------------------

// kwayProbeRatio is the size skew at which a k-way query of three or more
// sets leaves the Section VI bitmap chain for the probe chain: the probe
// chain runs when the smallest set's length times kwayProbeRatio is below
// the largest's. The chain ANDs every bitmap in lock step, so its cost
// follows the largest set; the probe chain's follows the smallest. It is
// its own rule, chosen from its own sweep, independent of the pair rule
// (useHash) that picks the probe chain's seed-pair arm. The committed k-way
// sweep (BenchmarkKWayArms, EXPERIMENTS.md) puts the skew crossover near 3
// now that the seed pair hashes on the AVX-512 rung, and no swept ratio
// ahead of 4 beyond the noise on the Zipf search queries.
const kwayProbeRatio = 4

// kwayProbe reports whether a query of three or more sets runs the probe
// chain: some set is not segmented (there is no shared bitmap to AND), or
// the sizes are skewed past kwayProbeRatio.
func kwayProbe(sets []*Set) bool {
	lo, hi := sets[0].n, sets[0].n
	for _, s := range sets {
		if s.rep != RepSegmented {
			return true
		}
		lo = min(lo, s.n)
		hi = max(hi, s.n)
	}
	return lo*kwayProbeRatio < hi
}

// kway runs a query of three or more sets on the arm kwayProbe picks, hands
// sink (when non-nil) the surviving elements, and records the query into
// the stats shard and the trace cell. With ctx non-nil both arms stop at
// their checkpoints once ctx is done; the error is then ctx.Err(), sink has
// not seen a partial result of the probe chain, and nothing is recorded.
func (e *Executor) kway(ctx checkpoint, sets []*Set, sink func(cur []uint32)) (int, error) {
	var start trace.Stamp
	if e.st != nil || e.tr != nil {
		start = Now()
	}
	probe := kwayProbe(sets)
	var total int
	var err error
	if probe {
		total, err = e.kwayProbeChain(ctx, sets, sink)
	} else {
		total, err = e.kwayChain(ctx, sets, sink)
	}
	if err != nil {
		return 0, err
	}
	e.observeKWay(start, probe, len(sets), total)
	return total, nil
}

// observeKWay records one k-way query into the stats sink and the trace
// cell off a single shared clock read, the end stamp TakeEnd returns.
func (e *Executor) observeKWay(start trace.Stamp, probe bool, nsets, total int) {
	if e.st == nil && e.tr == nil {
		return
	}
	el := e.since(start)
	arm := uint8(trace.ArmKWay)
	if probe {
		arm = trace.ArmKWayProbe
	}
	if e.st != nil {
		e.st.Inc(stats.CtrQueriesKWay)
		if probe {
			e.st.Inc(stats.CtrQueriesKWayProbe)
		}
		e.st.Observe(stats.LatKWay, el)
	}
	if e.tr != nil {
		e.tr.Span(trace.KindStrategy, arm, 0, start, el, uint64(nsets), uint64(total))
	}
}

// CountK returns |s1 ∩ s2 ∩ ... ∩ sk|: O(kn/√w + r) on the bitmap chain
// (Proposition 2); on the probe chain, the seed pair's cost plus one probe
// per survivor per remaining set. Zero heap allocations once the chain
// buffers have grown to the workload's largest segment and seed pair.
func (e *Executor) CountK(sets ...*Set) int {
	n, _ := e.countK(nil, sets)
	return n
}

// countK is the one body of CountK and CountKCtx: two sets take the pair
// frame, three or more kway, with checkpoint ck (nil: uncancellable).
func (e *Executor) countK(ck checkpoint, sets []*Set) (int, error) {
	switch len(sets) {
	case 0:
		panic("core: intersection of zero sets")
	case 2:
		return e.pair(ck, sets[0], sets[1], armAuto, nil, nil)
	}
	if err := stop(ck); err != nil {
		return 0, e.noteCancel(err)
	}
	if len(sets) == 1 {
		return int(sets[0].n), nil
	}
	n, err := e.kway(ck, sets, nil)
	return n, e.noteCancel(err)
}

// IntersectK writes the k-way intersection into dst and returns the count.
// dst must be non-nil with room for the smallest set's length. Results are
// in segment order of the largest-bitmap set on the bitmap chain, and in the
// seed pair's order (what Intersect writes for it) on the probe chain and
// for two sets. Zero heap allocations once warm.
func (e *Executor) IntersectK(dst []uint32, sets ...*Set) int {
	if dst == nil {
		panic("core: IntersectK requires a destination buffer")
	}
	switch len(sets) {
	case 0:
		panic("core: intersection of zero sets")
	case 1:
		return sets[0].materialize(dst)
	case 2:
		return e.Intersect(dst, sets[0], sets[1])
	}
	total := 0
	e.kway(nil, sets, func(cur []uint32) {
		copy(dst[total:], cur)
		total += len(cur)
	})
	return total
}

// VisitK streams the k-way intersection through emit, in the order
// IntersectK writes.
func (e *Executor) VisitK(emit Visitor, sets ...*Set) {
	switch len(sets) {
	case 0:
		panic("core: intersection of zero sets")
	case 1:
		sets[0].visitAll(emit)
		return
	case 2:
		e.Visit(sets[0], sets[1], emit)
		return
	}
	e.kway(nil, sets, func(cur []uint32) {
		for _, v := range cur {
			emit(v)
		}
	})
}

// orderByBitmap fills e.ord with sets sorted by bitmap size descending — the
// largest drives the word loop and every smaller bitmap wraps (Section III-C
// generalized to k maps) — and e.maps with the matching bitmaps.
func (e *Executor) orderByBitmap(sets []*Set) {
	for _, s := range sets[1:] {
		compatible(sets[0], s)
	}
	e.ord = append(e.ord[:0], sets...)
	ord := e.ord
	for i := 1; i < len(ord); i++ {
		for j := i; j > 0 && ord[j].logW > ord[j-1].logW; j-- {
			ord[j], ord[j-1] = ord[j-1], ord[j]
		}
	}
	e.maps = e.maps[:0]
	for _, s := range ord {
		e.maps = append(e.maps, s.asBitmap())
	}
}

// kwayChain is the Section VI bitmap chain: the k bitmaps are ANDed word by
// word and, for every surviving segment whose pairwise kernel chain stays
// non-empty, the final chained list goes to sink (when non-nil). It returns
// the survivor count. With ctx non-nil the word loop runs in ctxWordBlock
// blocks with a context check before each.
func (e *Executor) kwayChain(ctx checkpoint, sets []*Set, sink func(cur []uint32)) (int, error) {
	x, rest := e.kwayPrepare(sets)
	words := x.nwords()
	step := stride(ctx, ctxWordBlock, words)
	total := 0
	for lo := 0; lo < words; lo += step {
		if err := stop(ctx); err != nil {
			return 0, err
		}
		total += e.kwayChainRange(x, rest, lo, min(lo+step, words), e.chain1, e.chain2, sink)
	}
	return total, nil
}

// kwayPrepare orders the sets, fills e.maps, and sizes the chain buffers —
// the shared setup of the serial and parallel bitmap chains.
func (e *Executor) kwayPrepare(sets []*Set) (x *Set, rest []*Set) {
	e.orderByBitmap(sets)
	x = e.ord[0]
	rest = e.ord[1:]
	e.chain1 = growU32(e.chain1, kwayMaxSeg(e.ord))
	e.chain2 = growU32(e.chain2, kwayMaxSeg(e.ord))
	return x, rest
}

// kwayMaxSeg is the chain-buffer length a bitmap chain over sets needs.
func kwayMaxSeg(sets []*Set) int {
	m := 1
	for _, s := range sets {
		m = max(m, int(s.maxSeg))
	}
	return m
}

// kwayChainRange runs the bitmap chain over words [wordLo, wordHi) of the
// largest bitmap on the chain buffers buf1 and buf2 (each kwayMaxSeg long),
// handing each surviving list to sink when non-nil, and returns the
// survivor count. It reads e.maps but writes no executor state, so the
// parallel chain's workers share it.
func (e *Executor) kwayChainRange(x *Set, rest []*Set, wordLo, wordHi int, buf1, buf2 []uint32, sink func(cur []uint32)) int {
	total := 0
	bitmap.ForEachIntersectingSegmentKRange(e.maps, wordLo, wordHi, func(seg int) {
		cur := x.segment(seg)
		n := len(cur)
		out := buf1
		for _, s := range rest {
			sseg := s.segment(seg & (s.numSegments() - 1))
			n = simd.IntersectSmall(out, cur, sseg)
			if n == 0 {
				return
			}
			cur = out[:n]
			if &out[0] == &buf1[0] {
				out = buf2
			} else {
				out = buf1
			}
		}
		total += n
		if sink != nil {
			sink(cur)
		}
	})
	return total
}

// kwayProbeChain is the k-way arm for skewed or mixed-representation inputs
// (kwayProbe), the small-versus-small order of Lemire et al.: the seed pair
// — kwaySeed's pick (the smallest set by default) and the smallest of the
// rest — is intersected into the executor's chain buffer by the adaptive
// pair strategy, and the survivors are then compacted in place through the
// remaining sets in ascending size with each set's membership probe,
// stopping at the first empty list. sink (when non-nil) receives the final
// list once, in the seed pair's order; the survivor count is returned.
//
// With ctx non-nil, the seed pair runs on the pair bodies' checkpoints and
// each compaction pass checks ctx every ctxProbeBlock elements; on
// cancellation it returns ctx.Err().
func (e *Executor) kwayProbeChain(ctx checkpoint, sets []*Set, sink func(cur []uint32)) (int, error) {
	for _, s := range sets[1:] {
		compatible(sets[0], s)
	}
	sm := kwaySeed(sets)
	e.ord = append(e.ord[:0], sets...)
	e.ord[0], e.ord[sm] = e.ord[sm], e.ord[0]
	rest := e.ord[1:]
	for i := 1; i < len(rest); i++ {
		for j := i; j > 0 && rest[j].n < rest[j-1].n; j-- {
			rest[j], rest[j-1] = rest[j-1], rest[j]
		}
	}
	cur, err := e.seedPair(ctx, e.ord[0], rest[0])
	if err != nil {
		return 0, err
	}
	for _, s := range rest[1:] {
		if len(cur) == 0 {
			break
		}
		// In place: each kept element lands at or before the one just read.
		k, err := e.probeRun(ctx, cur, s, cur, nil, nil)
		if err != nil {
			return 0, err
		}
		cur = cur[:k]
	}
	if len(cur) > 0 && sink != nil {
		sink(cur)
	}
	return len(cur), nil
}

// seedPair intersects the probe chain's seed pair into the executor's chain
// buffer on the pair engine's plan and bodies, without recording a pair
// query.
func (e *Executor) seedPair(ctx checkpoint, a, b *Set) ([]uint32, error) {
	e.chain1 = growU32(e.chain1, int(max(min(a.n, b.n), 1)))
	n, err := e.runPair(ctx, e.tr, planPair(a, b, armAuto), a, b, e.chain1, nil)
	if err != nil {
		return nil, err
	}
	return e.chain1[:n], nil
}

// ---------------------------------------------------------------------------
// Parallel queries on the persistent worker pool (Section VI, multicore).
// ---------------------------------------------------------------------------

// CountMergeParallel is CountMerge with the larger bitmap's words partitioned
// across `workers` parts on the executor's persistent pool. No goroutines are
// spawned; pool workers are reused across calls. Cross-representation pairs
// have no bitmap to partition; they run serially on the dispatch matrix.
func (e *Executor) CountMergeParallel(a, b *Set, workers int) int {
	return e.mergeParallel(a, b, nil, workers)
}

// IntersectMergeParallel is IntersectMerge across `workers` pool parts.
// Workers materialize disjoint word ranges into their persistent buffers,
// which are concatenated in range order, so the output matches
// IntersectMerge. Cross-representation pairs run serially on the dispatch
// matrix.
func (e *Executor) IntersectMergeParallel(dst []uint32, a, b *Set, workers int) int {
	return e.mergeParallel(a, b, dst, workers)
}

// mergeParallel runs the merge body on disjoint word ranges of the larger
// bitmap, one per worker, each into its own sink: a count, or (dst non-nil)
// a buffer sized from the larger set's elements stored in its range, which
// bound the range's matches. One worker, or a cross pair, is the serial
// frame.
func (e *Executor) mergeParallel(a, b *Set, dst []uint32, workers int) int {
	compatible(a, b)
	x, y := ordered(a, b)
	words := x.nwords()
	workers = min(max(workers, 1), words)
	if crossPair(a, b) || workers <= 1 {
		return e.run(a, b, armMerge, dst, nil)
	}
	var start trace.Stamp
	if e.st != nil {
		start = Now()
	}
	walk := walkOf(x, y)
	e.ensureWorkers(workers)
	chunk := (words + workers - 1) / workers
	e.parallel(workers, func(w int) {
		ws := &e.workers[w]
		lo := min(w*chunk, words)
		hi := min(lo+chunk, words)
		var out []uint32
		if dst != nil {
			ws.buf = growU32(ws.buf, x.stored(hi)-x.stored(lo))
			out = ws.buf
		}
		var kst *stats.Shard
		if ws.st != nil {
			kst = ws.kernelShard()
		}
		var pairs int
		ws.count, pairs, _ = ws.merge(nil, kst, walk, x, y, lo, hi, out, nil)
		ws.noteMerge(nil, pairs, (hi-lo)*(64/x.segBits()))
	})
	total := 0
	for w := 0; w < workers; w++ {
		ws := &e.workers[w]
		if dst != nil {
			copy(dst[total:], ws.buf[:ws.count])
		}
		total += ws.count
	}
	if e.st != nil {
		e.observeSince(stats.CtrQueriesMerge, stats.LatMerge, start)
	}
	return total
}

// CountHashParallel applies the skewed-input strategy with the smaller set's
// elements partitioned across `workers` pool parts. Cross-representation
// pairs run serially on the dispatch matrix.
func (e *Executor) CountHashParallel(a, b *Set, workers int) int {
	compatible(a, b)
	small, large := a, b
	if small.n > large.n {
		small, large = large, small
	}
	workers = min(max(workers, 1), int(small.n))
	if crossPair(a, b) || workers <= 1 {
		return e.CountHash(a, b)
	}
	var start trace.Stamp
	if e.st != nil {
		start = Now()
	}
	e.ensureWorkers(workers)
	elems := small.elems()
	chunk := (len(elems) + workers - 1) / workers
	e.parallel(workers, func(w int) {
		ws := &e.workers[w]
		lo := min(w*chunk, len(elems))
		hi := min(lo+chunk, len(elems))
		ws.count, ws.touch = probe(elems[lo:hi], large, nil, nil, ws.st)
	})
	total := 0
	for w := 0; w < workers; w++ {
		total += e.workers[w].count
	}
	if e.st != nil {
		e.observeSince(stats.CtrQueriesHash, stats.LatHash, start)
	}
	return total
}

// CountKParallel is CountK with the bitmap chain's words partitioned across
// `workers` pool parts, each chaining the pairwise segment intersections in
// its persistent private buffers. Two sets take the parallel form of the
// adaptive pair strategy. The probe chain (skewed or mixed-representation
// sets) runs serially: each compaction pass needs the previous one's
// survivors, and its seed pair is the query's smallest work.
func (e *Executor) CountKParallel(workers int, sets ...*Set) int {
	switch len(sets) {
	case 0:
		panic("core: intersection of zero sets")
	case 1:
		return int(sets[0].n)
	case 2:
		a, b := sets[0], sets[1]
		if !crossPair(a, b) && useHash(a, b) {
			return e.CountHashParallel(a, b, workers)
		}
		return e.CountMergeParallel(a, b, workers)
	}
	if kwayProbe(sets) {
		return e.CountK(sets...)
	}
	x, rest := e.kwayPrepare(sets)
	words := x.nwords()
	workers = min(workers, words)
	if workers <= 1 {
		return e.CountK(sets...)
	}
	var start trace.Stamp
	if e.st != nil || e.tr != nil {
		start = Now()
	}
	maxSeg := kwayMaxSeg(e.ord)
	e.ensureWorkers(workers)
	chunk := (words + workers - 1) / workers
	e.parallel(workers, func(w int) {
		ws := &e.workers[w]
		lo := w * chunk
		hi := min(lo+chunk, words)
		ws.chain1 = growU32(ws.chain1, maxSeg)
		ws.chain2 = growU32(ws.chain2, maxSeg)
		ws.count = e.kwayChainRange(x, rest, lo, hi, ws.chain1, ws.chain2, nil)
	})
	total := 0
	for w := 0; w < workers; w++ {
		total += e.workers[w].count
	}
	e.observeKWay(start, false, len(sets), total)
	return total
}

// ---------------------------------------------------------------------------
// Pooled default executors backing the package-level compatibility wrappers.
// ---------------------------------------------------------------------------

var defaultExecutors = sync.Pool{New: func() any { return NewExecutor() }}

func getExecutor() *Executor {
	e := defaultExecutors.Get().(*Executor)
	e.maybeAttachStats() // pooled executors may predate EnableStats
	return e
}

func putExecutor(e *Executor) { defaultExecutors.Put(e) }
