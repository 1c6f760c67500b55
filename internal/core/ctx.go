package core

import (
	"context"
	"time"

	"fesia/internal/planner"
	"fesia/internal/stats"
	"fesia/internal/trace"
)

// Context-aware query paths. A serving system needs runaway queries to be
// deadline-bounded and cancellable; these variants thread a context.Context
// through the expensive loops with cooperative checkpoints at coarse
// granularity — per bitmap-word block in dispatch pass 1, per staged-segment
// block in pass 2, per probed-element block in the hash strategy, and per
// candidate in the one-vs-many paths. The blocks are large enough that the
// checkpoint branch is invisible next to the work between checks, yet small
// enough that cancellation and deadlines are honored within microseconds of
// firing. The uncancelled hot paths (Count, Intersect, CountMany, ...) are
// untouched: they share none of these loops, stay branch-predictable, and
// keep their zero-allocation guarantee (enforced by make benchcheck).
//
// On cancellation every method returns ctx.Err() (possibly wrapped by the
// caller's context machinery); counts are 0 and any destination buffers hold
// unspecified partial data. No scratch state is corrupted — the executor
// remains valid for further queries.
const (
	// ctxWordBlock is the pass-1 checkpoint unit: bitmap words ANDed (and
	// their surviving pairs staged) between context checks. At a few cycles
	// per word plus staging, 1024 words sit well under 10µs.
	ctxWordBlock = 1024
	// ctxStageBlock is the pass-2 checkpoint unit: staged segment records
	// dispatched to kernels between checks. Segment kernels touch a handful
	// of elements each, so 256 records is microseconds of work.
	ctxStageBlock = 256
	// ctxProbeBlock is the hash-strategy checkpoint unit: elements probed
	// between checks.
	ctxProbeBlock = 2048
)

// checkpoint is the cancellation test of the loops the ctx entry points
// share with the plain ones: a context.Context satisfies it, and a nil
// checkpoint marks an uncancellable call, which skips the tests and runs the
// plain strategy forms.
type checkpoint interface{ Err() error }

// noteCancel records one cancelled query (when stats are enabled) and passes
// the error through. Called once per top-level ctx method, so a cancelled
// query counts once no matter how many checkpoints observed it.
func (e *Executor) noteCancel(err error) error {
	if err != nil && e.st != nil {
		e.st.Inc(stats.CtrCancellations)
	}
	return err
}

// CountCtx is Count with cooperative cancellation: it returns |a ∩ b| with
// the adaptively chosen strategy, or ctx.Err() as soon as a checkpoint
// observes the context done.
func (e *Executor) CountCtx(ctx context.Context, a, b *Set) (int, error) {
	compatible(a, b)
	if crossPair(a, b) {
		if e.tr == nil {
			return e.crossCountCtx(ctx, a, b)
		}
		start := time.Now()
		n, err := e.crossCountCtx(ctx, a, b)
		if err == nil {
			e.tr.Span(trace.KindStrategy, trace.ArmCross, 0,
				start, time.Since(start), uint64(a.n), uint64(b.n))
		}
		return n, err
	}
	if err := ctx.Err(); err != nil {
		return 0, e.noteCancel(err)
	}
	ch, hash := planSegSeg(e.plan, e.st, a, b)
	tracePlanSegSeg(e.tr, e.plan, ch, a, b)
	var start time.Time
	if e.st != nil || e.tr != nil || ch.Measure() {
		start = time.Now()
	}
	var n int
	var err error
	if hash {
		n, err = e.countHashCtx(ctx, a, b)
	} else {
		n, err = e.countMergeCtx(ctx, a, b)
	}
	if err != nil {
		// A cancelled pass did partial work; its latency would skew the model.
		return 0, e.noteCancel(err)
	}
	// One clock read serves the stats observation, the trace span and the
	// planner feedback alike — the tracing seam must not add reads of its own.
	var el time.Duration
	if e.st != nil || e.tr != nil || ch.Measure() {
		el = time.Since(start)
	}
	if e.st != nil {
		if hash {
			e.st.Inc(stats.CtrQueriesHash)
			e.st.Observe(stats.LatHash, el)
		} else {
			e.st.Inc(stats.CtrQueriesMerge)
			e.st.Observe(stats.LatMerge, el)
		}
	}
	if e.tr != nil {
		arm := uint8(trace.ArmMerge)
		if hash {
			arm = trace.ArmHash
		}
		e.tr.Span(trace.KindStrategy, arm, 0, start, el, uint64(a.n), uint64(b.n))
	}
	if ch.Measure() {
		e.plan.Record(ch, el)
	}
	return n, nil
}

// countMergeCtx runs the two-step merge strategy as a staged two-pass
// dispatch (the batch engine's split), checking the context between word
// blocks in pass 1 and between record blocks in pass 2.
func (e *Executor) countMergeCtx(ctx context.Context, a, b *Set) (int, error) {
	x, y := ordered(a, b)
	words := len(x.bm.Words())
	recs := e.staged[:0]
	for lo := 0; lo < words; lo += ctxWordBlock {
		if err := ctx.Err(); err != nil {
			e.staged = recs
			return 0, err
		}
		recs = stageSegPairsRange(x, y, recs, lo, min(lo+ctxWordBlock, words))
	}
	e.staged = recs
	if e.st != nil {
		if kst := e.kernelShard(); kst != nil {
			recordStagedKernels(kst, recs)
		}
		e.st.Add(stats.CtrSegPairs, uint64(len(recs)))
		e.st.Add(stats.CtrSegmentsScanned, uint64(x.bm.NumSegments()))
	}
	if e.tr != nil {
		e.tr.Event(trace.KindKernel, trace.ArmMerge, 0,
			uint64(len(recs)), uint64(x.bm.NumSegments()))
	}
	n := 0
	var touch uint32
	for lo := 0; lo < len(recs); lo += ctxStageBlock {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		dn, dt := dispatchStagedCount(&x.build.disp, x.reordered, y.reordered,
			recs[lo:min(lo+ctxStageBlock, len(recs))])
		n += dn
		touch += dt
	}
	e.touchSink += touch
	return n, nil
}

// countHashCtx runs the skewed-input hash strategy in probe blocks, checking
// the context between blocks.
func (e *Executor) countHashCtx(ctx context.Context, a, b *Set) (int, error) {
	small, large := a, b
	if small.n > large.n {
		small, large = large, small
	}
	if e.tr != nil {
		e.tr.Event(trace.KindKernel, trace.ArmHash, 0,
			uint64(small.n), uint64(large.n))
	}
	n := 0
	for lo := 0; lo < small.n; lo += ctxProbeBlock {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		n += hashProbeRange(small, large, lo, min(lo+ctxProbeBlock, small.n), nil, e.st)
	}
	return n, nil
}

// IntersectIntoCtx is Intersect-into-dst with cooperative cancellation. dst
// must have room for min(a.Len(), b.Len()) elements; results land in the same
// segment order Intersect produces. On cancellation it returns (0, ctx.Err())
// and dst holds unspecified partial data.
func (e *Executor) IntersectIntoCtx(ctx context.Context, dst []uint32, a, b *Set) (int, error) {
	compatible(a, b)
	if crossPair(a, b) {
		return e.crossIntersectCtx(ctx, dst, a, b)
	}
	if err := ctx.Err(); err != nil {
		return 0, e.noteCancel(err)
	}
	ch, hash := planSegSeg(e.plan, e.st, a, b)
	var start time.Time
	if e.st != nil || ch.Measure() {
		start = time.Now()
	}
	var n int
	var err error
	if hash {
		n, err = e.intersectHashCtx(ctx, dst, a, b)
	} else {
		n, err = e.intersectMergeCtx(ctx, dst, a, b)
	}
	if err != nil {
		return 0, e.noteCancel(err)
	}
	if e.st != nil {
		if hash {
			observeSince(e.st, stats.CtrQueriesHash, stats.LatHash, start)
		} else {
			observeSince(e.st, stats.CtrQueriesMerge, stats.LatMerge, start)
		}
	}
	planRecord(e.plan, ch, start)
	return n, nil
}

func (e *Executor) intersectHashCtx(ctx checkpoint, dst []uint32, a, b *Set) (int, error) {
	small, large := a, b
	if small.n > large.n {
		small, large = large, small
	}
	n := 0
	for lo := 0; lo < small.n; lo += ctxProbeBlock {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		n += hashProbeElems(small.reordered[lo:min(lo+ctxProbeBlock, small.n)], large, dst[n:], nil, e.st)
	}
	return n, nil
}

func (e *Executor) intersectMergeCtx(ctx checkpoint, dst []uint32, a, b *Set) (int, error) {
	x, y := ordered(a, b)
	words := len(x.bm.Words())
	recs := e.staged[:0]
	for lo := 0; lo < words; lo += ctxWordBlock {
		if err := ctx.Err(); err != nil {
			e.staged = recs
			return 0, err
		}
		recs = stageSegPairsRange(x, y, recs, lo, min(lo+ctxWordBlock, words))
	}
	e.staged = recs
	if e.st != nil {
		if kst := e.kernelShard(); kst != nil {
			recordStagedKernels(kst, recs)
		}
		e.st.Add(stats.CtrSegPairs, uint64(len(recs)))
		e.st.Add(stats.CtrSegmentsScanned, uint64(x.bm.NumSegments()))
	}
	n := 0
	var touch uint32
	for lo := 0; lo < len(recs); lo += ctxStageBlock {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		dn, dt := dispatchStagedIntersect(&x.build.disp, dst[n:], x.reordered, y.reordered,
			recs[lo:min(lo+ctxStageBlock, len(recs))])
		n += dn
		touch += dt
	}
	e.touchSink += touch
	return n, nil
}

// CountKCtx is CountK with cooperative cancellation, on the arm CountK
// picks: the bitmap chain checks the context between word blocks, the probe
// chain inside its seed pair's strategy and every ctxProbeBlock elements of
// each compaction pass.
func (e *Executor) CountKCtx(ctx context.Context, sets ...*Set) (int, error) {
	switch len(sets) {
	case 0:
		panic("core: intersection of zero sets")
	case 1:
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		return sets[0].n, nil
	case 2:
		return e.CountCtx(ctx, sets[0], sets[1])
	}
	if err := ctx.Err(); err != nil {
		return 0, e.noteCancel(err)
	}
	n, err := e.kway(ctx, sets, nil)
	if err != nil {
		return 0, e.noteCancel(err)
	}
	return n, nil
}

// CountManyCtx is CountMany with cooperative cancellation, checked once per
// candidate: out[i] is |q ∩ candidates[i]| for every candidate processed
// before the context fired. On cancellation it returns ctx.Err() and the tail
// of out is unspecified.
func (e *Executor) CountManyCtx(ctx context.Context, q *Set, candidates []*Set, out []int) error {
	if len(out) < len(candidates) {
		panic("core: CountManyCtx output shorter than candidate list")
	}
	if err := ctx.Err(); err != nil {
		return e.noteCancel(err)
	}
	if len(candidates) == 0 {
		return nil
	}
	var start time.Time
	if e.st != nil {
		start = time.Now()
	}
	e.ensureProbe()
	recs := e.staged
	var touch uint32
	var err error
	done := 0
	for i, c := range candidates {
		if err = ctx.Err(); err != nil {
			break
		}
		out[i], recs, touch = countOneBatch(e.plan, &e.qcache, &e.denseAnd, e.probeStage, q, c, recs, touch, e.st, e.kernelShard())
		done++
	}
	e.staged = recs
	e.touchSink += touch
	if err != nil {
		return e.noteCancel(err)
	}
	if e.st != nil {
		e.st.Add(stats.CtrBatchCandidates, uint64(done))
		observeSince(e.st, stats.CtrQueriesBatch, stats.LatBatch, start)
	}
	return nil
}

// countOneBatch is the adaptive one-candidate step of the batch engine — the
// shared body of the context-aware Many paths. It returns the count, the
// (possibly grown) staging record buffer, and the accumulated read-ahead
// touch value.
func countOneBatch(h *planner.Handle, qc *probeCache, denseAnd *[]uint64, stage []probeRec, q, c *Set, recs []stagedSeg, touch uint32, st, kst *stats.Shard) (int, []stagedSeg, uint32) {
	compatible(q, c)
	if c.n == 0 || q.n == 0 {
		return 0, recs, touch
	}
	if crossPair(q, c) {
		return crossRun(h, denseAnd, q, c, nil, nil, st), recs, touch
	}
	ch, hash := planSegSeg(h, st, q, c)
	pstart := planStart(ch)
	var n int
	if hash {
		small, large := q, c
		if small.n > large.n {
			small, large = large, small
		}
		var t uint32
		n, t = hashProbeBatch(qc, q, small, large, stage, nil, nil, st)
		touch += t
	} else {
		var t uint32
		n, recs, t = countMergeStaged(q, c, recs, st, kst)
		touch += t
	}
	planRecord(h, ch, pstart)
	return n, recs, touch
}

// CountManyParallelCtx is CountManyParallel with cooperative cancellation:
// every worker checks the context once per candidate and abandons its
// remaining share when it fires, so a cancelled batch over thousands of
// candidates unwinds within one candidate's worth of work per worker. On
// cancellation it returns ctx.Err() and out holds unspecified partial data.
func (e *Executor) CountManyParallelCtx(ctx context.Context, q *Set, candidates []*Set, out []int, workers int) error {
	if len(out) < len(candidates) {
		panic("core: CountManyParallelCtx output shorter than candidate list")
	}
	if workers < 1 {
		workers = 1
	}
	if workers > len(candidates) {
		workers = len(candidates)
	}
	if workers <= 1 {
		return e.CountManyCtx(ctx, q, candidates, out)
	}
	if err := ctx.Err(); err != nil {
		return e.noteCancel(err)
	}
	var start time.Time
	if e.st != nil {
		start = time.Now()
	}
	if cap(e.sched) < len(candidates) {
		e.sched = make([]int32, len(candidates))
	}
	sched := e.sched[:len(candidates)]
	for i := range sched {
		sched[i] = int32(i)
	}
	sortIdxByLenDesc(sched, candidates)
	e.ensureWorkers(workers)
	e.getPool().Do(workers, func(w int) {
		ws := &e.workers[w]
		if cap(ws.probeStage) < probeBlock {
			ws.probeStage = make([]probeRec, probeBlock)
		}
		ws.qcache.bits = 0
		recs := ws.staged
		var touch uint32
		seq := 0 // per-worker candidate index for kernel sampling
		for k := w; k < len(sched); k += workers {
			if ctx.Err() != nil {
				break
			}
			i := sched[k]
			out[i], recs, touch = countOneBatch(ws.plan, &ws.qcache, &ws.denseAnd, ws.probeStage, q, candidates[i], recs, touch, ws.st, sampleShard(ws.st, seq))
			seq++
		}
		ws.staged = recs
		ws.touch = touch
	})
	if err := ctx.Err(); err != nil {
		return e.noteCancel(err)
	}
	if e.st != nil {
		e.st.Add(stats.CtrBatchCandidates, uint64(len(candidates)))
		observeSince(e.st, stats.CtrQueriesBatch, stats.LatBatch, start)
	}
	return nil
}
