package core

import (
	"cmp"
	"time"

	"fesia/internal/simd"
	"fesia/internal/stats"
	"fesia/internal/trace"
)

// This file implements the merge arm's two bodies and the batch one-vs-many
// query engine: intersecting one query set against a list of candidate sets,
// the access pattern of the paper's database-query task (Section VII-F, one
// keyword's posting list vs many others) and of triangle counting (one
// vertex's forward neighbors vs each neighbor's list). The engine amortizes
// per-query work across the candidate list: the query set's bitmap words and
// staging scratch stay pinned hot instead of being re-derived per pair.
//
// The merge arm picks its body from the larger bitmap's size. From
// mergeDirectWords words up the two-step algorithm runs as a *staged
// two-pass dispatch* (mergeStaged) — the split the paper's Fig. 14
// breakdown instruments, used here as an optimization. Pass 1 streams the
// bitmap word-AND and stages every surviving segment pair as a compact (oa,
// oaEnd, ob, obEnd) record in a reusable lane buffer. Pass 2 walks the
// staged records and runs the small-set kernels (simd.CountSmall,
// simd.IntersectSmall), touching the reordered data of segments a fixed
// distance ahead so their cache lines are in flight by the time their kernel
// runs. Separating the phases keeps the unpredictable tzcnt/branch phase out
// of the kernel phase's pipeline, and the record walk itself is
// branch-predictable.
//
// Below mergeDirectWords the records, checkpoint blocks and read-ahead cost
// more than they hide (a triangle-counting merge stages half a segment pair
// on average). There the direct body (mergeDirect) ANDs the words and hands
// each surviving pair straight to its kernel, in the same segment order.

// stagedSeg is one surviving segment pair staged by dispatch pass 1:
// half-open offset ranges into the two sets' reordered arrays.
type stagedSeg struct {
	oa, oaEnd uint32 // x-side range in the larger-bitmap set's reordered array
	ob, obEnd uint32 // y-side range in the other set's reordered array
}

// stageReadAhead is the fixed dispatch-to-touch distance of pass 2: while
// record i's kernel runs, the first cache line of record i+stageReadAhead's
// segment data is being fetched. Segments are tiny (a handful of uint32s),
// so one touch per side covers essentially the whole segment.
const stageReadAhead = 8

// stageSegPairs runs dispatch pass 1 over the whole bitmap: the fused
// word-AND / segment-extraction loop (Section IV steps 1-3), staging one
// record per surviving segment pair with each side's bounds taken from the
// bitmap word just ANDed and its rank directory (span). x must be the
// larger-bitmap set. Records are appended to recs (reset by the caller); the
// possibly-grown slice is returned.
func stageSegPairs(x, y *Set, recs []stagedSeg) []stagedSeg {
	return stageSegPairsRange(x, y, recs, 0, len(x.bm.Words()))
}

// stageSegPairsRange is stageSegPairs restricted to words [wordLo, wordHi) of
// x's bitmap — a parallel worker's share, or one checkpoint block of a
// cancellable query (ctx.go).
func stageSegPairsRange(x, y *Set, recs []stagedSeg, wordLo, wordHi int) []stagedSeg {
	if !x.hasDirectory() || !y.hasDirectory() {
		return stageSegPairsWide(x, y, recs, wordLo, wordHi)
	}
	xw, yw := x.bm.Words(), y.bm.Words()
	xd, yd := x.dir, y.dir
	wordMask := len(yw) - 1
	spw := x.bm.SegmentsPerWord()
	segBits := x.bm.SegBits()

	segClear := uint64(1)<<uint(segBits) - 1
	segShift := uint(simd.Tzcnt32(uint32(segBits))) // log2(segBits)
	wordShift := 6 - segShift                       // log2(spw)
	alignMask := segBits - 1
	sb := uint(segBits)

	i := wordLo
	if simd.AsmActive() && len(yw) >= simd.BlockWords && wordHi-wordLo >= 2*simd.BlockWords {
		// Chunked mask-stream fast path: the fused AndSegMasks kernel emits
		// one live-segment mask per 4-word block into a stack buffer, and the
		// staging walks the mask stream. Range edges are handled by computing
		// the full edge block and trimming out-of-range segment bits (the
		// over-read stays inside the bitmap: word counts on this path are
		// powers of two >= 2*BlockWords).
		loDown := wordLo &^ (simd.BlockWords - 1)
		hiUp := (wordHi + simd.BlockWords - 1) &^ (simd.BlockWords - 1)
		var masks [coreChunkBlocks]uint32
		for cb := loDown; cb < hiUp; {
			nb := (hiUp - cb) / simd.BlockWords
			if nb > coreChunkBlocks {
				nb = coreChunkBlocks
			}
			live := simd.AndSegMasksWrap(masks[:nb], xw, yw, cb, segBits)
			if live != 0 {
				if cb < wordLo {
					masks[0] &^= 1<<uint((wordLo-cb)*spw) - 1
				}
				if end := cb + nb*simd.BlockWords; end > wordHi {
					masks[nb-1] &= 1<<uint((wordHi-(end-simd.BlockWords))*spw) - 1
				}
				for bi := 0; bi < nb; bi++ {
					m := masks[bi]
					if m == 0 {
						continue
					}
					base := (cb + bi*simd.BlockWords) * spw
					for m != 0 {
						seg := base + simd.Tzcnt32(m)
						m &= m - 1
						wx, k := uint(seg>>wordShift), uint(seg<<segShift)&63
						wy := wx & uint(wordMask)
						oa, oaEnd := span(xd, wx, k, k+sb, xw[wx])
						ob, obEnd := span(yd, wy, k, k+sb, yw[wy])
						recs = appendStaged(recs, oa, oaEnd, ob, obEnd)
					}
				}
			}
			cb += nb * simd.BlockWords
		}
		i = wordHi
	}
	for ; i < wordHi; i++ {
		xwi, ywi := xw[i], yw[i&wordMask]
		w := xwi & ywi
		if w == 0 {
			continue
		}
		ui, uy := uint(i), uint(i&wordMask)
		for w != 0 {
			k := uint(simd.Tzcnt64(w) &^ alignMask) // the segment's first bit
			w &^= segClear << k
			oa, oaEnd := span(xd, ui, k, k+sb, xwi)
			ob, obEnd := span(yd, uy, k, k+sb, ywi)
			recs = appendStaged(recs, oa, oaEnd, ob, obEnd)
		}
	}
	return recs
}

// stageSegPairsWide is stageSegPairsRange for a pair in which a set keeps
// its offsets rather than a rank directory: the plain word loop, reading
// each side's bounds through bounds.
func stageSegPairsWide(x, y *Set, recs []stagedSeg, wordLo, wordHi int) []stagedSeg {
	xw, yw := x.bm.Words(), y.bm.Words()
	segBits := x.bm.SegBits()
	segMaskY := y.bm.NumSegments() - 1
	for i := wordLo; i < wordHi; i++ {
		w := xw[i] & yw[i&(len(yw)-1)]
		for w != 0 {
			k := simd.Tzcnt64(w) &^ (segBits - 1)
			w &^= (1<<segBits - 1) << k
			seg := (64*i + k) / segBits
			oa, oaEnd := x.bounds(seg)
			ob, obEnd := y.bounds(seg & segMaskY)
			recs = appendStaged(recs, oa, oaEnd, ob, obEnd)
		}
	}
	return recs
}

// appendStaged appends one record, storing its fields in place: appending a
// stagedSeg literal builds it on the stack with 4-byte stores and copies it
// with wider loads that stall on store forwarding (pass 1 ran up to 1.3×
// slower that way on a 2-vCPU AVX-512 host).
func appendStaged(recs []stagedSeg, oa, oaEnd, ob, obEnd uint32) []stagedSeg {
	recs = append(recs, stagedSeg{})
	r := &recs[len(recs)-1]
	r.oa, r.oaEnd, r.ob, r.obEnd = oa, oaEnd, ob, obEnd
	return recs
}

// dispatchStagedCount runs dispatch pass 2 for counting: every staged record
// is counted by simd.CountSmall, with the fixed-distance read-ahead touch of
// upcoming segment data. The touched words are accumulated and returned so
// the loads cannot be dead-code-eliminated; callers fold the value into a
// sink.
func dispatchStagedCount(xr, yr []uint32, recs []stagedSeg) (n int, touch uint32) {
	for i := range recs {
		if j := i + stageReadAhead; j < len(recs) {
			rj := &recs[j]
			touch += xr[rj.oa] + yr[rj.ob]
		}
		r := &recs[i]
		n += simd.CountSmall(xr[r.oa:r.oaEnd], yr[r.ob:r.obEnd])
	}
	return n, touch
}

// dispatchStagedIntersect is pass 2 for materialization: simd.IntersectSmall
// writes into dst (which must have room for every pair's smaller side) in
// staged order — the same segment order IntersectMerge produces.
func dispatchStagedIntersect(dst, xr, yr []uint32, recs []stagedSeg) (n int, touch uint32) {
	for i := range recs {
		if j := i + stageReadAhead; j < len(recs) {
			rj := &recs[j]
			touch += xr[rj.oa] + yr[rj.ob]
		}
		r := &recs[i]
		n += simd.IntersectSmall(dst[n:], xr[r.oa:r.oaEnd], yr[r.ob:r.obEnd])
	}
	return n, touch
}

// visitStaged is pass 2 for streaming: each record intersects into scratch
// (room for the smaller side of any staged pair) and the matches replay
// through emit, in the order dispatchStagedIntersect writes. It returns the
// match count.
func visitStaged(scratch, xr, yr []uint32, recs []stagedSeg, emit Visitor) int {
	n := 0
	for _, r := range recs {
		k := simd.IntersectSmall(scratch, xr[r.oa:r.oaEnd], yr[r.ob:r.obEnd])
		for _, v := range scratch[:k] {
			emit(v)
		}
		n += k
	}
	return n
}

// mergeStaged is the merge arm's staged body, a two-pass dispatch of x (the
// larger-bitmap set) and y: pass 1 ANDs the bitmaps and stages the surviving
// segment pairs (stageSegPairsRange), pass 2 runs their kernels into the
// sink (dispatchStaged). With ck non-nil pass 1 runs in ctxWordBlock word
// blocks with a checkpoint before each. It records the segment counters
// (noteStaged) and, into tr when non-nil, the kernel trace event.
func (l *lane) mergeStaged(ck checkpoint, tr *trace.Cell, x, y *Set, dst []uint32, emit Visitor) (int, error) {
	words := len(x.bm.Words())
	step := stride(ck, ctxWordBlock, words)
	l.staged = l.staged[:0]
	for lo := 0; lo < words; lo += step {
		if err := stop(ck); err != nil {
			return 0, err
		}
		l.staged = stageSegPairsRange(x, y, l.staged, lo, min(lo+step, words))
	}
	if l.st != nil { // tested here, so a batch without stats makes no call per candidate
		noteStaged(l.st, l.kernelShard(), l.staged, x.bm.NumSegments())
	}
	if tr != nil {
		tr.Event(trace.KindKernel, trace.ArmMerge, 0, uint64(len(l.staged)), uint64(x.bm.NumSegments()))
	}
	return l.dispatchStaged(ck, x, y, dst, emit)
}

// mergeDirectWords is the larger bitmap's word count from which the merge
// arm runs the staged body: below it, when both sets have a rank directory,
// it runs the direct body (mergeDirect). The committed sweep
// (BenchmarkMergeBodies, make mergebench, EXPERIMENTS.md "Tiny pairs in one
// pass") times the two bodies (direct ÷ staged, medians of 3, 24 cells per
// size: 3 rungs × 2 residencies × 2 ratios × 2 selectivities). Through 32
// words the direct body leads in 21-24 of the cells at each size, with
// per-size medians of 0.64-0.93. At 64 words it leads in 16 (median 0.96,
// worst 1.16), and at 128-256 words the staged body's chunked AndSegMasks
// filter leads at selectivity 0.1 on the AVX2 and AVX-512 rungs (0.99-1.13).
// On the AVX-512 rung the seg×seg rule merges no pair past 16 words, so
// every merge it picks runs the direct body.
const mergeDirectWords = 16 * simd.BlockWords

// mergesDirect reports whether the merge arm runs x (the larger-bitmap set)
// and y on the direct body: x has fewer than mergeDirectWords words and both
// sets have a rank directory. A tiny set that keeps its offsets (reachable
// at Scale 1-2) takes the staged body, which reads them through bounds.
func mergesDirect(x, y *Set) bool {
	return len(x.bm.Words()) < mergeDirectWords && x.hasDirectory() && y.hasDirectory()
}

// mergeDirect is the merge arm's direct body for x (the larger-bitmap set,
// with fewer than mergeDirectWords words) and y, both with a rank directory:
// one loop ANDs each word of x with y's wrapped word and hands each
// surviving segment pair, its bounds read by span, straight to the sink —
// simd.CountSmall for counts, simd.IntersectSmall into dst[n:], or into the
// lane's scratch replayed through emit — in the order the staged body
// dispatches. It stages no record and tests ck once, before the loop. It
// records what the staged body records: the segment pairs it ran and the
// segments it scanned, on a sampled query (kernelShard) each pair's sizes,
// and into tr when non-nil the kernel trace event.
func (l *lane) mergeDirect(ck checkpoint, tr *trace.Cell, x, y *Set, dst []uint32, emit Visitor) (int, error) {
	if err := stop(ck); err != nil {
		return 0, err
	}
	var kst *stats.Shard
	if l.st != nil {
		kst = l.kernelShard()
	}
	if emit != nil {
		l.scratch = growU32(l.scratch, max(min(x.maxSeg, y.maxSeg), 1))
	}
	xw, yw := x.bm.Words(), y.bm.Words()
	xd, yd, xr, yr := x.dir, y.dir, x.reordered, y.reordered
	wrap := uint(len(yw) - 1)
	sb := uint(x.bm.SegBits())
	segClear := uint64(1)<<sb - 1
	n, pairs := 0, 0
	for i, xwi := range xw {
		ui := uint(i)
		uy := ui & wrap
		ywi := yw[uy]
		for w := xwi & ywi; w != 0; pairs++ {
			k := uint(simd.Tzcnt64(w)) &^ (sb - 1) // the segment's first bit
			w &^= segClear << k
			oa, oaEnd := span(xd, ui, k, k+sb, xwi)
			ob, obEnd := span(yd, uy, k, k+sb, ywi)
			xs, ys := xr[oa:oaEnd], yr[ob:obEnd]
			if kst != nil {
				kst.Kernel(len(xs), len(ys))
			}
			switch {
			case emit != nil:
				m := simd.IntersectSmall(l.scratch, xs, ys)
				for _, v := range l.scratch[:m] {
					emit(v)
				}
				n += m
			case dst != nil:
				n += simd.IntersectSmall(dst[n:], xs, ys)
			default:
				n += simd.CountSmall(xs, ys)
			}
		}
	}
	if l.st != nil {
		l.st.Add(stats.CtrSegPairs, uint64(pairs))
		l.st.Add(stats.CtrSegmentsScanned, uint64(x.bm.NumSegments()))
	}
	if tr != nil {
		tr.Event(trace.KindKernel, trace.ArmMerge, 0, uint64(pairs), uint64(x.bm.NumSegments()))
	}
	return n, nil
}

// dispatchStaged runs pass 2 of the merge arm over the lane's staged
// records of x and y into the sink, with one switch per block: the counting
// kernels when dst and emit are nil, the materializing kernels into dst, or
// visitStaged through emit (on the lane's scratch, sized as it requires).
// With ck non-nil the records run in ctxStageBlock blocks with a checkpoint
// before each. The read-ahead touches fold into the lane's touch.
func (l *lane) dispatchStaged(ck checkpoint, x, y *Set, dst []uint32, emit Visitor) (int, error) {
	xr, yr := x.reordered, y.reordered
	recs := l.staged
	if emit != nil {
		l.scratch = growU32(l.scratch, max(min(x.maxSeg, y.maxSeg), 1))
	}
	n := 0
	step := stride(ck, ctxStageBlock, len(recs))
	for lo := 0; lo < len(recs); lo += step {
		if err := stop(ck); err != nil {
			return 0, err
		}
		blk := recs[lo:min(lo+step, len(recs))]
		var dn int
		var dt uint32
		switch {
		case emit != nil:
			dn = visitStaged(l.scratch, xr, yr, blk, emit)
		case dst != nil:
			dn, dt = dispatchStagedIntersect(dst[n:], xr, yr, blk)
		default:
			dn, dt = dispatchStagedCount(xr, yr, blk)
		}
		n += dn
		l.touch += dt
	}
	return n, nil
}

// noteStaged records one staged pass 1 — a merge's, or a parallel worker's
// share of one — into st, when non-nil: the exact segment-pair counter, the
// bitmap segments the pass scanned and, when kst is non-nil (the sampled
// fraction of queries, see lane.kernelShard), the kernel-dispatch
// histogram replayed from the records, so the dispatch loop itself stays
// untouched.
func noteStaged(st, kst *stats.Shard, recs []stagedSeg, segments int) {
	if st == nil {
		return
	}
	if kst != nil {
		for i := range recs {
			r := &recs[i]
			kst.Kernel(int(r.oaEnd-r.oa), int(r.obEnd-r.ob))
		}
	}
	st.Add(stats.CtrSegPairs, uint64(len(recs)))
	st.Add(stats.CtrSegmentsScanned, uint64(segments))
}

// ---------------------------------------------------------------------------
// One-vs-many batch queries: one Many frame over the pair engine's bodies.
// ---------------------------------------------------------------------------

// batchParallelMinWork is CountManyParallel's serial cutover: batches whose
// estimated element work is below this run on the serial batch path. Sits
// between the measured skewed/c256 regime (~256k units, serial wins by 1.5x)
// and the uniform/c256 regime (~2M units, parallel starts paying off).
const batchParallelMinWork = 1 << 19

// manySink is a batch's output, picked once per call: out[i] receives
// candidate i's count; dst, when non-nil, every candidate's matches back to
// back; emit, when non-nil, streams them, with *cand set to the candidate's
// index first.
type manySink struct {
	out  []int
	dst  []uint32
	emit Visitor
	cand *int
}

// many is the query frame of every one-vs-many entry point. It runs the one
// candidate loop (lane.many) on the executor's lane after a touch pass over
// the candidates (touchHeaders), or, with workers > 1 and the count sink, on
// that many pool workers, each over its share of a size-ordered schedule.
// It records the batch once: the candidate and batch counters and latency
// off two clock reads; a cancelled batch records only CtrCancellations. It
// returns the total match count.
func (e *Executor) many(ck checkpoint, q *Set, cands []*Set, workers int, s manySink) (int, error) {
	if s.emit == nil && len(s.out) < len(cands) {
		panic("core: batch output shorter than candidate list")
	}
	if err := stop(ck); err != nil {
		return 0, e.noteCancel(err)
	}
	if len(cands) == 0 {
		return 0, nil
	}
	var start time.Time
	if e.st != nil {
		start = time.Now()
	}
	var total int
	var err error
	if workers <= 1 {
		e.touch += touchHeaders(cands)
		total, err = e.lane.many(ck, q, cands, nil, 0, 1, s)
	} else {
		e.batch = manyRun{ck, q, cands, e.schedule(cands), workers, s}
		if e.batchPart == nil {
			e.batchPart = func(w int) {
				ws := &e.workers[w]
				b := &e.batch
				_, ws.err = ws.many(b.ck, b.q, b.cands, b.sched, w, b.step, b.s)
			}
		}
		e.ensureWorkers(workers)
		e.parallel(workers, e.batchPart)
		e.batch = manyRun{} // drop the batch's references
		for w := range workers {
			err = cmp.Or(err, e.workers[w].err)
		}
	}
	if err != nil {
		return 0, e.noteCancel(err)
	}
	if e.st != nil {
		e.st.Add(stats.CtrBatchCandidates, uint64(len(cands)))
		observeSince(e.st, stats.CtrQueriesBatch, stats.LatBatch, start)
	}
	return total, nil
}

// touchHeaders loads every segmented candidate's first bitmap word and first
// rank directory entry back to back, so the candidates' header and arena
// misses overlap instead of queuing one per candidate in the loop that
// follows. The loads' sum is returned so they are not dead code.
func touchHeaders(cands []*Set) (touch uint32) {
	for _, c := range cands {
		if c.rep == RepSegmented {
			touch += uint32(c.bm.Words()[0]) + c.dir[0]
		}
	}
	return touch
}

// manyRun is the arguments of a parallel batch's candidate loop, which each
// worker's part reads: checkpoint ck, query q, the candidates, their
// size-ordered schedule, the stride between a worker's indices (the worker
// count) and the sink.
type manyRun struct {
	ck    checkpoint
	q     *Set
	cands []*Set
	sched []int32
	step  int
	s     manySink
}

// many is the one candidate loop of the batch engine: for k = first,
// first+step, ... below len(cands), candidate sched[k] (k itself when sched
// is nil) is planned through planPair and run through runPair into the sink
// — the bodies the pair frame runs, untraced. A non-nil checkpoint is tested
// once per candidate.
func (l *lane) many(ck checkpoint, q *Set, cands []*Set, sched []int32, first, step int, s manySink) (int, error) {
	total := 0
	for k := first; k < len(cands); k += step {
		if err := stop(ck); err != nil {
			return 0, err
		}
		i := k
		if sched != nil {
			i = int(sched[k])
		}
		c := cands[i]
		compatible(q, c)
		n := 0
		if q.n != 0 && c.n != 0 {
			if s.cand != nil {
				*s.cand = i
			}
			n, _ = l.runPair(nil, nil, planPair(q, c, armAuto), q, c, tail(s.dst, total), s.emit)
		}
		if s.out != nil {
			s.out[i] = n
		}
		total += n
	}
	return total, nil
}

// schedule fills the executor's schedule with the candidate indices sorted
// by descending set size. Dealing index k to worker k mod workers bounds any
// worker's load at (total + max)/workers.
func (e *Executor) schedule(cands []*Set) []int32 {
	if cap(e.sched) < len(cands) {
		e.sched = make([]int32, len(cands))
	}
	sched := e.sched[:len(cands)]
	for i := range sched {
		sched[i] = int32(i)
	}
	sortIdxByLenDesc(sched, cands)
	return sched
}

// CountMany fills out[i] with |q ∩ candidates[i]| for every candidate,
// exactly matching a loop of Count(q, candidates[i]) — including the
// per-candidate adaptive merge/hash switch — but amortizing query-side work
// across the batch: q's bitmap words and the staging buffer stay hot. out
// must have at least len(candidates) entries. Zero heap allocations once the
// staging buffer has grown to the workload's largest candidate.
func (e *Executor) CountMany(q *Set, candidates []*Set, out []int) {
	e.many(nil, q, candidates, 1, manySink{out: out})
}

// IntersectManyInto writes q ∩ candidates[i] for every candidate into dst,
// back to back, recording each candidate's count in counts[i] and returning
// the total number of elements written. Per-candidate results match
// Intersect(dst, q, candidates[i]) exactly (same strategy choice, same
// segment order). dst must have room for the sum over candidates of
// min(q.Len(), candidate.Len()); counts must have at least len(candidates)
// entries. Zero heap allocations once warm.
func (e *Executor) IntersectManyInto(dst []uint32, counts []int, q *Set, candidates []*Set) int {
	n, _ := e.many(nil, q, candidates, 1, manySink{out: counts, dst: dst})
	return n
}

// VisitMany streams every q ∩ candidates[i] through emit as (candidate
// index, element) pairs, in the same per-candidate order IntersectManyInto
// writes, without materializing any result. The only steady-state
// allocation is the adapter closure, and the candidate index it reads, per
// call.
func (e *Executor) VisitMany(q *Set, candidates []*Set, emit func(candidate int, v uint32)) {
	cand := 0
	e.many(nil, q, candidates, 1, manySink{emit: func(v uint32) { emit(cand, v) }, cand: &cand})
}

// CountManyParallel is CountMany with the *candidate list* partitioned across
// `workers` parts of the executor's persistent pool — finer-grained and
// better balanced than per-pair bitmap-word splitting when candidates are
// small. Candidates are scheduled in descending size order and dealt to
// workers round-robin, so no worker ends up with all the heavy candidates.
// Each worker stages and dispatches in its own persistent buffer; out[i] is
// written by exactly one worker.
func (e *Executor) CountManyParallel(q *Set, candidates []*Set, out []int, workers int) {
	e.countManyParallel(nil, q, candidates, out, workers)
}

// countManyParallel is the one body of CountManyParallel and
// CountManyParallelCtx: the Many frame on min(workers, len(candidates))
// workers, or on the executor's lane when the batch's work cannot amortize
// the pool hand-off — at small scale the fork/join and per-worker cache
// re-warming cost more than they save (BENCH_batch.json's skewed/c256
// regime). The work proxy charges each candidate its strategy's dominant
// term: probes for the hash side, both segment streams otherwise.
func (e *Executor) countManyParallel(ck checkpoint, q *Set, candidates []*Set, out []int, workers int) error {
	workers = min(max(workers, 1), len(candidates))
	if workers > 1 {
		work := 0
		for _, c := range candidates {
			if !crossPair(q, c) && useHash(q, c) {
				work += min(q.n, c.n)
			} else {
				work += q.n + c.n
			}
		}
		if work < batchParallelMinWork {
			workers = 1
		}
	}
	_, err := e.many(ck, q, candidates, workers, manySink{out: out})
	return err
}

// ---------------------------------------------------------------------------
// Pooled compatibility wrappers; hot loops should hold their own Executor.
// ---------------------------------------------------------------------------

// CountMany fills out[i] with |q ∩ candidates[i]| on a pooled default
// Executor.
func CountMany(q *Set, candidates []*Set, out []int) {
	e := getExecutor()
	defer putExecutor(e)
	e.CountMany(q, candidates, out)
}

// IntersectManyInto writes every q ∩ candidates[i] into dst back to back on
// a pooled default Executor; see Executor.IntersectManyInto.
func IntersectManyInto(dst []uint32, counts []int, q *Set, candidates []*Set) int {
	e := getExecutor()
	defer putExecutor(e)
	return e.IntersectManyInto(dst, counts, q, candidates)
}

// CountManyParallel is CountMany partitioned across `workers` parts of the
// shared pool on a pooled default Executor.
func CountManyParallel(q *Set, candidates []*Set, out []int, workers int) {
	e := getExecutor()
	defer putExecutor(e)
	e.CountManyParallel(q, candidates, out, workers)
}

// sortIdxByLenDesc heap-sorts idx in place so that sets[idx[0]] is the
// largest set — no allocation, unlike sort.Slice.
func sortIdxByLenDesc(idx []int32, sets []*Set) {
	// Build a min-heap on set length, then pop minima into the tail: the
	// smallest sets fill the slice back-to-front, leaving descending order.
	less := func(a, b int32) bool { return sets[a].n < sets[b].n }
	n := len(idx)
	for i := n/2 - 1; i >= 0; i-- {
		siftDown(idx, i, n, less)
	}
	for end := n - 1; end > 0; end-- {
		idx[0], idx[end] = idx[end], idx[0]
		siftDown(idx, 0, end, less)
	}
}

func siftDown(idx []int32, root, end int, less func(a, b int32) bool) {
	for {
		child := 2*root + 1
		if child >= end {
			return
		}
		if child+1 < end && less(idx[child+1], idx[child]) {
			child++
		}
		if !less(idx[child], idx[root]) {
			return
		}
		idx[root], idx[child] = idx[child], idx[root]
		root = child
	}
}
