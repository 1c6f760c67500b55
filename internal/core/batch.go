package core

import (
	"cmp"
	"time"

	"fesia/internal/simd"
	"fesia/internal/stats"
	"fesia/internal/trace"
)

// This file implements the merge arm's body and the batch one-vs-many query
// engine: intersecting one query set against a list of candidate sets, the
// access pattern of the paper's database-query task (Section VII-F, one
// keyword's posting list vs many others) and of triangle counting (one
// vertex's forward neighbors vs each neighbor's list). The engine amortizes
// per-query work across the candidate list: the query set's bitmap words and
// kernel scratch stay pinned hot instead of being re-derived per pair.
//
// The merge arm runs Algorithm 1 in one pass, in one body (merge): step 1's
// bitmap AND yields each live segment, and step 2 hands that segment pair,
// its bounds read from both sets' rank directories (span), straight to its
// kernel. The body picks the loop that yields the live segments (walkOf):
// the word loop ANDs each word; from maskWalkWords words up on the assembly
// rungs the mask walk reads the live-segment masks simd.AndSegMasksWrap
// emits per 4-word block; a pair in which a set keeps its offsets runs the
// offsets loop. All three hand the sink the pairs in the larger bitmap's
// segment order.

// maskWalkWords is the larger bitmap's word count from which the merge body
// runs the mask walk on the assembly rungs; below it, it runs the word loop.
// The committed sweep (BenchmarkMergeBodies, make mergebench, EXPERIMENTS.md
// "One merge body") times the body on each walk (mask ÷ word, medians of 3;
// 16 cells per size on the AVX2 and AVX-512 rungs: 2 ratios × 2
// selectivities × a cache-resident and a past-L3 pool). The mask walk leads
// in 0, 1 and 2 of the cells at 8, 16 and 32 words (medians 1.13, 1.17,
// 1.08), in 11 at 64 and 128 (0.98, 0.95), and in 13-14 from 256 to 1,024
// (0.92). On the scalar rung, where AndSegMasks runs in Go, the word loop
// leads at every size (medians 1.00-1.15), so it stays there.
const maskWalkWords = 16 * simd.BlockWords

// mergeWalk names the loop a merge runs over the larger bitmap's words.
type mergeWalk uint8

const (
	walkWords  mergeWalk = iota // the word loop, in merge's own frame
	walkMasks                   // the mask walk (mergeMasks)
	walkBounds                  // the offsets loop (mergeBounds)
)

// walkOf picks the loop the merge body runs for x (the larger-bitmap set)
// and y: the offsets loop when either set keeps its offsets rather than a
// rank directory, the mask walk from maskWalkWords words up on the assembly
// rungs when y fills a mask block, and the word loop otherwise.
func walkOf(x, y *Set) mergeWalk {
	switch {
	case !x.hasDirectory() || !y.hasDirectory():
		return walkBounds
	case x.nwords() >= maskWalkWords && y.nwords() >= simd.BlockWords && simd.AsmActive():
		return walkMasks
	}
	return walkWords
}

// merge is the merge arm's body over words [lo, hi) of x (the larger-bitmap
// set) against y, on the loop that walk names (a query passes walkOf(x, y)):
// each segment pair surviving the bitmap AND goes straight to the sink —
// simd.CountSmall for counts, simd.IntersectSmall into dst[n:], or into the
// lane's scratch replayed through emit — in the larger bitmap's segment
// order, its sizes recorded into kst when non-nil (a sampled query,
// kernelShard). It returns the match and segment-pair counts. An
// uncancellable pair on the word loop runs the loop here, in the body's own
// frame: a tiny merge is a few dozen nanoseconds, and calling the loop from
// here took 7-11% more at 1-16 words (AVX-512 rung, cache-resident pairs).
// Any other runs through mergeBlocks, which tests ck once per ctxWordBlock
// words. Its callers record the query (noteMerge).
func (l *lane) merge(ck checkpoint, kst *stats.Shard, walk mergeWalk, x, y *Set, lo, hi int, dst []uint32, emit Visitor) (n, pairs int, err error) {
	if emit != nil {
		l.scratch = growU32(l.scratch, int(max(min(x.maxSeg, y.maxSeg), 1)))
	}
	if ck != nil || walk != walkWords {
		return l.mergeBlocks(ck, kst, walk, x, y, lo, hi, dst, emit)
	}
	xw, xd, xr := x.region()
	yw, yd, yr := y.region()
	wrap := uint(len(yw) - 1)
	sb := uint(x.segBits())
	segClear := uint64(1)<<sb - 1
	for i, xwi := range xw[lo:hi] {
		ui := uint(lo + i)
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
	return n, pairs, nil
}

// mergeBlocks runs merge's walk over words [lo, hi) of x in ctxWordBlock
// blocks with a checkpoint before each when ck is non-nil (as one block
// otherwise): the mask walk and the offsets loop as calls, the word loop as
// an uncancellable merge of the block.
func (l *lane) mergeBlocks(ck checkpoint, kst *stats.Shard, walk mergeWalk, x, y *Set, lo, hi int, dst []uint32, emit Visitor) (n, pairs int, err error) {
	step := stride(ck, ctxWordBlock, hi-lo)
	for b := lo; b < hi; b += step {
		if err := stop(ck); err != nil {
			return 0, 0, err
		}
		e := min(b+step, hi)
		var dn, dp int
		switch walk {
		case walkMasks:
			dn, dp = l.mergeMasks(kst, x, y, b, e, tail(dst, n), emit)
		case walkBounds:
			dn, dp = l.mergeBounds(kst, x, y, b, e, tail(dst, n), emit)
		default:
			dn, dp, _ = l.merge(nil, kst, walkWords, x, y, b, e, tail(dst, n), emit)
		}
		n += dn
		pairs += dp
	}
	return n, pairs, nil
}

// noteMerge records one merge that ran pairs segment pairs over segments
// segments of the larger bitmap: the stats counters when the lane has a
// shard, and into tr when non-nil the kernel trace event.
func (l *lane) noteMerge(tr *trace.Cell, pairs, segments int) {
	if l.st != nil {
		l.st.Add(stats.CtrSegPairs, uint64(pairs))
		l.st.Add(stats.CtrSegmentsScanned, uint64(segments))
	}
	if tr != nil {
		tr.Event(trace.KindKernel, trace.ArmMerge, 0, uint64(pairs), uint64(segments))
	}
}

// mergeMasks is the mask walk over words [lo, hi) of x, both sets with a
// rank directory, x of at least maskWalkWords words and y of at least
// simd.BlockWords: simd.AndSegMasksWrap emits one live-segment mask per
// 4-word block into a stack buffer, up to coreChunkBlocks blocks at a time,
// and each set bit's segment pair runs its kernel into the sink as the walk
// reaches it. The buffer lives in this frame, not merge's, because Go zeroes
// it on every call. Edge blocks are computed whole and their out-of-range segment
// bits trimmed (x's word count is a multiple of the block, so the over-read
// stays inside it). It returns the match and segment-pair counts.
func (l *lane) mergeMasks(kst *stats.Shard, x, y *Set, lo, hi int, dst []uint32, emit Visitor) (n, pairs int) {
	xw, xd, xr := x.region()
	yw, yd, yr := y.region()
	wrap := uint(len(yw) - 1)
	segBits := x.segBits()
	spw := 64 / segBits
	sb := uint(segBits)
	segShift := uint(simd.Tzcnt32(uint32(segBits))) // log2(segBits)
	wordShift := 6 - segShift                       // log2(spw)
	var masks [coreChunkBlocks]uint32
	loDown := lo &^ (simd.BlockWords - 1)
	hiUp := (hi + simd.BlockWords - 1) &^ (simd.BlockWords - 1)
	for cb := loDown; cb < hiUp; {
		nb := min((hiUp-cb)/simd.BlockWords, coreChunkBlocks)
		if simd.AndSegMasksWrap(masks[:nb], xw, yw, cb, segBits) != 0 {
			if cb < lo {
				masks[0] &^= 1<<uint((lo-cb)*spw) - 1
			}
			if end := cb + nb*simd.BlockWords; end > hi {
				masks[nb-1] &= 1<<uint((hi-(end-simd.BlockWords))*spw) - 1
			}
			for bi, m := range masks[:nb] {
				base := (cb + bi*simd.BlockWords) * spw
				for ; m != 0; pairs++ {
					seg := base + simd.Tzcnt32(m)
					m &= m - 1
					wx, k := uint(seg>>wordShift), uint(seg<<segShift)&63
					wy := wx & wrap
					oa, oaEnd := span(xd, wx, k, k+sb, xw[wx])
					ob, obEnd := span(yd, wy, k, k+sb, yw[wy])
					xs, ys := xr[oa:oaEnd], yr[ob:obEnd]
					if kst != nil {
						kst.Kernel(len(xs), len(ys))
					}
					switch {
					case emit != nil:
						c := simd.IntersectSmall(l.scratch, xs, ys)
						for _, v := range l.scratch[:c] {
							emit(v)
						}
						n += c
					case dst != nil:
						n += simd.IntersectSmall(dst[n:], xs, ys)
					default:
						n += simd.CountSmall(xs, ys)
					}
				}
			}
		}
		cb += nb * simd.BlockWords
	}
	return n, pairs
}

// mergeBounds is the offsets loop over words [lo, hi) of x, for a pair in
// which a set keeps its offsets rather than a rank directory (reachable at
// Scale 1-2): the word loop, reading each side's bounds through bounds and
// running each pair's kernel through segPair. It returns the match and
// segment-pair counts.
func (l *lane) mergeBounds(kst *stats.Shard, x, y *Set, lo, hi int, dst []uint32, emit Visitor) (n, pairs int) {
	xw, _, xr := x.region()
	yw, _, yr := y.region()
	segBits := x.segBits()
	segMaskY := y.numSegments() - 1
	for i := lo; i < hi; i++ {
		for w := xw[i] & yw[i&(len(yw)-1)]; w != 0; pairs++ {
			k := simd.Tzcnt64(w) &^ (segBits - 1)
			w &^= (1<<segBits - 1) << k
			seg := (64*i + k) / segBits
			oa, oaEnd := x.bounds(seg)
			ob, obEnd := y.bounds(seg & segMaskY)
			n += l.segPair(kst, xr[oa:oaEnd], yr[ob:obEnd], tail(dst, n), emit)
		}
	}
	return n, pairs
}

// segPair runs one segment pair's kernel into the sink and returns its match
// count, recording the pair's sizes into kst when non-nil: the offsets
// loop's dispatch, which the two hot walks write in place.
func (l *lane) segPair(kst *stats.Shard, xs, ys, dst []uint32, emit Visitor) int {
	if kst != nil {
		kst.Kernel(len(xs), len(ys))
	}
	switch {
	case emit != nil:
		m := simd.IntersectSmall(l.scratch, xs, ys)
		for _, v := range l.scratch[:m] {
			emit(v)
		}
		return m
	case dst != nil:
		return simd.IntersectSmall(dst, xs, ys)
	}
	return simd.CountSmall(xs, ys)
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
		start = Now()
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
		e.observeSince(stats.CtrQueriesBatch, stats.LatBatch, start)
	}
	return total, nil
}

// touchHeaders loads every segmented candidate's header, its first bitmap
// word and rank directory entry, and its last element back to back, so the
// candidates' header and arena misses overlap instead of queuing one per
// candidate in the loop that follows: a small candidate's region spans at
// most two lines, its first and its last. The loads' sum is returned so they
// are not dead code.
func touchHeaders(cands []*Set) (touch uint32) {
	for _, c := range cands {
		if c.rep == RepSegmented {
			words, dir, elems := c.region()
			touch += uint32(words[0]) + dir[0]
			if len(elems) > 0 {
				touch += elems[len(elems)-1]
			}
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
				work += int(min(q.n, c.n))
			} else {
				work += int(q.n) + int(c.n)
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
