package core

import (
	"time"

	"fesia/internal/kernels"
	"fesia/internal/simd"
	"fesia/internal/stats"
)

// This file implements the batch one-vs-many query engine: intersecting one
// query set against a list of candidate sets, the access pattern of the
// paper's database-query task (Section VII-F, one keyword's posting list vs
// many others) and of triangle counting (one vertex's forward neighbors vs
// each neighbor's list). The engine amortizes per-query work across the
// candidate list: the query set's bitmap words, dispatcher and staging
// scratch stay pinned hot instead of being re-derived per pair, and the
// two-step algorithm runs as a *staged two-pass dispatch* — the split the
// paper's Fig. 14 breakdown instruments, used here as an optimization.
//
// Pass 1 streams the bitmap word-AND and stages every surviving segment pair
// as a compact (oa, oaEnd, ob, obEnd, ctrl) record in a reusable executor
// buffer. Pass 2 walks the staged records and dispatches the specialized
// kernels, touching the reordered data of segments a fixed distance ahead so
// their cache lines are in flight by the time their kernel runs. Separating
// the phases keeps the unpredictable tzcnt/branch phase out of the kernel
// phase's pipeline, and the record walk itself is branch-predictable.

// stagedSeg is one surviving segment pair staged by dispatch pass 1:
// half-open offset ranges into the two sets' reordered arrays plus the
// precomputed jump-table control code (stagedGeneric when either side
// exceeds the table capacity and must take the generic kernel).
type stagedSeg struct {
	oa, oaEnd uint32 // x-side range in the larger-bitmap set's reordered array
	ob, obEnd uint32 // y-side range in the other set's reordered array
	ctrl      int32
}

// stagedGeneric marks a staged pair that falls through to the generic kernel.
const stagedGeneric = int32(-1)

// stageReadAhead is the fixed dispatch-to-touch distance of pass 2: while
// record i's kernel runs, the first cache line of record i+stageReadAhead's
// segment data is being fetched. Segments are tiny (a handful of uint32s),
// so one touch per side covers essentially the whole segment.
const stageReadAhead = 8

// stageSegPairs runs dispatch pass 1 over the whole bitmap: the fused
// word-AND / segment-extraction loop (Section IV steps 1-3), staging one
// record per surviving segment pair. x must be the larger-bitmap set. Records
// are appended to recs (reset by the caller); the possibly-grown slice is
// returned.
func stageSegPairs(x, y *Set, recs []stagedSeg) []stagedSeg {
	return stageSegPairsRange(x, y, recs, 0, len(x.bm.Words()))
}

// stageSegPairsRange is stageSegPairs restricted to words [wordLo, wordHi) of
// x's bitmap — a parallel worker's share, or one checkpoint block of a
// cancellable query (ctx.go).
func stageSegPairsRange(x, y *Set, recs []stagedSeg, wordLo, wordHi int) []stagedSeg {
	d := &x.build.disp
	xw, yw := x.bm.Words(), y.bm.Words()
	wordMask := len(yw) - 1
	spw := x.bm.SegmentsPerWord()
	segBits := x.bm.SegBits()
	segMaskY := y.bm.NumSegments() - 1
	xo, yo := x.offsets, y.offsets

	segClear := uint64(1)<<uint(segBits) - 1
	segShift := uint(simd.Tzcnt32(uint32(segBits))) // log2(segBits)
	alignMask := segBits - 1

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
						segY := seg & segMaskY
						oa, oaEnd := xo[seg], xo[seg+1]
						ob, obEnd := yo[segY], yo[segY+1]
						la := int(oaEnd - oa)
						lb := int(obEnd - ob)
						ctrl := stagedGeneric
						if la <= d.Cap && lb <= d.Cap {
							ctrl = int32(int(d.Round[la])<<d.Bits | int(d.Round[lb]))
						}
						recs = appendStaged(recs, oa, oaEnd, ob, obEnd, ctrl)
					}
				}
			}
			cb += nb * simd.BlockWords
		}
		i = wordHi
	}
	for ; i < wordHi; i++ {
		w := xw[i] & yw[i&wordMask]
		if w == 0 {
			continue
		}
		base := i * spw
		for w != 0 {
			bit := simd.Tzcnt64(w)
			segOff := bit &^ alignMask
			w &^= segClear << uint(segOff)
			seg := base + segOff>>segShift
			segY := seg & segMaskY
			oa, oaEnd := xo[seg], xo[seg+1]
			ob, obEnd := yo[segY], yo[segY+1]
			la := int(oaEnd - oa)
			lb := int(obEnd - ob)
			ctrl := stagedGeneric
			if la <= d.Cap && lb <= d.Cap {
				ctrl = int32(int(d.Round[la])<<d.Bits | int(d.Round[lb]))
			}
			recs = appendStaged(recs, oa, oaEnd, ob, obEnd, ctrl)
		}
	}
	return recs
}

// appendStaged appends one record, storing its fields in place: appending a
// stagedSeg literal builds it on the stack with 4-byte stores and copies it
// with wider loads that stall on store forwarding (pass 1 ran up to 1.3×
// slower that way on a 2-vCPU AVX-512 host).
func appendStaged(recs []stagedSeg, oa, oaEnd, ob, obEnd uint32, ctrl int32) []stagedSeg {
	recs = append(recs, stagedSeg{})
	r := &recs[len(recs)-1]
	r.oa, r.oaEnd, r.ob, r.obEnd, r.ctrl = oa, oaEnd, ob, obEnd, ctrl
	return recs
}

// dispatchStagedCount runs dispatch pass 2 for counting: every staged record
// is dispatched to its counting kernel, with the fixed-distance read-ahead
// touch of upcoming segment data. The touched words are accumulated and
// returned so the loads cannot be dead-code-eliminated; callers fold the
// value into a sink.
func dispatchStagedCount(d *kernels.Dispatcher, xr, yr []uint32, recs []stagedSeg) (n int, touch uint32) {
	cnt := d.Count
	for i := range recs {
		if j := i + stageReadAhead; j < len(recs) {
			rj := &recs[j]
			touch += xr[rj.oa] + yr[rj.ob]
		}
		r := &recs[i]
		a := xr[r.oa:r.oaEnd]
		b := yr[r.ob:r.obEnd]
		if r.ctrl == stagedGeneric {
			n += kernels.GenericCount(a, b)
			continue
		}
		n += cnt[r.ctrl](a, b)
	}
	return n, touch
}

// dispatchStagedIntersect is pass 2 for materialization: kernels write into
// dst (which must have room for every pair's smaller side) in staged order —
// the same segment order IntersectMerge produces.
func dispatchStagedIntersect(d *kernels.Dispatcher, dst, xr, yr []uint32, recs []stagedSeg) (n int, touch uint32) {
	inter := d.Inter
	for i := range recs {
		if j := i + stageReadAhead; j < len(recs) {
			rj := &recs[j]
			touch += xr[rj.oa] + yr[rj.ob]
		}
		r := &recs[i]
		a := xr[r.oa:r.oaEnd]
		b := yr[r.ob:r.obEnd]
		if r.ctrl == stagedGeneric {
			n += kernels.GenericIntersect(dst[n:], a, b)
			continue
		}
		n += inter[r.ctrl](dst[n:], a, b)
	}
	return n, touch
}

// visitStaged is pass 2 for streaming: each record's kernel intersects into
// scratch (room for the smaller side of any staged pair) and the matches
// replay through emit, in the order dispatchStagedIntersect writes. It
// returns the match count.
func visitStaged(d *kernels.Dispatcher, scratch, xr, yr []uint32, recs []stagedSeg, emit Visitor) int {
	n := 0
	for _, r := range recs {
		a, b := xr[r.oa:r.oaEnd], yr[r.ob:r.obEnd]
		var k int
		if r.ctrl == stagedGeneric {
			k = kernels.GenericIntersect(scratch, a, b)
		} else {
			k = d.Inter[r.ctrl](scratch, a, b)
		}
		for _, v := range scratch[:k] {
			emit(v)
		}
		n += k
	}
	return n
}

// dispatchStaged runs pass 2 of the merge arm over x and y's staged records
// into the sink, with one switch per block: the counting kernels when dst
// and emit are nil, the materializing kernels into dst, or visitStaged
// through emit (scratch sized as it requires). With ck non-nil the records
// run in ctxStageBlock blocks with a checkpoint before each.
func dispatchStaged(ck checkpoint, x, y *Set, recs []stagedSeg, scratch, dst []uint32, emit Visitor) (n int, touch uint32, err error) {
	d := &x.build.disp
	xr, yr := x.reordered, y.reordered
	step := stride(ck, ctxStageBlock, len(recs))
	for lo := 0; lo < len(recs); lo += step {
		if err := stop(ck); err != nil {
			return 0, touch, err
		}
		blk := recs[lo:min(lo+step, len(recs))]
		var dn int
		var dt uint32
		switch {
		case emit != nil:
			dn = visitStaged(d, scratch, xr, yr, blk, emit)
		case dst != nil:
			dn, dt = dispatchStagedIntersect(d, dst[n:], xr, yr, blk)
		default:
			dn, dt = dispatchStagedCount(d, xr, yr, blk)
		}
		n += dn
		touch += dt
	}
	return n, touch, nil
}

// countMergeStaged is the staged-dispatch CountMerge of the batch paths:
// stage into recs, dispatch, return the count and the (possibly grown) record
// buffer.
func countMergeStaged(a, b *Set, recs []stagedSeg, st, kst *stats.Shard) (int, []stagedSeg, uint32) {
	x, y := ordered(a, b)
	recs = stageSegPairs(x, y, recs[:0])
	if st != nil { // inline, so a batch without stats makes no call per candidate
		noteStaged(st, kst, recs, x.bm.NumSegments())
	}
	n, touch := dispatchStagedCount(&x.build.disp, x.reordered, y.reordered, recs)
	return n, recs, touch
}

// noteStaged records one staged pass 1 — a merge's, or a parallel worker's
// share of one — into st, when non-nil: the exact segment-pair counter, the
// bitmap segments the pass scanned and, when kst is non-nil (the sampled
// fraction of queries, see Executor.kernelSampled), the kernel-dispatch
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
// Staged hash probe: the batch engine's version of the skewed-input strategy.
// ---------------------------------------------------------------------------

// probeBlock is the staging block of the batch hash probe. One block's
// positions fit comfortably in L1 while giving the out-of-order core dozens
// of independent loads to overlap.
const probeBlock = 128

// containsCutover is the segment length above which survivor scans use the
// assembly compare-all-lanes probe instead of the scalar early-exit scan —
// two full ymm registers of elements, enough to amortize the masked tail.
const containsCutover = 16

// batchParallelMinWork is CountManyParallel's serial cutover: batches whose
// estimated element work is below this run on the serial batch path. Sits
// between the measured skewed/c256 regime (~256k units, serial wins by 1.5x)
// and the uniform/c256 regime (~2M units, parallel starts paying off).
const batchParallelMinWork = 1 << 19

// probeRec is one surviving probe staged by phase 2: the probed element and
// its target segment's half-open range in the large set's reordered array.
type probeRec struct{ x, oa, oaEnd uint32 }

// hashProbeStaged probes every element of small against large in fixed-size
// blocks of two phases — the staged-dispatch idea applied to the hash
// strategy. The staging phase is completely branch-free: every element's
// bitmap word, segment bounds and first segment word are loaded
// unconditionally, and survivors are compacted into the stage buffer with a
// conditional index increment instead of a branch. With no unpredictable
// branches in the way, the out-of-order core streams the (cache-missing)
// loads of many probes at once instead of serializing them behind
// mispredicts — the same memory-level-parallelism trick as the merge path's
// two-pass dispatch. The scan phase then walks the staged segment lists,
// whose cache lines the staging phase already set in flight. Matches are
// counted, and either appended to dst (when non-nil) or streamed through
// emit (when non-nil), in the same order hashProbeElems produces.
//
// stage must hold probeBlock entries. The accumulated touch value is
// returned so the read-ahead loads cannot be dead-code-eliminated. st, when
// non-nil, receives the probe/survivor counters at block granularity (the
// block compaction rate of the staged probe).
func hashProbeStaged(small, large *Set, stage []probeRec, dst []uint32, emit Visitor, st *stats.Shard) (int, uint32) {
	if simd.GatherProbeActive() && small.n >= 16 && large.bm.Bits() <= gatherProbeMaxBits {
		return hashProbeStagedGather(small, large, stage, dst, emit, st)
	}
	lb := &large.bm
	words := lb.Words()
	mBits := lb.Bits()
	segShift := uint(simd.Tzcnt32(uint32(lb.SegBits()))) // log2(segBits)
	offs := large.offsets
	reord := large.reordered
	hasher := large.build.hasher
	elems := small.reordered

	n := 0
	survivors := 0
	var touch uint64
	for lo := 0; lo < len(elems); lo += probeBlock {
		blk := elems[lo:min(lo+probeBlock, len(elems))]
		// Staging phase (branch-free).
		ns := 0
		for _, x := range blk {
			p := hasher.Pos(x, mBits)
			hit := int(words[p>>6] >> (p & 63) & 1)
			seg := int(p) >> segShift
			oa, oaEnd := offs[seg], offs[seg+1]
			stage[ns] = probeRec{x, oa, oaEnd}
			ns += hit
		}
		survivors += ns
		// Touch pass: issue every survivor's first segment load back to back,
		// so the (serialized, short-scan) scan phase finds the lines already
		// in flight. Survivors' segments are never empty — their bit was set.
		for i := range stage[:ns] {
			touch += uint64(reord[stage[i].oa])
		}
		// Scan phase over the staged (and now in-flight) segment lists.
		n = scanStage(stage[:ns], reord, dst, emit, n)
	}
	if st != nil {
		st.Add(stats.CtrHashProbes, uint64(len(elems)))
		st.Add(stats.CtrHashSurvivors, uint64(survivors))
	}
	return n, uint32(touch)
}

// hashProbeStagedGather is hashProbeStaged with the staging phase run
// through the AVX-512 gathered probe: hash, bitmap gather and bit test all
// happen in zmm lanes (simd.ProbeStage), and the stage records are then
// built from the compress-stored survivors only — the segment-bound loads
// the scalar staging phase issues for *every* probe happen just for the
// survivors here. The touch pass and scan phase are unchanged, so match
// order and output are identical. The out arrays live on the stack
// (ProbeStage's pointers do not escape), keeping the warm path
// allocation-free.
func hashProbeStagedGather(small, large *Set, stage []probeRec, dst []uint32, emit Visitor, st *stats.Shard) (int, uint32) {
	lb := &large.bm
	words := lb.Words()
	mBits := lb.Bits()
	segShift := uint(simd.Tzcnt32(uint32(lb.SegBits()))) // log2(segBits)
	offs := large.offsets
	reord := large.reordered
	hasher := large.build.hasher
	seed := hasher.Seed()
	elems := small.reordered

	n := 0
	survivors := 0
	var touch uint64
	var outE, outP [probeBlock]uint32
	lo := 0
	for lo+16 <= len(elems) {
		blk := elems[lo:min(lo+probeBlock, len(elems))]
		ns, consumed := simd.ProbeStage(blk, words, seed, mBits-1, outE[:], outP[:])
		lo += consumed
		survivors += ns
		for i := 0; i < ns; i++ {
			seg := int(outP[i]) >> segShift
			stage[i] = probeRec{outE[i], offs[seg], offs[seg+1]}
		}
		for i := range stage[:ns] {
			touch += uint64(reord[stage[i].oa])
		}
		n = scanStage(stage[:ns], reord, dst, emit, n)
	}
	// Sub-16 tail: one scalar staging block.
	if lo < len(elems) {
		ns := 0
		for _, x := range elems[lo:] {
			p := hasher.Pos(x, mBits)
			hit := int(words[p>>6] >> (p & 63) & 1)
			seg := int(p) >> segShift
			oa, oaEnd := offs[seg], offs[seg+1]
			stage[ns] = probeRec{x, oa, oaEnd}
			ns += hit
		}
		survivors += ns
		for i := range stage[:ns] {
			touch += uint64(reord[stage[i].oa])
		}
		n = scanStage(stage[:ns], reord, dst, emit, n)
	}
	if st != nil {
		st.Add(stats.CtrHashProbes, uint64(len(elems)))
		st.Add(stats.CtrHashSurvivors, uint64(survivors))
	}
	return n, uint32(touch)
}

// scanStage walks one staging block's surviving probes against the large
// set's segment lists, counting matches and appending to dst / streaming
// through emit when non-nil. n is the running match count (and dst write
// cursor); the updated count is returned.
func scanStage(recs []probeRec, reord, dst []uint32, emit Visitor, n int) int {
	for _, r := range recs {
		x := r.x
		if seg := reord[r.oa:r.oaEnd]; simd.AsmActive() && len(seg) >= containsCutover {
			// Long segments: the 8-lane compare probe beats the scalar
			// early-exit scan once it has a few registers' worth to chew on.
			if simd.Contains(seg, x) {
				if dst != nil {
					dst[n] = x
				}
				n++
				if emit != nil {
					emit(x)
				}
			}
			continue
		}
		for _, v := range reord[r.oa:r.oaEnd] {
			if v == x {
				if dst != nil {
					dst[n] = x
				}
				n++
				if emit != nil {
					emit(x)
				}
				break
			}
			if v > x {
				break
			}
		}
	}
	return n
}

// probeCache memoizes one set's hash positions for one bitmap size. Within a
// batch call the query set is fixed, so when the query is the smaller (= the
// probing) side of the hash strategy, every same-bitmap-size candidate sees
// the exact same probe positions — the hash need only be computed for the
// first such candidate, not once per candidate. The cache is invalidated at
// the start of every batch call (the query may have changed) and whenever a
// candidate's bitmap size differs from the cached one.
type probeCache struct {
	pos  []uint64
	bits uint64 // bitmap size the cache holds positions for; 0 = invalid
}

// fill recomputes the cache for q against bitmap size mBits.
func (c *probeCache) fill(q *Set, mBits uint64) {
	if cap(c.pos) < q.n {
		c.pos = make([]uint64, q.n)
	}
	c.pos = c.pos[:q.n]
	h := q.build.hasher
	for i, x := range q.reordered {
		c.pos[i] = h.Pos(x, mBits)
	}
	c.bits = mBits
}

// hashProbeBatch routes one batch hash-strategy step: when the query itself
// is the probing side and big enough to amortize staging, the probe runs on
// the executor's memoized position cache; otherwise it falls through to the
// self-hashing staged probe. On the AVX-512 rung the position cache is
// skipped entirely: the gathered stage recomputes the hash in zmm lanes for
// less than the cache's per-element load costs, and folds the bitmap test
// into the same pass.
func hashProbeBatch(c *probeCache, q, small, large *Set, stage []probeRec, dst []uint32, emit Visitor, st *stats.Shard) (int, uint32) {
	if simd.GatherProbeActive() && large.bm.Bits() <= gatherProbeMaxBits {
		return hashProbeStaged(small, large, stage, dst, emit, st)
	}
	if small == q && small.n >= probeBlock {
		if mBits := large.bm.Bits(); c.bits != mBits {
			c.fill(q, mBits)
		}
		return hashProbeStagedPos(c.pos, small, large, stage, dst, emit, st)
	}
	return hashProbeStaged(small, large, stage, dst, emit, st)
}

// hashProbeStagedPos is hashProbeStaged with the probe positions read from a
// precomputed cache instead of hashed on the fly — the staging phase becomes
// pure loads and shifts.
func hashProbeStagedPos(pos []uint64, small, large *Set, stage []probeRec, dst []uint32, emit Visitor, st *stats.Shard) (int, uint32) {
	lb := &large.bm
	words := lb.Words()
	segShift := uint(simd.Tzcnt32(uint32(lb.SegBits()))) // log2(segBits)
	offs := large.offsets
	reord := large.reordered
	elems := small.reordered

	n := 0
	survivors := 0
	var touch uint64
	for lo := 0; lo < len(elems); lo += probeBlock {
		hi := min(lo+probeBlock, len(elems))
		blk := elems[lo:hi]
		posBlk := pos[lo:hi]
		ns := 0
		for k, x := range blk {
			p := posBlk[k]
			hit := int(words[p>>6] >> (p & 63) & 1)
			seg := int(p) >> segShift
			oa, oaEnd := offs[seg], offs[seg+1]
			stage[ns] = probeRec{x, oa, oaEnd}
			ns += hit
		}
		survivors += ns
		for i := range stage[:ns] {
			touch += uint64(reord[stage[i].oa])
		}
		n = scanStage(stage[:ns], reord, dst, emit, n)
	}
	if st != nil {
		st.Add(stats.CtrHashProbes, uint64(len(elems)))
		st.Add(stats.CtrHashSurvivors, uint64(survivors))
	}
	return n, uint32(touch)
}

// ensureProbe sizes the executor's staged-probe buffer and invalidates the
// query position cache (each batch call may carry a different query).
func (e *Executor) ensureProbe() {
	if cap(e.probeStage) < probeBlock {
		e.probeStage = make([]probeRec, probeBlock)
	}
	e.probeStage = e.probeStage[:probeBlock]
	e.qcache.bits = 0
}

// ---------------------------------------------------------------------------
// One-vs-many batch queries.
// ---------------------------------------------------------------------------

// CountMany fills out[i] with |q ∩ candidates[i]| for every candidate,
// exactly matching a loop of Count(q, candidates[i]) — including the
// per-candidate adaptive merge/hash switch — but amortizing query-side work
// across the batch: q's bitmap words, dispatcher and the staging buffer stay
// hot, and the merge pairs run through the staged two-pass dispatch. out must
// have at least len(candidates) entries. Zero heap allocations once the
// staging buffer has grown to the workload's largest candidate.
func (e *Executor) CountMany(q *Set, candidates []*Set, out []int) {
	e.countMany(nil, q, candidates, out)
}

// countMany is the one batch loop of CountMany and CountManyCtx, testing a
// non-nil ck once per candidate. The per-candidate body stays inline: a call
// per candidate costs several percent on tiny candidates. A cancellable batch
// holds its planner samples (planner.Handle.Hold) until it completes.
func (e *Executor) countMany(ck checkpoint, q *Set, candidates []*Set, out []int) error {
	if len(out) < len(candidates) {
		panic("core: CountMany output shorter than candidate list")
	}
	if err := stop(ck); err != nil {
		return e.noteCancel(err)
	}
	if len(candidates) == 0 {
		return nil
	}
	st := e.st
	var start time.Time
	if st != nil {
		start = time.Now()
	}
	e.ensureProbe()
	recs := e.staged
	var touch uint32
	// Touch pass: load every segmented candidate's first bitmap word and last
	// offset back to back, so the candidates' header and arena misses overlap
	// instead of queuing one per candidate in the loop below.
	for _, c := range candidates {
		if c.rep == RepSegmented {
			touch += uint32(c.bm.Words()[0]) + c.offsets[len(c.offsets)-1]
		}
	}
	h := e.plan
	if ck != nil && h != nil {
		h.Hold() // until the batch completes: a cancelled one feeds the planner nothing
	}
	var err error
	for i, c := range candidates {
		if err = stop(ck); err != nil {
			break
		}
		compatible(q, c)
		switch {
		case c.n == 0 || q.n == 0:
			out[i] = 0
		case crossPair(q, c):
			out[i] = crossStep(h, st, &e.denseAnd, q, c, nil, nil)
		default:
			ch, hash := planSegSeg(h, st, q, c)
			pstart := planStart(ch)
			if hash {
				small, large := q, c
				if small.n > large.n {
					small, large = large, small
				}
				var t uint32
				out[i], t = hashProbeBatch(&e.qcache, q, small, large, e.probeStage, nil, nil, st)
				touch += t
			} else {
				var n int
				var t uint32
				n, recs, t = countMergeStaged(q, c, recs, st, e.kernelShard())
				out[i] = n
				touch += t
			}
			planRecord(h, ch, pstart)
		}
	}
	e.staged = recs
	e.touchSink += touch
	if ck != nil && h != nil {
		h.Release(err == nil)
	}
	if err != nil {
		return e.noteCancel(err)
	}
	if st != nil {
		st.Add(stats.CtrBatchCandidates, uint64(len(candidates)))
		observeSince(st, stats.CtrQueriesBatch, stats.LatBatch, start)
	}
	return nil
}

// IntersectManyInto writes q ∩ candidates[i] for every candidate into dst,
// back to back, recording each candidate's count in counts[i] and returning
// the total number of elements written. Per-candidate results match
// Intersect(dst, q, candidates[i]) exactly (same strategy choice, same
// segment order). dst must have room for the sum over candidates of
// min(q.Len(), candidate.Len()); counts must have at least len(candidates)
// entries. Zero heap allocations once warm.
func (e *Executor) IntersectManyInto(dst []uint32, counts []int, q *Set, candidates []*Set) int {
	if len(counts) < len(candidates) {
		panic("core: IntersectManyInto counts shorter than candidate list")
	}
	st := e.st
	var start time.Time
	if st != nil {
		start = time.Now()
	}
	e.ensureProbe()
	recs := e.staged
	var touch uint32
	h := e.plan
	total := 0
	for i, c := range candidates {
		compatible(q, c)
		n := 0
		switch {
		case c.n == 0 || q.n == 0:
			// nothing to write
		case crossPair(q, c):
			n = crossStep(h, st, &e.denseAnd, q, c, dst[total:], nil)
		default:
			ch, hash := planSegSeg(h, st, q, c)
			pstart := planStart(ch)
			if hash {
				small, large := q, c
				if small.n > large.n {
					small, large = large, small
				}
				var t uint32
				n, t = hashProbeBatch(&e.qcache, q, small, large, e.probeStage, dst[total:], nil, st)
				touch += t
			} else {
				x, y := ordered(q, c)
				recs = stageSegPairs(x, y, recs[:0])
				noteStaged(st, e.kernelShard(), recs, x.bm.NumSegments())
				var t uint32
				n, t = dispatchStagedIntersect(&x.build.disp, dst[total:], x.reordered, y.reordered, recs)
				touch += t
			}
			planRecord(h, ch, pstart)
		}
		counts[i] = n
		total += n
	}
	e.staged = recs
	e.touchSink += touch
	if st != nil {
		st.Add(stats.CtrBatchCandidates, uint64(len(candidates)))
		observeSince(st, stats.CtrQueriesBatch, stats.LatBatch, start)
	}
	return total
}

// VisitMany streams every q ∩ candidates[i] through emit as (candidate
// index, element) pairs, in the same per-candidate order IntersectManyInto
// writes, without materializing any result. The only steady-state allocation
// is one adapter closure per call.
func (e *Executor) VisitMany(q *Set, candidates []*Set, emit func(candidate int, v uint32)) {
	st := e.st
	var start time.Time
	if st != nil {
		start = time.Now()
	}
	e.ensureProbe()
	recs := e.staged
	scratch := e.scratch
	h := e.plan
	cand := 0
	emit1 := func(v uint32) { emit(cand, v) }
	for i, c := range candidates {
		compatible(q, c)
		cand = i
		switch {
		case c.n == 0 || q.n == 0:
			// nothing to emit
		case crossPair(q, c):
			crossStep(h, st, &e.denseAnd, q, c, nil, emit1)
		default:
			ch, hash := planSegSeg(h, st, q, c)
			pstart := planStart(ch)
			if hash {
				small, large := q, c
				if small.n > large.n {
					small, large = large, small
				}
				_, t := hashProbeBatch(&e.qcache, q, small, large, e.probeStage, nil, emit1, st)
				e.touchSink += t
			} else {
				x, y := ordered(q, c)
				recs = stageSegPairs(x, y, recs[:0])
				noteStaged(st, e.kernelShard(), recs, x.bm.NumSegments())
				scratch = growU32(scratch, max(min(x.maxSeg, y.maxSeg), 1))
				visitStaged(&x.build.disp, scratch, x.reordered, y.reordered, recs, emit1)
			}
			planRecord(h, ch, pstart)
		}
	}
	e.staged = recs
	e.scratch = scratch
	if st != nil {
		st.Add(stats.CtrBatchCandidates, uint64(len(candidates)))
		observeSince(st, stats.CtrQueriesBatch, stats.LatBatch, start)
	}
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
// CountManyParallelCtx; every worker tests a non-nil ck once per candidate.
func (e *Executor) countManyParallel(ck checkpoint, q *Set, candidates []*Set, out []int, workers int) error {
	if len(out) < len(candidates) {
		panic("core: CountManyParallel output shorter than candidate list")
	}
	workers = min(max(workers, 1), len(candidates))
	if workers <= 1 {
		return e.countMany(ck, q, candidates, out)
	}
	// Work-size cutover: a batch whose total work cannot amortize the pool
	// hand-off runs serially on the warm batch path — at small scale the
	// fork/join and per-worker cache re-warming cost more than they save
	// (BENCH_batch.json's skewed/c256 regime). The proxy charges each
	// candidate its strategy's dominant term: probes for the hash side,
	// both segment streams for the merge side.
	work := 0
	for _, c := range candidates {
		switch {
		case crossPair(q, c):
			work += q.n + c.n
		case useHash(q, c):
			work += min(q.n, c.n)
		default:
			work += q.n + c.n
		}
	}
	if work < batchParallelMinWork {
		return e.countMany(ck, q, candidates, out)
	}
	if err := stop(ck); err != nil {
		return e.noteCancel(err)
	}
	var start time.Time
	if e.st != nil {
		start = time.Now()
	}
	// Size-ordered schedule: sort candidate indices by descending set size,
	// then deal index k to worker k mod workers. Round-robin over a sorted
	// order bounds any worker's load at (total + max)/workers.
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
		h := ws.plan
		if ck != nil && h != nil {
			h.Hold()
		}
		seq := 0 // per-worker merge-candidate index for kernel sampling
		for k := w; k < len(sched); k += workers {
			if stop(ck) != nil {
				break
			}
			i := sched[k]
			c := candidates[i]
			compatible(q, c)
			switch {
			case c.n == 0 || q.n == 0:
				out[i] = 0
			case crossPair(q, c):
				out[i] = crossStep(h, ws.st, &ws.denseAnd, q, c, nil, nil)
			default:
				ch, hash := planSegSeg(h, ws.st, q, c)
				pstart := planStart(ch)
				if hash {
					small, large := q, c
					if small.n > large.n {
						small, large = large, small
					}
					var t uint32
					out[i], t = hashProbeBatch(&ws.qcache, q, small, large, ws.probeStage, nil, nil, ws.st)
					touch += t
				} else {
					var n int
					var t uint32
					n, recs, t = countMergeStaged(q, c, recs, ws.st, sampleShard(ws.st, seq))
					seq++
					out[i] = n
					touch += t
				}
				planRecord(h, ch, pstart)
			}
		}
		ws.staged = recs
		ws.touch = touch
	})
	err := stop(ck)
	if ck != nil {
		for w := range workers {
			if h := e.workers[w].plan; h != nil {
				h.Release(err == nil)
			}
		}
	}
	if err != nil {
		return e.noteCancel(err)
	}
	if e.st != nil {
		e.st.Add(stats.CtrBatchCandidates, uint64(len(candidates)))
		observeSince(e.st, stats.CtrQueriesBatch, stats.LatBatch, start)
	}
	return nil
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
