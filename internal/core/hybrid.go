package core

import (
	"context"
	"math/bits"
	"slices"
	"time"

	"fesia/internal/kernels"
	"fesia/internal/planner"
	"fesia/internal/simd"
	"fesia/internal/stats"
)

// Cross-representation dispatch matrix. With three physical representations
// (segmented bitmap, sorted array, dense bitmap) there are six unordered
// pairs; seg×seg keeps the classic FESIAmerge/FESIAhash strategies and their
// SIMD paths, and every other pair routes here. The matrix picks the cheaper
// side to drive each pair:
//
//	array×array  sorted-merge via the jump-table count/intersect kernels when
//	             both sides fit the table, the generic merge otherwise
//	array×seg    the array's elements probe the segmented set through the
//	             existing branch-free hash probe (O(n_array))
//	array×dense  the smaller side probes the other (bit test one way, binary
//	             search the other)
//	seg×dense    the smaller side probes the other (hash probe one way, bit
//	             test the other)
//	dense×dense  word-AND over the overlapping span via simd.AndWords, then
//	             popcount (count) or bit decode (materialize/visit)
//
// All paths are allocation-free once the executor's dense-AND scratch has
// grown to the workload's largest overlap (the same warm-executor contract as
// the segmented paths). Result order is ascending for array- and dense-driven
// pairs and segment order when a segmented set's reordered array drives the
// loop; as with the classic strategies, callers needing value order sort.

// crossPair reports whether an intersection of a and b takes the
// cross-representation dispatch matrix instead of the seg×seg strategies.
func crossPair(a, b *Set) bool {
	return a.rep != RepSegmented || b.rep != RepSegmented
}

// repPairCounter maps an unordered representation pair to its dispatch
// counter.
func repPairCounter(a, b Rep) stats.Counter {
	if a > b {
		a, b = b, a
	}
	switch a {
	case RepSegmented:
		switch b {
		case RepSegmented:
			return stats.CtrDispSegSeg
		case RepArray:
			return stats.CtrDispSegArray
		default:
			return stats.CtrDispSegDense
		}
	case RepArray:
		if b == RepArray {
			return stats.CtrDispArrayArray
		}
		return stats.CtrDispArrayDense
	}
	return stats.CtrDispDenseDense
}

// growU64 returns a slice of length n, reusing buf's storage when large
// enough. The contents are unspecified.
func growU64(buf []uint64, n int) []uint64 {
	if cap(buf) < n {
		return make([]uint64, n)
	}
	return buf[:n]
}

// denseHas is the dense-representation membership test: in-span bit lookup.
func (s *Set) denseHas(x uint32) bool {
	if x < s.base {
		return false
	}
	idx := x - s.base
	if int(idx>>6) >= len(s.dense) {
		return false
	}
	return s.dense[idx>>6]&(1<<(idx&63)) != 0
}

// crossRun dispatches one pair intersection where at least one side is
// non-segmented. With dst non-nil matches are appended there; with emit
// non-nil they are streamed; with both nil only the count is produced. The
// match count is returned. denseAnd is the caller's persistent dense-AND
// scratch (grown in place). st, when non-nil, receives the dispatch-pair
// counter and, on hash-probing paths, the probe/survivor counters. h, when
// non-nil, resolves the probe-side decisions of the ×dense pairs through the
// adaptive planner (the other pairs have a single reasonable driver and stay
// static).
func crossRun(h *planner.Handle, denseAnd *[]uint64, a, b *Set, dst []uint32, emit Visitor, st *stats.Shard) int {
	if st != nil {
		st.Inc(repPairCounter(a.rep, b.rep))
	}
	if a.rep > b.rep {
		a, b = b, a
	}
	if a.n == 0 || b.n == 0 {
		return 0
	}
	switch a.rep {
	case RepSegmented: // b is array or dense
		if b.rep == RepArray {
			return hashProbeElems(b.reordered, a, dst, emit, st)
		}
		return segDenseRun(h, a, b, dst, emit, st)
	case RepArray:
		if b.rep == RepArray {
			return arrayArrayRun(a, b, dst, emit)
		}
		return arrayDenseRun(h, a, b, dst, emit, st)
	}
	return denseDenseRun(denseAnd, a, b, dst, emit)
}

// arrayArrayRun intersects two sorted arrays: the jump-table kernels when
// both sides fit the table (the SIMD small-merge path), the generic scalar
// merge otherwise. Results are ascending.
func arrayArrayRun(a, b *Set, dst []uint32, emit Visitor) int {
	xa, xb := a.reordered, b.reordered
	la, lb := len(xa), len(xb)
	d := &a.build.disp
	if emit != nil {
		n := 0
		kernels.GenericVisit(xa, xb, func(v uint32) {
			n++
			emit(v)
		})
		return n
	}
	if dst != nil {
		if la <= d.Cap && lb <= d.Cap {
			ctrl := int(d.Round[la])<<d.Bits | int(d.Round[lb])
			return d.Inter[ctrl](dst, xa, xb)
		}
		return kernels.GenericIntersect(dst, xa, xb)
	}
	if la <= d.Cap && lb <= d.Cap {
		ctrl := int(d.Round[la])<<d.Bits | int(d.Round[lb])
		return d.Count[ctrl](xa, xb)
	}
	return kernels.GenericCount(xa, xb)
}

// arrayDenseRun intersects a sorted array with a dense bitmap. The probing
// side comes from the planner when a handle is attached (arm 0: array
// elements bit-test the dense span; arm 1: dense bits binary-search the
// array), from the smaller-side rule otherwise.
func arrayDenseRun(h *planner.Handle, arr, den *Set, dst []uint32, emit Visitor, st *stats.Shard) int {
	fromArray := arr.n <= den.n
	var ch planner.Choice
	if h != nil {
		ch = h.Decide(planner.DecArrayDense, arr.n, den.n)
		notePlanDecision(st, planner.DecArrayDense, ch, (ch.Arm == 0) != fromArray)
		fromArray = ch.Arm == 0
	}
	start := planStart(ch)
	n := arrayDenseArm(arr, den, fromArray, dst, emit)
	planRecord(h, ch, start)
	return n
}

// arrayDenseArm runs one probing side of an array×dense pair.
func arrayDenseArm(arr, den *Set, fromArray bool, dst []uint32, emit Visitor) int {
	n := 0
	if fromArray {
		for _, x := range arr.reordered {
			if den.denseHas(x) {
				if dst != nil {
					dst[n] = x
				}
				n++
				if emit != nil {
					emit(x)
				}
			}
		}
		return n
	}
	for wi, w := range den.dense {
		for w != 0 {
			x := den.base + uint32(wi)<<6 + uint32(simd.Tzcnt64(w))
			w &= w - 1
			if _, ok := slices.BinarySearch(arr.reordered, x); ok {
				if dst != nil {
					dst[n] = x
				}
				n++
				if emit != nil {
					emit(x)
				}
			}
		}
	}
	return n
}

// segDenseRun intersects a segmented set with a dense bitmap. The probing
// side comes from the planner when a handle is attached (arm 0: dense bits
// hash-probe the segmented set; arm 1: the segmented set's reordered
// elements bit-test the dense span), from the smaller-side rule otherwise.
func segDenseRun(h *planner.Handle, seg, den *Set, dst []uint32, emit Visitor, st *stats.Shard) int {
	fromDense := den.n < seg.n
	var ch planner.Choice
	if h != nil {
		ch = h.Decide(planner.DecSegDense, den.n, seg.n)
		notePlanDecision(st, planner.DecSegDense, ch, (ch.Arm == 0) != fromDense)
		fromDense = ch.Arm == 0
	}
	start := planStart(ch)
	n := segDenseArm(seg, den, fromDense, dst, emit, st)
	planRecord(h, ch, start)
	return n
}

// segDenseArm runs one probing side of a seg×dense pair.
func segDenseArm(seg, den *Set, fromDense bool, dst []uint32, emit Visitor, st *stats.Shard) int {
	n := 0
	if fromDense {
		probes := 0
		for wi, w := range den.dense {
			for w != 0 {
				x := den.base + uint32(wi)<<6 + uint32(simd.Tzcnt64(w))
				w &= w - 1
				probes++
				if seg.Contains(x) {
					if dst != nil {
						dst[n] = x
					}
					n++
					if emit != nil {
						emit(x)
					}
				}
			}
		}
		if st != nil {
			st.Add(stats.CtrHashProbes, uint64(probes))
		}
		return n
	}
	for _, x := range seg.reordered {
		if den.denseHas(x) {
			if dst != nil {
				dst[n] = x
			}
			n++
			if emit != nil {
				emit(x)
			}
		}
	}
	return n
}

// denseDenseRun intersects two dense bitmaps: the overlapping word window
// (bases are 64-aligned, so overlap is word-aligned with no shifting) is
// ANDed via simd.AndWords into the caller's scratch, then popcounted or
// decoded. Results are ascending.
func denseDenseRun(denseAnd *[]uint64, a, b *Set, dst []uint32, emit Visitor) int {
	lo, wa, wb, nw := denseOverlap(a, b)
	if nw <= 0 {
		return 0
	}
	buf := growU64(*denseAnd, nw)
	*denseAnd = buf
	nonZero := simd.AndWords(buf, a.dense[wa:wa+nw], b.dense[wb:wb+nw])
	if nonZero == 0 {
		return 0
	}
	n := 0
	if dst == nil && emit == nil {
		for _, w := range buf {
			n += bits.OnesCount64(w)
		}
		return n
	}
	for wi, w := range buf {
		for w != 0 {
			x := lo + uint32(wi)<<6 + uint32(simd.Tzcnt64(w))
			w &= w - 1
			if dst != nil {
				dst[n] = x
			}
			n++
			if emit != nil {
				emit(x)
			}
		}
	}
	return n
}

// denseOverlap computes the word-aligned overlap window of two dense sets:
// the window's base value, each side's starting word offset, and the word
// count (<= 0 when the spans are disjoint).
func denseOverlap(a, b *Set) (lo uint32, wa, wb, nw int) {
	loA, loB := uint64(a.base), uint64(b.base)
	hiA := loA + uint64(len(a.dense))*64
	hiB := loB + uint64(len(b.dense))*64
	l := max(loA, loB)
	h := min(hiA, hiB)
	if h <= l {
		return 0, 0, 0, 0
	}
	return uint32(l), int((l - loA) >> 6), int((l - loB) >> 6), int((h - l) >> 6)
}

// ---------------------------------------------------------------------------
// Executor entry points: stats recording + scratch ownership.
// ---------------------------------------------------------------------------

// crossCount is the executor's counting entry into the dispatch matrix.
func (e *Executor) crossCount(a, b *Set) int {
	compatible(a, b)
	if e.st == nil {
		return crossRun(e.plan, &e.denseAnd, a, b, nil, nil, nil)
	}
	start := time.Now()
	n := crossRun(e.plan, &e.denseAnd, a, b, nil, nil, e.st)
	observeSince(e.st, stats.CtrQueriesCross, stats.LatCross, start)
	return n
}

// crossIntersect materializes a cross-representation intersection into dst.
func (e *Executor) crossIntersect(dst []uint32, a, b *Set) int {
	compatible(a, b)
	if e.st == nil {
		return crossRun(e.plan, &e.denseAnd, a, b, dst, nil, nil)
	}
	start := time.Now()
	n := crossRun(e.plan, &e.denseAnd, a, b, dst, nil, e.st)
	observeSince(e.st, stats.CtrQueriesCross, stats.LatCross, start)
	return n
}

// crossVisit streams a cross-representation intersection through emit.
func (e *Executor) crossVisit(a, b *Set, emit Visitor) {
	compatible(a, b)
	if e.st == nil {
		crossRun(e.plan, &e.denseAnd, a, b, nil, emit, nil)
		return
	}
	start := time.Now()
	crossRun(e.plan, &e.denseAnd, a, b, nil, emit, e.st)
	observeSince(e.st, stats.CtrQueriesCross, stats.LatCross, start)
}

// crossCountFree backs the package-level strategy functions for
// cross-representation pairs, on a pooled default executor.
func crossCountFree(a, b *Set) int {
	e := getExecutor()
	defer putExecutor(e)
	return e.crossCount(a, b)
}

// crossIntersectFree is the materializing counterpart of crossCountFree.
func crossIntersectFree(dst []uint32, a, b *Set) int {
	e := getExecutor()
	defer putExecutor(e)
	return e.crossIntersect(dst, a, b)
}

// ---------------------------------------------------------------------------
// k-way over mixed representations.
// ---------------------------------------------------------------------------

// materialize writes the set's elements into dst (which must hold s.Len())
// and returns the count: ascending for array and dense sets, segment order
// for segmented sets (matching IntersectK's k==1 contract).
func (s *Set) materialize(dst []uint32) int {
	if s.rep != RepDense {
		return copy(dst, s.reordered)
	}
	n := 0
	for wi, w := range s.dense {
		for w != 0 {
			dst[n] = s.base + uint32(wi)<<6 + uint32(simd.Tzcnt64(w))
			n++
			w &= w - 1
		}
	}
	return n
}

// visitAll streams every element of the set through emit, in materialize
// order.
func (s *Set) visitAll(emit Visitor) {
	if s.rep != RepDense {
		for _, v := range s.reordered {
			emit(v)
		}
		return
	}
	for wi, w := range s.dense {
		for w != 0 {
			emit(s.base + uint32(wi)<<6 + uint32(simd.Tzcnt64(w)))
			w &= w - 1
		}
	}
}

// kwaySeed picks the set a mixed-representation k-way chain materializes
// first. With a planner handle the pick minimizes the modelled chain cost —
// n_seed × Σ fitted per-probe cost of every other set's representation — so
// a slightly larger seed wins when it avoids expensive probe targets; the
// equal cold-start priors reduce this to the static smallest-set rule
// (first-minimum tie break included).
func (e *Executor) kwaySeed(sets []*Set) int {
	if h := e.plan; h != nil {
		var total float64
		for _, s := range sets {
			total += h.ProbeCost(int(s.rep))
		}
		best, bestEst := 0, 0.0
		for i, s := range sets {
			est := float64(s.n) * (total - h.ProbeCost(int(s.rep)))
			if i == 0 || est < bestEst {
				best, bestEst = i, est
			}
		}
		return best
	}
	sm := 0
	for i, s := range sets {
		if s.n < sets[sm].n {
			sm = i
		}
	}
	return sm
}

// keepMembers writes the elements of src that are members of s to dst and
// returns their count, keeping src's order: the segmented hash probe
// (hashProbeElems) for segmented sets, Contains otherwise. dst may alias
// src's prefix — each write lands at or before the element just read — so
// the probe chain compacts its list in place.
func (s *Set) keepMembers(dst, src []uint32) int {
	if s.rep == RepSegmented {
		return hashProbeElems(src, s, dst, nil, nil)
	}
	k := 0
	for _, v := range src {
		if s.Contains(v) {
			dst[k] = v
			k++
		}
	}
	return k
}

// ---------------------------------------------------------------------------
// Context-aware variants: the same matrix with cooperative checkpoints, at
// the granularity of the classic ctx paths (probe blocks on element-driven
// loops, word blocks on the dense AND).
// ---------------------------------------------------------------------------

// crossCountCtx is crossRun's counting form with cooperative cancellation.
func (e *Executor) crossCountCtx(ctx context.Context, a, b *Set) (int, error) {
	return e.crossRunCtx(ctx, a, b, nil)
}

// crossIntersectCtx is crossRun's materializing form with cancellation.
func (e *Executor) crossIntersectCtx(ctx context.Context, dst []uint32, a, b *Set) (int, error) {
	return e.crossRunCtx(ctx, a, b, dst)
}

// crossRunCtx runs one cross-representation pair with a context check per
// work block (crossPairCtx), recording the pair query into the stats. On
// cancellation it returns (0, ctx.Err()).
func (e *Executor) crossRunCtx(ctx context.Context, a, b *Set, dst []uint32) (int, error) {
	compatible(a, b)
	if err := ctx.Err(); err != nil {
		return 0, e.noteCancel(err)
	}
	st := e.st
	var start time.Time
	if st != nil {
		start = time.Now()
		st.Inc(repPairCounter(a.rep, b.rep))
	}
	n, fb, err := e.crossPairCtx(ctx, a, b, dst)
	if err != nil {
		return 0, e.noteCancel(err)
	}
	fb.record(e.plan)
	if st != nil {
		observeSince(st, stats.CtrQueriesCross, stats.LatCross, start)
	}
	return n, nil
}

// crossPairCtx is the cancellable body of crossRunCtx, shared with the
// probe chain's seed pair. The element-probing pairs chunk the probing side
// by ctxProbeBlock; dense×dense chunks the word AND by ctxWordBlock. The
// planner feedback of a measured probe-side decision is returned, not
// recorded, so that the caller feeds it only once its whole query finishes.
func (e *Executor) crossPairCtx(ctx checkpoint, a, b *Set, dst []uint32) (int, planFeedback, error) {
	if a.rep > b.rep {
		a, b = b, a
	}
	var n int
	var err error
	switch {
	case a.n == 0 || b.n == 0:
		return 0, planFeedback{}, nil
	case a.rep == RepDense: // dense×dense
		n, err = e.denseDenseCtx(ctx, a, b, dst)
		return n, planFeedback{}, err
	case b.rep != RepDense:
		// seg×array probes one side's sorted element slice against the
		// other's membership test (hash probe into segmented, binary search
		// into arrays), from the smaller side.
		probe, other := a, b
		if b.n < a.n {
			probe, other = b, a
		}
		n, err = e.elemsProbeCtx(ctx, probe.reordered, other, dst)
		return n, planFeedback{}, err
	}
	// seg×dense / array×dense: pick the probing side — walk the dense words
	// probing a, or probe a's sorted elements against the dense span.
	// Planner decision when a handle is attached, the smaller-side rule
	// otherwise.
	fromDense := b.n < a.n
	var ch planner.Choice
	if h := e.plan; h != nil {
		if a.rep == RepSegmented {
			ch = h.Decide(planner.DecSegDense, b.n, a.n)
			notePlanDecision(e.st, planner.DecSegDense, ch, (ch.Arm == 0) != fromDense)
			fromDense = ch.Arm == 0
		} else {
			ch = h.Decide(planner.DecArrayDense, a.n, b.n)
			notePlanDecision(e.st, planner.DecArrayDense, ch, (ch.Arm == 1) != fromDense)
			fromDense = ch.Arm == 1
		}
	}
	pstart := planStart(ch)
	if fromDense {
		n, err = e.denseProbeCtx(ctx, b, a, dst)
	} else {
		n, err = e.elemsProbeCtx(ctx, a.reordered, b, dst)
	}
	if err != nil {
		// Cancelled passes are partial work; only completed ones feed the
		// cost model.
		return 0, planFeedback{}, err
	}
	return n, measured(ch, pstart), nil
}

// elemsProbeCtx probes a sorted element slice against any set in
// ctxProbeBlock chunks, checking the context between chunks.
func (e *Executor) elemsProbeCtx(ctx checkpoint, elems []uint32, other *Set, dst []uint32) (int, error) {
	n := 0
	for lo := 0; lo < len(elems); lo += ctxProbeBlock {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		for _, x := range elems[lo:min(lo+ctxProbeBlock, len(elems))] {
			if other.Contains(x) {
				if dst != nil {
					dst[n] = x
				}
				n++
			}
		}
	}
	return n, nil
}

// denseProbeCtx walks a dense set's words in ctxWordBlock chunks, probing
// each decoded element against other.
func (e *Executor) denseProbeCtx(ctx checkpoint, den, other *Set, dst []uint32) (int, error) {
	n := 0
	for lo := 0; lo < len(den.dense); lo += ctxWordBlock {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		hi := min(lo+ctxWordBlock, len(den.dense))
		for wi := lo; wi < hi; wi++ {
			w := den.dense[wi]
			for w != 0 {
				x := den.base + uint32(wi)<<6 + uint32(simd.Tzcnt64(w))
				w &= w - 1
				if other.Contains(x) {
					if dst != nil {
						dst[n] = x
					}
					n++
				}
			}
		}
	}
	return n, nil
}

// denseDenseCtx is denseDenseRun with the word AND chunked by ctxWordBlock.
func (e *Executor) denseDenseCtx(ctx checkpoint, a, b *Set, dst []uint32) (int, error) {
	lo, wa, wb, nw := denseOverlap(a, b)
	if nw <= 0 {
		return 0, nil
	}
	e.denseAnd = growU64(e.denseAnd, min(nw, ctxWordBlock))
	buf := e.denseAnd
	n := 0
	for off := 0; off < nw; off += ctxWordBlock {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		cn := min(ctxWordBlock, nw-off)
		nonZero := simd.AndWords(buf[:cn], a.dense[wa+off:wa+off+cn], b.dense[wb+off:wb+off+cn])
		if nonZero == 0 {
			continue
		}
		for wi, w := range buf[:cn] {
			if dst == nil {
				n += bits.OnesCount64(w)
				continue
			}
			for w != 0 {
				dst[n] = lo + uint32(off+wi)<<6 + uint32(simd.Tzcnt64(w))
				n++
				w &= w - 1
			}
		}
	}
	return n, nil
}
