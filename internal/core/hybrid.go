package core

import (
	"math/bits"
	"slices"

	"fesia/internal/simd"
	"fesia/internal/stats"
)

// Cross-representation dispatch matrix. With three physical representations
// (segmented bitmap, sorted array, dense bitmap) there are six unordered
// pairs; seg×seg keeps the classic FESIAmerge/FESIAhash strategies and their
// SIMD paths, and every other pair routes here. The matrix picks the cheaper
// side to drive each pair:
//
//	array×array  sorted-merge via simd.CountSmall/IntersectSmall (a SIMD
//	             body when one side fits a register, a scalar merge otherwise)
//	array×seg    the smaller side probes the other, the array on ties
//	             (hash probe one way, binary search the other)
//	array×dense  the smaller side probes the other (bit test one way, binary
//	             search the other)
//	seg×dense    the smaller side probes the other (hash probe one way, bit
//	             test the other)
//	dense×dense  word-AND over the overlapping span via simd.AndWords, then
//	             popcount (count) or bit decode (materialize/visit)
//
// Each pair has one body for every sink and checkpoint (crossRun). All paths
// are allocation-free once the executor's dense-AND scratch has grown to the
// workload's largest overlap (the same warm-executor contract as the
// segmented paths). Result order is ascending for array- and dense-driven
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

// crossPlan picks the probing side of a ×dense pair by the smaller-side
// rule: walk the dense words (fromDense) when the dense side is the smaller,
// else probe the other set's sorted elements against the dense span. The
// other pairs, and empty ones, have one probing side: false.
func crossPlan(a, b *Set) (fromDense bool) {
	if a.rep > b.rep {
		a, b = b, a
	}
	if b.rep != RepDense || a.rep == RepDense || a.n == 0 || b.n == 0 {
		return false
	}
	return b.n < a.n
}

// crossRun dispatches one pair intersection where at least one side is
// non-segmented, into the sink: dst (when non-nil) receives the matches, emit
// (when non-nil) streams them, and with both nil only the count is produced.
// The match count is returned. fromDense is crossPlan's probing side for the
// ×dense pairs; seg×array is driven from the array unless the segmented side
// is smaller. The lane's stats shard, when non-nil, receives the
// dispatch-pair counter and, on hash-probing paths, the probe/survivor
// counters. With ck non-nil the driving loop runs in checkpoint blocks —
// ctxProbeBlock elements or ctxWordBlock dense words — and stops with ck's
// error.
func (l *lane) crossRun(ck checkpoint, a, b *Set, fromDense bool, dst []uint32, emit Visitor) (int, error) {
	if l.st != nil {
		l.st.Inc(repPairCounter(a.rep, b.rep))
	}
	if a.rep > b.rep {
		a, b = b, a
	}
	switch {
	case a.n == 0 || b.n == 0:
		return 0, nil
	case a.rep == RepDense:
		return denseDenseRun(ck, &l.denseAnd, a, b, dst, emit)
	case a.rep == RepArray && b.rep == RepArray:
		return arrayArrayRun(ck, a, b, dst, emit)
	case b.rep == RepDense && fromDense:
		return l.denseProbeRun(ck, b, a, dst, emit)
	case b.rep == RepArray && b.n <= a.n:
		a, b = b, a
	}
	return l.probeRun(ck, a.reordered, b, dst, emit, l.st)
}

// put hands match x to the sink — dst[n] when dst is non-nil, emit when
// non-nil — and returns the advanced match count.
func put(dst []uint32, emit Visitor, n int, x uint32) int {
	if dst != nil {
		dst[n] = x
	}
	if emit != nil {
		emit(x)
	}
	return n + 1
}

// tail is dst past its first n entries; a nil dst (count only) stays nil.
func tail(dst []uint32, n int) []uint32 {
	if dst == nil {
		return nil
	}
	return dst[n:]
}

// probeRun has each of the sorted elems probe other for membership, keeping
// elems' order: the segmented membership probe (probe) into a segmented set,
// Contains otherwise. It is the hash arm's body, the cross pairs' driven by
// elements or dense words, and the probe chain's compaction; dst may alias
// elems' prefix, since each write lands at or before the element just read.
// st, when non-nil, receives the probe/survivor counters. With ck non-nil it
// runs in ctxProbeBlock blocks.
func (l *lane) probeRun(ck checkpoint, elems []uint32, other *Set, dst []uint32, emit Visitor, st *stats.Shard) (int, error) {
	n := 0
	step := stride(ck, ctxProbeBlock, len(elems))
	for lo := 0; lo < len(elems); lo += step {
		if err := stop(ck); err != nil {
			return 0, err
		}
		blk := elems[lo:min(lo+step, len(elems))]
		if other.rep == RepSegmented {
			k, touch := probe(blk, other, tail(dst, n), emit, st)
			n += k
			l.touch += touch
			continue
		}
		for _, x := range blk {
			if other.Contains(x) {
				n = put(dst, emit, n, x)
			}
		}
	}
	return n, nil
}

// denseProbeRun walks a dense set's words and probes the decoded elements,
// probeBlock at a time, against other through probeRun; results are
// ascending. With ck non-nil it runs in ctxWordBlock word blocks.
func (l *lane) denseProbeRun(ck checkpoint, den, other *Set, dst []uint32, emit Visitor) (int, error) {
	var blk [probeBlock]uint32
	n, k := 0, 0
	words := den.dense
	step := stride(ck, ctxWordBlock, len(words))
	for lo := 0; lo < len(words); lo += step {
		if err := stop(ck); err != nil {
			return 0, err
		}
		for wi := lo; wi < min(lo+step, len(words)); wi++ {
			for w := words[wi]; w != 0; w &= w - 1 {
				blk[k] = den.base + uint32(wi)<<6 + uint32(simd.Tzcnt64(w))
				if k++; k == len(blk) {
					m, _ := l.probeRun(nil, blk[:], other, tail(dst, n), emit, l.st)
					n, k = n+m, 0
				}
			}
		}
	}
	m, _ := l.probeRun(nil, blk[:k], other, tail(dst, n), emit, l.st)
	return n + m, nil
}

// arrayArrayRun intersects two sorted arrays with the small-set kernels
// (simd.CountSmall, simd.IntersectSmall), which run a SIMD body when one
// side fits a register and a scalar merge otherwise; a Visitor streams from
// the scalar merge. Results are ascending. With ck non-nil a's elements merge
// in ctxProbeBlock blocks, each against the run of b up to the block's last
// element.
func arrayArrayRun(ck checkpoint, a, b *Set, dst []uint32, emit Visitor) (int, error) {
	xa, xb := a.reordered, b.reordered
	n, j := 0, 0
	step := stride(ck, ctxProbeBlock, len(xa))
	for lo := 0; lo < len(xa); lo += step {
		if err := stop(ck); err != nil {
			return 0, err
		}
		ba := xa[lo:min(lo+step, len(xa))]
		end := len(xb)
		if lo+step < len(xa) {
			// ba's last element is not the array's maximum, so +1 cannot wrap.
			end, _ = slices.BinarySearch(xb, ba[len(ba)-1]+1)
		}
		bb := xb[j:end]
		j = end
		switch {
		case emit != nil:
			n += visitSorted(ba, bb, emit)
		case dst != nil:
			n += simd.IntersectSmall(dst[n:], ba, bb)
		default:
			n += simd.CountSmall(ba, bb)
		}
	}
	return n, nil
}

// visitSorted streams a ∩ b of two sorted lists through emit in ascending
// order by a scalar two-pointer merge and returns the match count.
func visitSorted(a, b []uint32, emit Visitor) (n int) {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch av, bv := a[i], b[j]; {
		case av < bv:
			i++
		case av > bv:
			j++
		default:
			emit(av)
			n++
			i++
			j++
		}
	}
	return n
}

// denseDenseRun intersects two dense bitmaps: the overlapping word window
// (bases are 64-aligned, so overlap is word-aligned with no shifting) is
// ANDed via simd.AndWords into the caller's scratch, then popcounted or
// decoded. Results are ascending. With ck non-nil the window runs in
// ctxWordBlock blocks.
func denseDenseRun(ck checkpoint, denseAnd *[]uint64, a, b *Set, dst []uint32, emit Visitor) (int, error) {
	lo, wa, wb, nw := denseOverlap(a, b)
	n := 0
	step := stride(ck, ctxWordBlock, nw)
	for off := 0; off < nw; off += step {
		if err := stop(ck); err != nil {
			return 0, err
		}
		cn := min(step, nw-off)
		buf := growU64(*denseAnd, cn)
		*denseAnd = buf
		if simd.AndWords(buf, a.dense[wa+off:wa+off+cn], b.dense[wb+off:wb+off+cn]) == 0 {
			continue
		}
		for wi, w := range buf {
			if dst == nil && emit == nil {
				n += bits.OnesCount64(w)
				continue
			}
			for ; w != 0; w &= w - 1 {
				n = put(dst, emit, n, lo+uint32(off+wi)<<6+uint32(simd.Tzcnt64(w)))
			}
		}
	}
	return n, nil
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

// kwaySeed picks the set a k-way probe chain materializes first: the
// smallest, the first of equals on a tie.
func kwaySeed(sets []*Set) int {
	sm := 0
	for i, s := range sets {
		if s.n < sets[sm].n {
			sm = i
		}
	}
	return sm
}
