package core

import (
	"fesia/internal/simd"
	"fesia/internal/stats"
)

// The segmented membership probe, Section VI's skewed-input strategy: each
// element of a sorted list hashes to one bit of a segmented set's bitmap, and
// only the elements whose bit is set scan the one segment list the bit
// selects. Every probe into a segmented set calls one entry point, probe: the
// hash arm of pairs and batches, the cross pairs driven by a sorted array or
// a dense set's words, the k-way probe chain's compaction and
// CountHashParallel. It picks its body from the ISA rung and the list length
// only:
//
//   - the direct loop (probeDirect) hashes, tests and scans one element at a
//     time; on the AVX-512 rung the hash and bit test run sixteen elements at
//     a time through the gathered stage (simd.ProbeStage);
//   - the staged body (probeStaged), on the AVX-512 rung for lists of
//     probeStagedMin elements or more, stages each block of probeBlock
//     elements through the gathered stage into survivor records, loads every
//     survivor's segment line back to back (the touch pass), and then scans
//     the records. A block's cache-missing segment loads are then all in
//     flight at once instead of queuing behind the scan's branches: the
//     merge arm's two-pass idea applied to the hash strategy.
//
// Both bodies hand matches to the sink in element order, so the choice
// changes the time a probe takes, never its result.

// probeBlock is the staged body's block: one block's survivor records fit in
// L1 while giving the core dozens of independent segment loads to overlap.
const probeBlock = simd.ProbeStageBlock

// probeStagedMin is the list length from which probe runs the staged body on
// the AVX-512 rung. The committed sweep (BenchmarkProbeArms, make
// probebench, EXPERIMENTS.md) times the staged body against the direct loop
// over lengths 4-8,192 in a memory-bound and two cache-resident regimes
// (staged ÷ direct, medians of 5): 0.94-1.05 at 128-512 elements, 0.95 at
// 512 on the memory-bound lists the staged body exists for, 0.82-1.02 from
// 1,024 on, and 1.04-1.07 at 16 and 1.8-2.2 at 4. Rungs without the
// gathered stage run the direct loop alone: a staged body hashing in scalar
// code read 1.12-1.86× the direct loop on cache-resident lists of every
// length (EXPERIMENTS.md).
const probeStagedMin = 512

// containsCutover is the segment length from which a survivor's scan uses
// the assembly compare-all-lanes probe instead of the scalar early-exit scan
// — two full ymm registers of elements, enough to amortize the masked tail.
const containsCutover = 16

// gatherProbeMaxBits is the largest bitmap the gathered stage can serve:
// survivor positions are compress-stored as uint32 lanes. Bitmaps beyond 4
// Gbit (64 Gi elements at the paper's scale) take the scalar loop.
const gatherProbeMaxBits = 1 << 32

// probe has each of the sorted elems probe the segmented set large, handing
// the matches in elems' order to the sink: dst (when non-nil) receives them,
// emit (when non-nil) streams them. dst may alias elems' prefix, since each
// write lands at or before the element just read. st, when non-nil, receives
// the probe/survivor counters, the hash side's selectivity signal. It returns
// the match count and the staged body's touch value, which callers fold into
// their lane so the touch loads cannot be dead-code-eliminated.
func probe(elems []uint32, large *Set, dst []uint32, emit Visitor, st *stats.Shard) (n int, touch uint32) {
	var survivors int
	if probeStages(len(elems), large) {
		n, survivors, touch = probeStaged(elems, large, dst, emit)
	} else {
		n, survivors = probeDirect(elems, large, dst, emit)
	}
	if st != nil {
		st.Add(stats.CtrHashProbes, uint64(len(elems)))
		st.Add(stats.CtrHashSurvivors, uint64(survivors))
	}
	return n, touch
}

// probeStages reports whether probe runs the staged body for n elements
// probing large: the AVX-512 rung is live and n is at least probeStagedMin.
func probeStages(n int, large *Set) bool {
	return n >= probeStagedMin && gathers(large)
}

// gathers reports whether the gathered stage can probe large: the AVX-512
// rung is live and large's bitmap positions fit the stage's uint32 lanes.
func gathers(large *Set) bool {
	return simd.GatherProbeActive() && large.bm.Bits() <= gatherProbeMaxBits
}

// probeDirect is the direct probe loop. On the AVX-512 rung blocks of up to
// simd.ProbeStageBlock elements are hashed, bitmap-gathered and bit-tested in
// zmm lanes, and only the compress-stored survivors reach the scan; the
// scalar loop takes the rest (all of it on other rungs). The segment slice is
// cached behind a last-segment check: consecutive probes often land in one
// segment, notably when the two bitmaps are the same size, so that the
// probing list's segment order maps runs of elements onto one segment of
// large. It returns the match and survivor counts. The stage's out arrays
// live on the stack (ProbeStage's pointers do not escape), so the warm path
// allocates nothing.
func probeDirect(elems []uint32, large *Set, dst []uint32, emit Visitor) (n, survivors int) {
	lb := &large.bm
	mBits := lb.Bits()
	words := lb.Words()
	shift := segShift(large)
	offs := large.offsets
	reord := large.reordered
	lastSeg := -1
	var segList []uint32
	done := 0
	if len(elems) >= 16 && gathers(large) {
		seed := large.build.hasher.Seed()
		var outE, outP [simd.ProbeStageBlock]uint32
		for done+16 <= len(elems) {
			blk := elems[done:min(done+simd.ProbeStageBlock, len(elems))]
			ns, consumed := simd.ProbeStage(blk, words, seed, mBits-1, outE[:], outP[:])
			done += consumed
			survivors += ns
			for i, x := range outE[:ns] {
				if seg := int(outP[i] >> shift); seg != lastSeg {
					lastSeg = seg
					segList = reord[offs[seg]:offs[seg+1]]
				}
				if member(segList, x) {
					n = put(dst, emit, n, x)
				}
			}
		}
	}
	hasher := large.build.hasher
	for _, x := range elems[done:] {
		pos := hasher.Pos(x, mBits)
		if words[pos>>6]&(1<<(pos&63)) == 0 {
			continue
		}
		survivors++
		if seg := int(pos >> shift); seg != lastSeg {
			lastSeg = seg
			segList = reord[offs[seg]:offs[seg+1]]
		}
		if member(segList, x) {
			n = put(dst, emit, n, x)
		}
	}
	return n, survivors
}

// probeStaged is the staged body: each block of up to probeBlock elements is
// staged, touched and scanned (stageBuf); the sub-16 tail runs the direct
// loop. It returns the match and survivor counts and the touch pass's
// accumulated loads.
func probeStaged(elems []uint32, large *Set, dst []uint32, emit Visitor) (n, survivors int, touch uint32) {
	var sb stageBuf
	done := 0
	for done+16 <= len(elems) {
		ns, consumed := sb.stage(elems[done:min(done+probeBlock, len(elems))], large)
		done += consumed
		survivors += ns
		touch += sb.touch(ns, large)
		n = sb.scan(ns, large, dst, emit, n)
	}
	k, s := probeDirect(elems[done:], large, tail(dst, n), emit)
	return n + k, survivors + s, touch
}

// stageBuf holds one staged block on the stack: the gathered stage's
// surviving elements and their bitmap positions, in element order.
type stageBuf struct{ outE, outP [probeBlock]uint32 }

// stage runs one block of up to probeBlock elements through the gathered
// stage: simd.ProbeStage hashes, gathers and bit-tests its longest
// 16-multiple prefix and compress-stores the survivors. It returns the
// survivor and consumed element counts.
func (sb *stageBuf) stage(blk []uint32, large *Set) (ns, consumed int) {
	lb := &large.bm
	return simd.ProbeStage(blk, lb.Words(), large.build.hasher.Seed(), lb.Bits()-1, sb.outE[:], sb.outP[:])
}

// touch loads the first ns survivors' segment offsets and first segment
// elements back to back, so the scan finds their lines already in flight; a
// survivor's segment is never empty, since its bit was set. The loads' sum
// is returned so they are not dead code.
func (sb *stageBuf) touch(ns int, large *Set) (touch uint32) {
	shift := segShift(large)
	for _, p := range sb.outP[:ns] {
		touch += large.reordered[large.offsets[p>>shift]]
	}
	return touch
}

// scan scans the first ns survivors' segment lists, handing matches to the
// sink. n is the running match count (and dst write cursor); the updated
// count is returned.
func (sb *stageBuf) scan(ns int, large *Set, dst []uint32, emit Visitor, n int) int {
	shift := segShift(large)
	offs, reord := large.offsets, large.reordered
	for i, x := range sb.outE[:ns] {
		seg := sb.outP[i] >> shift
		if member(reord[offs[seg]:offs[seg+1]], x) {
			n = put(dst, emit, n, x)
		}
	}
	return n
}

// segShift is log2 of s's segment size: a bitmap position shifted right by
// it is the position's segment.
func segShift(s *Set) uint { return uint(simd.Tzcnt32(uint32(s.bm.SegBits()))) }

// member reports whether x is in the sorted segment list: simd.Contains —
// the assembly compare-all-lanes probe when the backend is active — for
// lists of containsCutover elements or more, the scalar early-exit scan
// otherwise.
func member(list []uint32, x uint32) bool {
	if len(list) >= containsCutover {
		return simd.Contains(list, x)
	}
	for _, v := range list {
		if v >= x {
			return v == x
		}
	}
	return false
}
