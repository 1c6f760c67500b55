// Package kernels implements FESIA's specialized segment-intersection kernels
// (Sections V and VI of the paper) on the emulated vector ISA from
// internal/simd.
//
// A kernel is a small function block that intersects two tiny sorted sets
// whose sizes are known (exactly, or as a rounded-up nominal size). Kernels
// are generated ahead of time by cmd/genkernels — the analogue of the paper's
// precompiled kernel library — and dispatched through a flat jump table
// indexed by the control code of Listing 2:
//
//	ctrl = Sa << bits | Sb
//
// Five tables are generated:
//
//	TableSSE        exact kernels, sizes 0..7   (V = 4,  64 entries)
//	TableAVX        exact kernels, sizes 0..15  (V = 8,  256 entries)
//	TableAVX512     exact kernels, sizes 0..31  (V = 16, 1024 entries)
//	TableAVX512S4   stride-4 sampled kernels (Section VI, Table II)
//	TableAVX512S8   stride-8 sampled kernels
//
// Sizes beyond a table's capacity fall through to the scalar generic kernel,
// mirroring the paper's "default: GeneralIntersection()" switch arm.
//
// The tables are the apparatus of Figs 4-6 (ForWidth against GeneralCount)
// and Table II (ForStride, with internal/icachesim). No query reads them:
// internal/core sends each segment pair to simd.CountSmall or
// simd.IntersectSmall, which pick a masked SIMD body or a scalar merge from
// the pair's sizes (DESIGN.md §2).
package kernels

import (
	"fmt"

	"fesia/internal/simd"
)

// CountFunc counts the intersection of two small sorted sets.
type CountFunc func(a, b []uint32) int

// IntersectFunc writes the common elements of two small sorted sets into dst
// and returns how many were written. dst must have room for
// min(len(a), len(b)) elements. Output is in ascending order.
type IntersectFunc func(dst, a, b []uint32) int

// kernelEntry describes one generated kernel for table registration.
type kernelEntry struct {
	sa, sb int
	count  CountFunc
	inter  IntersectFunc
	bytes  int // modelled machine-code size (see cmd/genkernels cost model)
	alias  bool
}

// Table is a jump table of specialized kernels for one ISA width and one
// sampling stride. The zero Table is not usable; tables are built by the
// generated init functions.
type Table struct {
	width  simd.Width
	stride int
	cap    int // maximum true segment size handled (inclusive)
	bits   uint
	round  []uint8 // round[s] = nominal kernel size for true size s
	count  []CountFunc
	inter  []IntersectFunc
	bytes  []int

	numKernels int // real bodies, excluding swap aliases
	codeSize   int // modelled bytes across all entries
}

// Width returns the emulated ISA width the table was generated for.
func (t *Table) Width() simd.Width { return t.width }

// Stride returns the kernel sampling stride (1 = every size pair).
func (t *Table) Stride() int { return t.stride }

// Cap returns the largest true segment size the table handles before falling
// back to the generic kernel.
func (t *Table) Cap() int { return t.cap }

// NumKernels returns the number of distinct kernel bodies (swap aliases,
// which are single jumps, are excluded).
func (t *Table) NumKernels() int { return t.numKernels }

// CodeSize returns the modelled machine-code footprint of the kernel library
// in bytes. See DESIGN.md: this stands in for the paper's Table II "code
// size" column.
func (t *Table) CodeSize() int { return t.codeSize }

// KernelBytes returns the modelled code size of the kernel that true sizes
// (sa, sb) dispatch to, and the nominal control code. It reports ok=false
// when the pair falls through to the generic kernel.
func (t *Table) KernelBytes(sa, sb int) (bytes, ctrl int, ok bool) {
	if sa > t.cap || sb > t.cap {
		return 0, 0, false
	}
	ctrl = int(t.round[sa])<<t.bits | int(t.round[sb])
	return t.bytes[ctrl], ctrl, true
}

// Count returns |a ∩ b| via the specialized kernel for the two sizes, or the
// generic kernel when either exceeds the table capacity.
func (t *Table) Count(a, b []uint32) int {
	sa, sb := len(a), len(b)
	if sa > t.cap || sb > t.cap {
		return GenericCount(a, b)
	}
	return t.count[int(t.round[sa])<<t.bits|int(t.round[sb])](a, b)
}

// Intersect writes a ∩ b into dst (ascending) and returns the count, using
// the specialized kernel for the two sizes. dst needs room for
// min(len(a), len(b)) elements.
func (t *Table) Intersect(dst, a, b []uint32) int {
	sa, sb := len(a), len(b)
	if sa > t.cap || sb > t.cap {
		return GenericIntersect(dst, a, b)
	}
	return t.inter[int(t.round[sa])<<t.bits|int(t.round[sb])](dst, a, b)
}

// Visit streams a ∩ b (ascending) through emit instead of materializing a
// result slice — the sink end of the allocation-free query path. Pairs inside
// the table capacity run the specialized materializing kernel into the
// caller-owned scratch buffer (which needs room for min(len(a), len(b))
// elements) and replay it element-wise; larger pairs stream directly from the
// generic two-pointer merge without touching scratch.
func (t *Table) Visit(scratch, a, b []uint32, emit func(uint32)) {
	sa, sb := len(a), len(b)
	if sa > t.cap || sb > t.cap {
		GenericVisit(a, b, emit)
		return
	}
	n := t.inter[int(t.round[sa])<<t.bits|int(t.round[sb])](scratch, a, b)
	for _, v := range scratch[:n] {
		emit(v)
	}
}

// build populates the table from generated kernel entries. It is called from
// generated init functions.
func (t *Table) build(width simd.Width, capSize, stride int, entries []kernelEntry) {
	t.width = width
	t.cap = capSize
	t.stride = stride

	maxNominal := 0
	for _, e := range entries {
		if e.sa > maxNominal {
			maxNominal = e.sa
		}
		if e.sb > maxNominal {
			maxNominal = e.sb
		}
	}
	t.bits = 0
	for 1<<t.bits <= maxNominal {
		t.bits++
	}

	size := (maxNominal<<t.bits | maxNominal) + 1
	t.count = make([]CountFunc, size)
	t.inter = make([]IntersectFunc, size)
	t.bytes = make([]int, size)
	for _, e := range entries {
		ctrl := e.sa<<t.bits | e.sb
		t.count[ctrl] = e.count
		t.inter[ctrl] = e.inter
		t.bytes[ctrl] = e.bytes
		t.codeSize += e.bytes
		if !e.alias {
			t.numKernels++
		}
	}

	t.round = make([]uint8, capSize+1)
	for s := 0; s <= capSize; s++ {
		n := s
		if stride > 1 {
			n = (s + stride - 1) / stride * stride
		}
		t.round[s] = uint8(n)
		ctrl := n<<t.bits | n
		if t.count[ctrl] == nil {
			panic(fmt.Sprintf("kernels: table %v stride %d missing nominal size %d", width, stride, n))
		}
	}
}

// ForWidth returns the exact (stride-1) kernel table for an ISA width.
func ForWidth(w simd.Width) *Table {
	switch w {
	case simd.WidthSSE:
		return TableSSE
	case simd.WidthAVX:
		return TableAVX
	case simd.WidthAVX512:
		return TableAVX512
	default:
		panic(fmt.Sprintf("kernels: unsupported width %d", w))
	}
}

// ForStride returns the AVX512 table with the given kernel sampling stride
// (1, 4 or 8), reproducing the three configurations of Table II.
func ForStride(stride int) *Table {
	switch stride {
	case 1:
		return TableAVX512
	case 4:
		return TableAVX512S4
	case 8:
		return TableAVX512S8
	default:
		panic(fmt.Sprintf("kernels: no AVX512 table generated for stride %d", stride))
	}
}

// Tables returns every generated table, for exhaustive testing.
func Tables() []*Table {
	return []*Table{TableSSE, TableAVX, TableAVX512, TableAVX512S4, TableAVX512S8}
}

// AsmKernelsActive reports whether the query path's small-set kernels run
// the assembly backend: simd.AsmActive.
func AsmKernelsActive() bool { return simd.AsmActive() }

// ---------------------------------------------------------------------------
// Helpers shared by generated kernels.
// ---------------------------------------------------------------------------

// eqbit returns 1 when x == y and 0 otherwise, without a branch: for
// d = x^y != 0, d|-d has its sign bit set, so the arithmetic shift produces
// all-ones, whose complement's low bit is 0. This is the one-op-per-
// comparison currency every intersection method in this repository uses
// (see the kernelgen package comment).
func eqbit(x, y uint32) uint32 {
	d := x ^ y
	return ^uint32(int32(d|-d)>>31) & 1
}

// scanEq reports (as 0/1) whether x occurs in a, comparing against every
// element branch-free. Strided (sampled) kernels use it for their
// bounds-safe sweep over the smaller side, whose true size is only known at
// run time (Section VI).
func scanEq(a []uint32, x uint32) uint32 {
	var acc uint32
	for _, v := range a {
		acc |= eqbit(v, x)
	}
	return acc
}

// zeroCount is the shared 0-by-anything kernel.
func zeroCount(_, _ []uint32) int { return 0 }

// zeroIntersect is the shared 0-by-anything materializing kernel.
func zeroIntersect(_, _, _ []uint32) int { return 0 }

// ---------------------------------------------------------------------------
// Generic fallback (the paper's "default: GeneralIntersection()" arm).
// ---------------------------------------------------------------------------

// GenericCount counts |a ∩ b| for sorted sets of any size with a scalar
// two-pointer merge.
func GenericCount(a, b []uint32) int {
	i, j, n := 0, 0, 0
	for i < len(a) && j < len(b) {
		av, bv := a[i], b[j]
		if av < bv {
			i++
		} else if av > bv {
			j++
		} else {
			i++
			j++
			n++
		}
	}
	return n
}

// GenericIntersect merges a ∩ b into dst (ascending) for sets of any size.
func GenericIntersect(dst, a, b []uint32) int {
	i, j, n := 0, 0, 0
	for i < len(a) && j < len(b) {
		av, bv := a[i], b[j]
		if av < bv {
			i++
		} else if av > bv {
			j++
		} else {
			dst[n] = av
			n++
			i++
			j++
		}
	}
	return n
}

// GenericVisit streams a ∩ b (ascending) through emit with a scalar
// two-pointer merge, no destination buffer required.
func GenericVisit(a, b []uint32, emit func(uint32)) {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		av, bv := a[i], b[j]
		if av < bv {
			i++
		} else if av > bv {
			j++
		} else {
			emit(av)
			i++
			j++
		}
	}
}

// ---------------------------------------------------------------------------
// General (non-specialized) kernels — the left-hand side of Fig. 2. These are
// the baselines for Figures 4-6: a general V-by-V kernel pads both inputs up
// to multiples of V and performs the complete all-pairs block comparison that
// a specialized kernel would avoid.
// ---------------------------------------------------------------------------

// GeneralCount runs the general (padded, all-pairs) kernel at the given
// width. It produces the same result as GenericCount but performs the
// padded comparison stream of Fig. 2's left-hand side: both inputs are
// rounded up to whole registers of V lanes (short blocks repeat their last
// element) and every block pair undergoes the complete V-by-V comparison.
// Like the specialized kernels, each element comparison costs one branchless
// op, so the specialized/general ratio reflects the comparison counts.
func GeneralCount(w simd.Width, a, b []uint32) int {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	v := w.Lanes()
	if !w.Valid() {
		panic("kernels: unsupported width")
	}
	n := 0
	for jb := 0; jb < len(b); jb += v {
		bEnd := min(jb+v, len(b))
		for ia := 0; ia < len(a); ia += v {
			aEnd := min(ia+v, len(a))
			// Complete V-by-V block comparison, padded slots duplicating
			// the block's last element (matches are OR-idempotent, padded
			// b slots are discarded below).
			for j := jb; j < jb+v; j++ {
				jj := min(j, bEnd-1)
				x := b[jj]
				var acc uint32
				for i := ia; i < ia+v; i++ {
					acc |= eqbit(a[min(i, aEnd-1)], x)
				}
				if j < bEnd {
					n += int(acc)
				}
			}
		}
	}
	return n
}
