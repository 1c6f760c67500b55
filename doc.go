// Package fesia is a Go implementation of FESIA, the fast and SIMD-efficient
// set intersection approach of Zhang, Lu, Spampinato and Franchetti
// (ICDE 2020).
//
// FESIA targets the common case where the intersection of two sets is much
// smaller than the sets themselves (keyword search, common-neighbor queries).
// Each set is preprocessed into a segmented bitmap: elements are hashed into
// an m-bit bitmap (m ≈ n·√w for SIMD width w), every s bits form a segment,
// and elements are stored segment-by-segment in a reordered array.
// Intersection then runs in two steps — a wide bitwise AND over the bitmaps
// prunes segments that cannot intersect, and small kernels intersect the few
// surviving segment pairs: on amd64 a masked AVX2 or AVX-512 routine when one
// side fits a register, a scalar merge otherwise. The expected cost is
// O(n/√w + r) instead of the O(n1 + n2) of merge-based methods.
//
// The paper's size-specialized kernels and their jump tables are generated
// in internal/kernels as branchless scalar code (one op per element
// comparison — the same currency every baseline in this repository uses),
// validated against an emulated vector ISA that serves as their executable
// specification (see internal/simd); they reproduce Figs 4-6 and Table II.
// The bitmap filter runs on native 64-bit words, with AVX2 routines where
// the CPU has them.
//
// # Quick start
//
//	a, _ := fesia.Build([]uint32{1, 4, 15, 21, 32, 34})
//	b, _ := fesia.Build([]uint32{2, 6, 12, 16, 21, 23})
//	common := fesia.Intersect(a, b) // [21]
//
// Sets that will be intersected together must be built with the same
// segment bits and seed; bitmap sizes adapt to each set's cardinality (and
// width, which sets the default scale) and are reconciled automatically.
//
// # Choosing a strategy
//
// IntersectCount picks between the two-step merge (FESIAmerge) and a
// per-element hash probe (FESIAhash) from the input sizes and the ISA rung:
// the hash probe when the smaller set is under 1/4 of the larger, the
// crossover of Fig. 11 in the paper, and on the AVX-512 rung also whenever
// the smaller set holds at least 16 elements, one gathered probe group,
// where a sweep of the shipped arms has the probe ahead. The specific
// strategies are available as MergeCount/HashCount when the adaptive choice
// needs overriding.
//
// # Reproduction harness
//
// cmd/fesiabench regenerates every table and figure of the paper's
// evaluation; see DESIGN.md and EXPERIMENTS.md.
package fesia
