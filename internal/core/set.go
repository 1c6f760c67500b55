// Package core implements FESIA (ICDE 2020): the segmented-bitmap set data
// structure and the two-step intersection algorithm with specialized SIMD
// kernels.
//
// A Set is built offline from a collection of 32-bit integers (Section
// III-B): elements are hashed into an m-bit bitmap (m a power of two,
// m ≈ n·√w by default), bits are grouped into s-bit segments, and the
// elements are stored segment-by-segment (sorted within each segment) in a
// reordered array. The paper's Fig. 1 keeps per-segment Size and Offset
// arrays beside it; here a segment's bounds come from a rank directory of
// 8 bytes per bitmap word (span): the elements stored before the word,
// plus the word's set bits below the segment, plus the few hash collisions
// below it, which each word records in 4-bit prefixes. A set whose
// collisions overflow a prefix keeps the nseg+1 u32 offsets instead.
//
// Intersections then run in two steps (Section III-C): a bitmap-level AND
// prunes segments with no common bits, and small-set kernels
// (simd.CountSmall, simd.IntersectSmall) intersect the element lists of the
// surviving segment pairs. The expected work is O(n/√w + r) (Proposition 1).
//
// The package also provides the paper's extensions: k-way intersection
// (Section VI, O(kn/√w + r)), the hash-probe strategy for dramatically
// skewed inputs (FESIAhash, O(min(n1, n2))), an adaptive strategy switch,
// and multicore parallel intersection by bitmap partitioning.
package core

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"unsafe"

	"fesia/internal/bitmap"
	"fesia/internal/hashutil"
	"fesia/internal/simd"
	"fesia/internal/stats"
)

// Rep identifies a set's physical representation. A corpus may freely mix
// representations: every intersection path accepts any (Rep × Rep) pair via
// the cross-representation dispatch matrix in hybrid.go.
type Rep uint8

const (
	// RepSegmented is the FESIA segmented-bitmap structure of the paper's
	// Fig. 1 — the right layout for large sets of moderate density, where
	// the bitmap filter prunes most segment pairs.
	RepSegmented Rep = iota
	// RepArray stores the elements as a plain sorted []uint32 — 4 bytes per
	// element with zero metadata, the right layout for tiny or very sparse
	// sets where segmented-bitmap overhead (~5x the element bytes at the
	// default scale) dominates.
	RepArray
	// RepDense stores a plain bitmap over the set's value span — the right
	// layout when elements are packed densely enough that one bit per span
	// position beats four bytes per element, and intersection collapses to
	// word-AND + popcount.
	RepDense
	numReps
	// RepAuto (build-time only, never the representation of a built set)
	// selects per set by the density/size heuristic in chooseRep.
	RepAuto Rep = 0xff
)

// String returns the representation's stable external name.
func (r Rep) String() string {
	switch r {
	case RepSegmented:
		return "segmented"
	case RepArray:
		return "array"
	case RepDense:
		return "dense"
	case RepAuto:
		return "auto"
	}
	return "invalid"
}

// Representation-selection heuristic thresholds (RepAuto).
const (
	// ArrayMaxLen: sets at or below this size take the array representation.
	// A segmented bitmap at the default m = n·√w scale costs ~8-12 bytes per
	// element (2-4 in bitmap words, 2-4 in its rank directory, 4 in
	// elements); a sorted array costs 4. Below this size the bitmap filter
	// has nothing to amortize against.
	ArrayMaxLen = 256
	// DenseMaxBitsPerElem: sets whose value span is at most this many bits
	// per element take the dense-bitmap representation. At 16 bits per
	// element the dense bitmap is at most 2 bytes per element — half the
	// array representation, an order of magnitude under segmented — and the
	// intersection is a straight word-AND.
	DenseMaxBitsPerElem = 16
)

// chooseRep picks a representation for a sorted, deduplicated element list.
// A forced choice other than RepAuto is honored as-is, with one exception:
// the dense bitmap has no encoding for the empty set (its canonical cover
// requires at least one set bit), so empty sets forced dense become arrays,
// as do empty sets under RepAuto.
func chooseRep(sorted []uint32, force Rep) Rep {
	if len(sorted) == 0 {
		if force == RepSegmented {
			return RepSegmented
		}
		return RepArray
	}
	if force != RepAuto {
		return force
	}
	if len(sorted) <= ArrayMaxLen {
		return RepArray
	}
	span := uint64(sorted[len(sorted)-1]) - uint64(sorted[0]) + 1
	if span <= uint64(len(sorted))*DenseMaxBitsPerElem {
		return RepDense
	}
	return RepSegmented
}

// Config controls how a Set is built. Sets that will be intersected together
// must be built with identical SegBits and Seed; bitmap sizes may differ
// (they are reconciled via the power-of-two wrapping rule), and so may Width
// and Scale, which only size the bitmap. Representations may differ freely
// across sets of one corpus.
type Config struct {
	// Width is the paper's vector width w (SSE, AVX, AVX512). It sets the
	// default Scale, √w bitmap bits per element, and is recorded in
	// snapshots; the query path's small-set kernels are chosen at run time
	// by internal/simd, not by Width. Default: AVX.
	Width simd.Width

	// SegBits is the segment size s in bits: 8, 16 or 32. Smaller segments
	// mean more, smaller segment intersections (see Fig. 14). Default: 8.
	SegBits int

	// Scale is the number of bitmap bits per element before rounding m up
	// to a power of two. The paper's analysis picks m = n·√w; 0 means use
	// √Width. Fig. 14 sweeps this knob.
	Scale float64

	// Seed salts the universal hash function.
	Seed uint64

	// Rep selects the per-set representation. The zero value RepSegmented
	// builds the paper's segmented bitmap for every set (the historical
	// behavior); RepAuto picks segmented / array / dense per set by the
	// density/size heuristic (chooseRep), and RepArray / RepDense force one
	// representation for every set — the explicit override knob. Rep is a
	// build-time knob only: it is not serialized (snapshots record each
	// set's actual representation instead) and is ignored by compatible().
	Rep Rep
}

// DefaultConfig returns the configuration used throughout the paper's main
// experiments: AVX-256, 8-bit segments, m = n·√w.
func DefaultConfig() Config {
	return Config{Width: simd.WidthAVX, SegBits: 8, Scale: 0, Seed: 0}
}

// normalize validates cfg and fills defaults.
func (c Config) normalize() (Config, error) {
	if c.Width == 0 {
		c.Width = simd.WidthAVX
	}
	if !c.Width.Valid() {
		return c, fmt.Errorf("core: invalid width %d", c.Width)
	}
	if c.SegBits == 0 {
		c.SegBits = 8
	}
	ok := false
	for _, s := range bitmap.SupportedSegBits {
		if s == c.SegBits {
			ok = true
		}
	}
	if !ok {
		return c, fmt.Errorf("core: unsupported segment size %d", c.SegBits)
	}
	if c.Scale == 0 {
		c.Scale = math.Sqrt(float64(c.Width.Bits()))
	}
	if c.Scale <= 0 || math.IsNaN(c.Scale) || math.IsInf(c.Scale, 0) {
		return c, fmt.Errorf("core: invalid bitmap scale %v", c.Scale)
	}
	if c.Rep >= numReps && c.Rep != RepAuto {
		return c, fmt.Errorf("core: invalid representation %d", c.Rep)
	}
	return c, nil
}

// Set is an immutable FESIA set in one of three physical representations:
// the paper's segmented bitmap (Fig. 1), a plain sorted array, or a dense
// bitmap over the value span. The representation is chosen at build time
// (Config.Rep); every intersection path accepts any representation pair.
// Sets are safe for concurrent reads.
//
// The header is 32 bytes and holds no slice: it addresses the set's region
// of its build's one arena by a u32 word offset, and a few inlined
// accessors derive the region's parts from it (region, elems, denseWords).
// A segmented set's region is its bitmap words, their rank directory (two
// uint32s per word) and its reordered elements, back to back; an array
// set's is its sorted elements, a dense set's its words. Every field a pair
// step reads sits in the header, so a candidate of a batch costs one header
// line before its region.
type Set struct {
	build  *buildState // the build's configuration, hasher, arena and kept offsets
	at     uint32      // the region's first arena word
	n      uint32      // distinct elements
	maxSeg uint32      // largest segment size, for scratch buffer sizing
	// base is a dense set's smallest value rounded down to a word: bit i of
	// its words is set iff base+i is an element. The first and last words
	// are non-zero (canonical minimal cover).
	base uint32
	// aux is a dense set's word count; for a segmented set, 0 when its
	// segment bounds come from the rank directory, else one more than the
	// index of its kept offsets in build.offsets.
	aux  uint32
	rep  Rep
	logW uint8 // log2 of a segmented set's bitmap word count
}

// buildState is the state every set of one build shares: one per BuildSets
// or ReadCorpus call, one per NewSet or ReadSet. It holds the configuration
// and its hasher, the arena of the sets' regions, and the offsets of the
// sets whose collision surplus overflows the rank directory. compatible
// passes two sets that share one at once.
type buildState struct {
	cfg    Config
	hasher hashutil.Hasher
	// arena holds the sets' regions in input order, then one guard word, so
	// the end of any region, an empty one at the arena's end included, is
	// an address inside the allocation.
	arena   []uint64
	offsets [][]uint32 // each overflowing set's nseg+1 segment starts
}

// NewSet builds a Set from elems. The input may be unsorted and contain
// duplicates; it is copied, sorted, and deduplicated. NewSet returns an
// error only for invalid configurations. It is BuildSets of one list, so the
// set's storage is one region of its own arena.
func NewSet(elems []uint32, cfg Config) (*Set, error) {
	sets, err := BuildSets([][]uint32{elems}, cfg)
	if err != nil {
		return nil, err
	}
	return sets[0], nil
}

// NewSetBatch builds one Set per input list with all backing storage packed
// into a shared arena. It is kept as a compatibility alias for BuildSets.
func NewSetBatch(lists [][]uint32, cfg Config) ([]*Set, error) {
	return BuildSets(lists, cfg)
}

// BuildSets constructs a whole corpus of Sets into ONE contiguous backing
// allocation: for each set, its 64-bit word region (segmented-bitmap words
// then their rank directory, or dense-bitmap words), then its uint32 region
// (the reordered elements of segmented sets, the sorted element array of
// array sets) padded to word alignment, laid out back to back in input
// order (layout). A segmented set whose hash collisions overflow the
// directory keeps its offsets in the build (Set.bounds). The 32-byte set
// headers share one slab beside it. A workload that intersects one query
// against many small candidate sets — per-vertex neighbor lists in triangle
// counting, per-keyword posting lists in an inverted index — then walks two
// allocations in candidate order instead of chasing pointers per set. Each
// set's representation follows cfg.Rep (heuristic per set under RepAuto).
// The sets behave exactly like NewSet's; note that every set keeps the whole
// arena alive, so release all sets of a batch together. An arena past
// maxArenaWords is an error.
func BuildSets(lists [][]uint32, cfg Config) ([]*Set, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	if len(lists) == 0 {
		return []*Set{}, nil
	}
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	buf := make([]uint32, total) // every sorted copy, back to back
	sortedLists := make([][]uint32, len(lists))
	metas := make([]setMeta, len(lists))
	maxSegs := 0 // the most segments of any segmented set
	for i, l := range lists {
		sorted := sortDedup(buf[:len(l):len(l)], l)
		buf = buf[len(l):]
		sortedLists[i] = sorted
		m := setMeta{rep: chooseRep(sorted, cfg.Rep), n: len(sorted)}
		switch m.rep {
		case RepSegmented:
			m.mBits = bitmapBits(len(sorted), cfg.Scale)
			maxSegs = max(maxSegs, int(m.mBits)/cfg.SegBits)
		case RepDense:
			var nwords int
			m.base, nwords = denseLayout(sorted)
			m.mBits = uint64(nwords) * 64
		}
		metas[i] = m
	}
	slab, err := layout(cfg, metas)
	if err != nil {
		return nil, err
	}
	var cur []uint32 // fill's cursor scratch
	if maxSegs > 0 {
		cur = make([]uint32, maxSegs+1)
	}
	sets := make([]*Set, len(lists))
	for i, sorted := range sortedLists {
		s := &slab[i]
		switch s.rep {
		case RepArray:
			copy(s.elems(), sorted)
			statsInc(stats.CtrBuildArray)
		case RepDense:
			fillDense(s.denseWords(), s.base, sorted)
			statsInc(stats.CtrBuildDense)
		default:
			s.fill(sorted, cur)
			statsInc(stats.CtrBuildSegmented)
		}
		sets[i] = s
	}
	return sets, nil
}

// maxArenaWords is the largest arena one build may have, 2^32-1 64-bit
// words (32 GiB), so that every region's u32 word offset, its end included,
// fits its header.
const maxArenaWords = math.MaxUint32

// checkArena returns an error for a build whose arena of words 64-bit words
// is past maxArenaWords. BuildSets and ReadCorpus both run it.
func checkArena(words uint64) error {
	if words > maxArenaWords {
		return fmt.Errorf("core: arena of %d words exceeds the %d a set header addresses", words, uint64(maxArenaWords))
	}
	return nil
}

// layout lays out one build of the sets metas describe: it sizes their
// regions, back to back in input order, checks the arena (checkArena),
// allocates it zeroed with its guard word, and returns one header per set,
// in one slab, addressing its region. The caller fills the regions.
func layout(cfg Config, metas []setMeta) ([]Set, error) {
	words := uint64(0)
	for _, m := range metas {
		if uint64(m.n) > math.MaxUint32 {
			return nil, fmt.Errorf("core: a set of %d elements overflows its header's u32 count", m.n)
		}
		words += arenaWords(m.rep, uint64(m.n), m.mBits)
	}
	if err := checkArena(words); err != nil {
		return nil, err
	}
	b := &buildState{cfg: cfg, hasher: hashutil.New(cfg.Seed), arena: make([]uint64, words+1)}
	slab := make([]Set, len(metas))
	at := uint64(0)
	for i, m := range metas {
		slab[i] = Set{build: b, at: uint32(at), n: uint32(m.n), rep: m.rep}
		switch m.rep {
		case RepSegmented:
			slab[i].logW = uint8(bits.TrailingZeros64(m.mBits / 64))
		case RepDense:
			slab[i].base, slab[i].aux = m.base, uint32(m.mBits/64)
		}
		at += arenaWords(m.rep, uint64(m.n), m.mBits)
	}
	return slab, nil
}

// arenaWords returns one set's arena footprint in 64-bit words: mBits/64
// bitmap or dense words, then a segmented set's rank directory (one word per
// bitmap word), then the uint32 elements (n for segmented and array sets)
// rounded up to a whole word. mBits is 0 for array sets.
func arenaWords(rep Rep, n, mBits uint64) uint64 {
	switch rep {
	case RepArray:
		return (n + 1) / 2
	case RepDense:
		return mBits / 64
	}
	return 2*(mBits/64) + (n+1)/2 // words + directory + reordered
}

// start is the address of the set's first arena word.
func (s *Set) start() unsafe.Pointer {
	return unsafe.Add(unsafe.Pointer(unsafe.SliceData(s.build.arena)), uintptr(s.at)*8)
}

// region returns a segmented set's bitmap words, their rank directory (two
// uint32s per word; read it only when hasDirectory) and its reordered
// elements, which lie back to back in its arena region. Each hot loop
// derives them once per pair, in its own frame. The arena cap keeps a
// bitmap under 2^31 words; the mask says so to the compiler.
func (s *Set) region() (words []uint64, dir, elems []uint32) {
	nw := uint(1) << (s.logW & 31)
	p := s.start()
	return (*[partWords]uint64)(p)[:nw:nw],
		(*[2 * partWords]uint32)(unsafe.Add(p, 8*nw))[: 2*nw : 2*nw],
		(*[2 * partWords]uint32)(unsafe.Add(p, 16*nw))[:s.n:s.n]
}

// partWords bounds the arrays the accessors slice a region's parts from:
// the arena cap on 64-bit hosts, and on 32-bit ones the most that fits the
// address space. Slicing a region from an array pointer bounds it by the
// header's lengths alone, and under checkptr checks just those elements.
const partWords = min(maxArenaWords, math.MaxInt/16)

// elems returns the elements of a segmented set (its reordered array) or
// of an array set (ascending). Dense sets store none.
func (s *Set) elems() []uint32 {
	var skip uint // a segmented set's words and directory
	if s.rep == RepSegmented {
		skip = 16 << (s.logW & 31)
	}
	return (*[2 * partWords]uint32)(unsafe.Add(s.start(), skip))[:s.n:s.n]
}

// denseWords returns a dense set's words.
func (s *Set) denseWords() []uint64 { return (*[partWords]uint64)(s.start())[:s.aux:s.aux] }

// asBitmap returns a segmented set's bitmap as a bitmap.Bitmap value over its
// arena words, for the k-way AND.
func (s *Set) asBitmap() bitmap.Bitmap {
	words, _, _ := s.region()
	return bitmap.NewFromWords(words, s.mBits(), s.segBits())
}

// segBits is the build's segment size s in bits.
func (s *Set) segBits() int { return s.build.cfg.SegBits }

// nwords is a segmented set's bitmap word count.
func (s *Set) nwords() int { return 1 << s.logW }

// mBits is a segmented set's bitmap size m in bits.
func (s *Set) mBits() uint64 { return 64 << s.logW }

// numSegments is a segmented set's segment count m/s.
func (s *Set) numSegments() int { return int(s.mBits()) / s.segBits() }

// sortDedup copies elems into dst, which must be as long, sorts and
// deduplicates the copy, and returns its distinct prefix.
func sortDedup(dst, elems []uint32) []uint32 {
	copy(dst, elems)
	slices.Sort(dst)
	return slices.Compact(dst)
}

// bitmapBits returns m = nextPow2(n·scale), at least one word.
func bitmapBits(n int, scale float64) uint64 {
	mBits := hashutil.NextPow2(uint64(math.Ceil(float64(n) * scale)))
	if mBits < 64 {
		mBits = 64
	}
	return mBits
}

// denseLayout computes the canonical dense-bitmap cover of a non-empty
// sorted element list: base is the smallest element rounded down to a word
// boundary, nwords the minimal word count reaching the largest element.
func denseLayout(sorted []uint32) (base uint32, nwords int) {
	base = sorted[0] &^ 63
	nwords = int(sorted[len(sorted)-1]-base)>>6 + 1
	return base, nwords
}

// fillDense sets one bit per element into a zeroed word slice laid out by
// denseLayout.
func fillDense(words []uint64, base uint32, sorted []uint32) {
	for _, v := range sorted {
		idx := v - base
		words[idx>>6] |= 1 << (idx & 63)
	}
}

// fill populates a segmented set's zeroed region — the bitmap, the
// reordered elements and the segment bounds — from a sorted duplicate-free
// element list. cur is the build's cursor scratch, at least nseg+1 long: it
// first counts each segment, then holds each segment's end, and placing the
// elements in descending order while decrementing their segment's end
// leaves every cursor at its segment's start and every segment ascending,
// as the paper requires. The bounds are then indexed from the starts.
func (s *Set) fill(sorted []uint32, cur []uint32) {
	words, _, elems := s.region()
	mBits := s.mBits()
	shift := segShift(s)
	nseg := s.numSegments()
	h := s.build.hasher
	cur = cur[:nseg+1]
	clear(cur)
	for _, x := range sorted {
		pos := h.Pos(x, mBits)
		words[pos>>6] |= 1 << (pos & 63)
		cur[pos>>shift]++
	}
	sum := uint32(0)
	for i, c := range cur[:nseg] {
		s.maxSeg = max(s.maxSeg, c)
		sum += c
		cur[i] = sum
	}
	cur[nseg] = sum
	for i := len(sorted) - 1; i >= 0; i-- {
		x := sorted[i]
		seg := h.Pos(x, mBits) >> shift
		cur[seg]--
		elems[cur[seg]] = x
	}
	s.index(cur)
}

// maxSurplus is the largest surplus a rank directory nibble holds.
const maxSurplus = 15

// index sets the segment bounds from off, the nseg+1 segment starts of a
// consistent shell (every set bit has an element behind it, so a word's
// surplus only grows from bit to bit): it derives the rank directory into
// the set's region (see span), or, when some word stores more than
// maxSurplus elements beyond its set bits, keeps a copy of off in the build
// and points the header at it.
func (s *Set) index(off []uint32) {
	words, dir, _ := s.region()
	segBits := s.segBits()
	spw := 64 / segBits
	for w, word := range words {
		base := off[w*spw]
		extra := off[(w+1)*spw] - base - uint32(bits.OnesCount64(word))
		if extra > maxSurplus {
			b := s.build
			b.offsets = append(b.offsets, slices.Clone(off))
			s.aux = uint32(len(b.offsets))
			return
		}
		sur := extra << 28 // nibble 7: the surplus below bit 64
		for j := 1; extra > 0 && j < spw; j++ {
			k := j * segBits // the bit just past segment j-1 of the word
			sur |= (off[w*spw+j] - base - uint32(bits.OnesCount64(word<<(64-k)))) << (k/2 - 4)
		}
		dir[2*w], dir[2*w+1] = base, sur
	}
}

// hasDirectory reports whether a segmented set's bounds come from the rank
// directory in its region rather than from the nseg+1 offsets it keeps in
// the build. The hot loops test it once per call and read a directory
// through span; a set that keeps its offsets takes their plain loops, which
// read bounds.
func (s *Set) hasDirectory() bool { return s.aux == 0 }

// kept returns the nseg+1 offsets a segmented set without a rank directory
// keeps in its build.
func (s *Set) kept() []uint32 { return s.build.offsets[s.aux-1] }

// span returns the range [lo, hi) of a set's reordered elements that holds
// the segment of bitmap word i from bit k to bit end, read from the set's
// rank directory dir; w must be word i. It is the bounds reader of the hot
// loops, which load dir once and call span inlined.
//
// Word i's directory entry is dir[2i], the elements stored before the word,
// and dir[2i+1], whose nibble t holds the word's surplus below bit 8(t+1):
// the elements hashed below that bit beyond the word's set bits below it,
// at most maxSurplus. The elements stored before bit j of the word are then
// dir[2i], plus the set bits below j, plus the surplus below j (none below
// bit 0). Only the nibbles at segment boundaries are read. A segment starts
// at k <= 56 and ends at end <= 64, so no shift below reaches the width of
// its operand; the masks say so to the compiler.
func span(dir []uint32, i, k, end uint, w uint64) (lo, hi uint32) {
	sur, base := dir[2*i+1], dir[2*i]
	return base + uint32(bits.OnesCount64(w&(1<<(k&63)-1))) + sur<<4>>(k/2&31)&maxSurplus,
		base + uint32(bits.OnesCount64(w<<((64-end)&63))) + sur>>((end/2-4)&31)&maxSurplus
}

// bounds returns segment seg's range [lo, hi) of a segmented set's
// reordered elements, from either layout.
func (s *Set) bounds(seg int) (lo, hi uint32) {
	if !s.hasDirectory() {
		off := s.kept()
		return off[seg], off[seg+1]
	}
	words, dir, _ := s.region()
	sb := uint(s.segBits())
	bit := uint(seg) * sb
	return span(dir, bit>>6, bit&63, bit&63+sb, words[bit>>6])
}

// stored returns how many of the set's elements are stored before bitmap
// word i, for i up to the word count: words [lo, hi) hold stored(hi) -
// stored(lo) of them.
func (s *Set) stored(i int) int {
	if i >= s.nwords() {
		return int(s.n)
	}
	lo, _ := s.bounds(i * (64 / s.segBits()))
	return int(lo)
}

// offsets writes the set's nseg+1 segment starts, the snapshot stream's
// offsets section, into buf (grown as needed) and returns them: a copy of
// the offsets an overflowing set keeps, or its directory expanded.
func (s *Set) offsets(buf []uint32) []uint32 {
	if !s.hasDirectory() {
		return append(buf[:0], s.kept()...)
	}
	nseg := s.numSegments()
	buf = growU32(buf, nseg+1)
	for i := range nseg {
		buf[i], _ = s.bounds(i)
	}
	buf[nseg] = s.n
	return buf
}

// MustNewSet is NewSet for known-good configurations; it panics on error.
func MustNewSet(elems []uint32, cfg Config) *Set {
	s, err := NewSet(elems, cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Len returns the number of distinct elements.
func (s *Set) Len() int { return int(s.n) }

// Config returns the normalized build configuration.
func (s *Set) Config() Config { return s.build.cfg }

// Rep returns the set's physical representation.
func (s *Set) Rep() Rep { return s.rep }

// BitmapBits returns the bitmap size in bits: m for segmented sets, the
// covered span for dense sets, 0 for array sets (no bitmap).
func (s *Set) BitmapBits() uint64 {
	switch s.rep {
	case RepArray:
		return 0
	case RepDense:
		return uint64(s.aux) * 64
	}
	return s.mBits()
}

// NumSegments returns m/s for segmented sets and 0 otherwise.
func (s *Set) NumSegments() int {
	if s.rep != RepSegmented {
		return 0
	}
	return s.numSegments()
}

// MaxSegmentLen returns the size of the largest segment list (0 for
// non-segmented sets).
func (s *Set) MaxSegmentLen() int { return int(s.maxSeg) }

// segment returns the sorted element list of segment i.
func (s *Set) segment(i int) []uint32 {
	lo, hi := s.bounds(i)
	return s.elems()[lo:hi]
}

// Segment returns a copy-free view of segment i's sorted elements (segmented
// sets only; nil otherwise). The returned slice must not be modified.
func (s *Set) Segment(i int) []uint32 {
	if s.rep != RepSegmented {
		return nil
	}
	return s.segment(i)
}

// Contains reports whether x is in the set. Segmented sets use the
// single-element probe of the skewed-input strategy: test the bitmap bit,
// then search the one segment the bit selects. Array sets binary-search;
// dense sets test one bit.
func (s *Set) Contains(x uint32) bool {
	switch s.rep {
	case RepArray:
		_, found := slices.BinarySearch(s.elems(), x)
		return found
	case RepDense:
		if x < s.base {
			return false
		}
		idx := x - s.base
		if idx>>6 >= s.aux {
			return false
		}
		return s.denseWords()[idx>>6]&(1<<(idx&63)) != 0
	}
	pos := s.build.hasher.Pos(x, s.mBits())
	if words, _, _ := s.region(); words[pos>>6]&(1<<(pos&63)) == 0 {
		return false
	}
	for _, v := range s.segment(int(pos >> segShift(s))) {
		if v == x {
			return true
		}
		if v > x {
			return false
		}
	}
	return false
}

// Elements returns the set's distinct elements in ascending order (a fresh
// slice).
func (s *Set) Elements() []uint32 {
	if s.rep == RepDense {
		out := make([]uint32, 0, s.n)
		for w, word := range s.denseWords() {
			for word != 0 {
				out = append(out, s.base+uint32(w)<<6+uint32(simd.Tzcnt64(word)))
				word &= word - 1
			}
		}
		return out
	}
	out := append([]uint32(nil), s.elems()...)
	if s.rep == RepSegmented {
		slices.Sort(out)
	}
	return out
}

// MemoryBytes reports the payload bytes the set owns, for the dataset
// tables: bitmap words, plus the rank directory or an overflowing set's
// offsets, plus elements (dense words alone for dense sets). The 32-byte
// header is not counted.
func (s *Set) MemoryBytes() int {
	switch s.rep {
	case RepArray:
		return int(s.n) * 4
	case RepDense:
		return int(s.aux) * 8
	}
	dir := 8 * s.nwords() // two uint32s per bitmap word
	if !s.hasDirectory() {
		dir = 4 * (s.numSegments() + 1)
	}
	return 8*s.nwords() + dir + 4*int(s.n)
}

// Stats summarizes the physical layout of a Set. The segment-level fields
// describe the segmented-bitmap layout — the quantities the Section III-D
// analysis reasons about when choosing m and s — and are zero for the array
// and dense representations.
type Stats struct {
	Rep              Rep     // physical representation
	N                int     // distinct elements
	MemoryBytes      int     // payload bytes (Set.MemoryBytes); the 32-byte header is not counted
	BitmapBits       uint64  // m (segmented) / covered span (dense) / 0 (array)
	SegmentBits      int     // s
	Segments         int     // m/s
	NonEmptySegments int     // segments holding at least one element
	MaxSegmentLen    int     // largest segment list
	MeanOccupied     float64 // mean elements per non-empty segment
	BitDensity       float64 // set bits / bitmap bits (drives false positives)
	// SegmentSizeHist[k] counts segments with exactly k elements, for
	// k < len(SegmentSizeHist); the last bucket aggregates everything
	// at or above its index.
	SegmentSizeHist []int
}

// Stats computes layout statistics (O(m/s) for segmented sets).
func (s *Set) Stats() Stats {
	st := Stats{
		Rep:         s.rep,
		N:           int(s.n),
		MemoryBytes: s.MemoryBytes(),
		BitmapBits:  s.BitmapBits(),
	}
	switch s.rep {
	case RepArray:
		return st
	case RepDense:
		if s.aux > 0 {
			st.BitDensity = float64(s.n) / float64(64*s.aux)
		}
		return st
	}
	st.SegmentBits = s.segBits()
	st.Segments = s.numSegments()
	const histBuckets = 9
	st.SegmentSizeHist = make([]int, histBuckets)
	for i := range st.Segments {
		k := len(s.segment(i))
		if k > 0 {
			st.NonEmptySegments++
			st.MaxSegmentLen = max(st.MaxSegmentLen, k)
		}
		st.SegmentSizeHist[min(k, histBuckets-1)]++
	}
	if st.NonEmptySegments > 0 {
		st.MeanOccupied = float64(s.n) / float64(st.NonEmptySegments)
	}
	words, _, _ := s.region()
	pop := 0
	for _, w := range words {
		pop += bits.OnesCount64(w)
	}
	st.BitDensity = float64(pop) / float64(s.mBits())
	return st
}

// compatible panics unless two sets can be intersected against each other.
// Sets of one build share their buildState and pass at once.
func compatible(a, b *Set) {
	if a.build == b.build {
		return
	}
	if a.build.cfg.Seed != b.build.cfg.Seed {
		panic("core: sets built with different hash seeds")
	}
	if a.build.cfg.SegBits != b.build.cfg.SegBits {
		panic("core: sets built with different segment sizes")
	}
}

// ordered returns the pair with the larger bitmap first, as the merge body
// (merge) requires: it walks the larger bitmap's words and wraps the smaller
// one's.
func ordered(a, b *Set) (large, small *Set) {
	if a.logW >= b.logW {
		return a, b
	}
	return b, a
}
