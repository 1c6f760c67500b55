package fesia

import (
	"io"

	"fesia/internal/core"
	"fesia/internal/simd"
)

// Width is the paper's vector width w a set is built for.
type Width = simd.Width

// Supported ISA widths.
const (
	SSE    = simd.WidthSSE
	AVX    = simd.WidthAVX
	AVX512 = simd.WidthAVX512
)

// Rep identifies a set's physical representation. A corpus may freely mix
// representations: every intersection entry point accepts any pair.
type Rep = core.Rep

// Supported representations (see WithRepresentation).
const (
	// RepAuto picks the representation per set by a density/size heuristic:
	// tiny sets become sorted arrays, sets dense in their value span become
	// plain bitmaps, everything else gets the paper's segmented bitmap.
	RepAuto = core.RepAuto
	// RepSegmented forces the FESIA segmented-bitmap structure (Fig. 1) —
	// the default, and the historical behavior.
	RepSegmented = core.RepSegmented
	// RepArray forces the sorted-array representation: 4 bytes per element,
	// intersected with the small-set SIMD kernels.
	RepArray = core.RepArray
	// RepDense forces the dense-bitmap representation: one bit per value in
	// the set's span, intersected by word-AND + popcount. Empty sets fall
	// back to arrays (the dense form has no empty encoding).
	RepDense = core.RepDense
)

// Set is an immutable FESIA set: a segmented bitmap plus the reordered
// element array (Fig. 1 of the paper). Build once, intersect many times;
// Sets are safe for concurrent use.
type Set struct {
	inner *core.Set
}

// Option customizes Build.
type Option func(*core.Config)

// WithWidth sets the paper's vector width w (SSE, AVX, AVX512), which picks
// the default bitmap scale √w and is recorded in snapshots. Default: AVX.
func WithWidth(w Width) Option {
	return func(c *core.Config) { c.Width = w }
}

// WithSegmentBits sets the segment size s in bits (8, 16 or 32). Smaller
// segments shift work from the kernels to the bitmap scan (Fig. 14).
// Default: 8.
func WithSegmentBits(s int) Option {
	return func(c *core.Config) { c.SegBits = s }
}

// WithBitmapScale overrides the bitmap bits-per-element factor (default √w,
// the paper's m = n·√w). Larger bitmaps reduce false-positive segment
// matches at the cost of a longer bitmap scan.
func WithBitmapScale(scale float64) Option {
	return func(c *core.Config) { c.Scale = scale }
}

// WithSeed salts the hash function. Sets intersected together must share a
// seed.
func WithSeed(seed uint64) Option {
	return func(c *core.Config) { c.Seed = seed }
}

// WithRepresentation selects the physical representation: RepSegmented (the
// default), RepArray, RepDense, or RepAuto to pick per set by the
// density/size heuristic. Sets of different representations intersect freely
// with each other — the knob trades memory for intersection strategy, not
// compatibility.
func WithRepresentation(r Rep) Option {
	return func(c *core.Config) { c.Rep = r }
}

// Build preprocesses elems (unsorted, duplicates allowed) into a Set.
func Build(elems []uint32, opts ...Option) (*Set, error) {
	cfg := core.DefaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	s, err := core.NewSet(elems, cfg)
	if err != nil {
		return nil, err
	}
	return &Set{inner: s}, nil
}

// MustBuild is Build for known-good options; it panics on error.
func MustBuild(elems []uint32, opts ...Option) *Set {
	s, err := Build(elems, opts...)
	if err != nil {
		panic(err)
	}
	return s
}

// BuildBatch builds one Set per input list with all backing arrays packed
// into shared arenas. Prefer it when constructing many small sets that will
// be intersected against each other — per-vertex neighbor sets, per-keyword
// posting lists — for better query-time memory locality.
func BuildBatch(lists [][]uint32, opts ...Option) ([]*Set, error) {
	cfg := core.DefaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	inner, err := core.NewSetBatch(lists, cfg)
	if err != nil {
		return nil, err
	}
	return wrapAll(inner), nil
}

// wrapAll wraps a batch of core sets, allocating the wrappers as one slab.
func wrapAll(inner []*core.Set) []*Set {
	slab := make([]Set, len(inner))
	sets := make([]*Set, len(inner))
	for i, s := range inner {
		slab[i].inner = s
		sets[i] = &slab[i]
	}
	return sets
}

// Len returns the number of distinct elements in the set.
func (s *Set) Len() int { return s.inner.Len() }

// Contains reports membership via a single bitmap probe plus one segment
// scan — O(1) expected.
func (s *Set) Contains(x uint32) bool { return s.inner.Contains(x) }

// Elements returns the distinct elements in ascending order.
func (s *Set) Elements() []uint32 { return s.inner.Elements() }

// BitmapBits returns m, the size of the set's bitmap in bits (0 for array
// sets; the span cover for dense sets).
func (s *Set) BitmapBits() uint64 { return s.inner.BitmapBits() }

// Representation returns the set's physical representation — what RepAuto
// actually chose, or the representation that was forced at build time.
func (s *Set) Representation() Rep { return s.inner.Rep() }

// MemoryBytes returns the approximate footprint of the structure.
func (s *Set) MemoryBytes() int { return s.inner.MemoryBytes() }

// Stats reports segmented-bitmap layout statistics (segment occupancy,
// bit density) — the quantities to inspect when tuning WithBitmapScale and
// WithSegmentBits.
type SetStats = core.Stats

// Stats computes layout statistics for the set.
func (s *Set) Stats() SetStats { return s.inner.Stats() }

// WriteTo serializes the set (construction is the expensive offline step;
// the serialized form can be shipped to query servers and loaded with
// ReadSet). It implements io.WriterTo.
func (s *Set) WriteTo(w io.Writer) (int64, error) { return s.inner.WriteTo(w) }

// ReadSet deserializes a Set written by Set.WriteTo, validating structural
// invariants; corrupted input yields an error.
func ReadSet(r io.Reader) (*Set, error) {
	inner, err := core.ReadSet(r)
	if err != nil {
		return nil, err
	}
	return &Set{inner: inner}, nil
}

// WriteCorpus serializes a whole corpus of sets — typically a BuildBatch
// result — into one stream with a trailing whole-file CRC32C checksum. All
// sets must share one build configuration. The corresponding loader is
// ReadCorpus.
func WriteCorpus(w io.Writer, sets []*Set) (int64, error) {
	inner := make([]*core.Set, len(sets))
	for i, s := range sets {
		inner[i] = s.inner
	}
	return core.WriteCorpus(w, inner)
}

// ReadCorpus deserializes a corpus written by WriteCorpus, verifying the
// whole-file checksum before any structural interpretation and rebuilding the
// sets into one contiguous arena (the BuildBatch memory layout). Corruption —
// truncation, bit flips, forged headers — yields an error, never a panic or a
// silently wrong set.
func ReadCorpus(r io.Reader) ([]*Set, error) {
	inner, err := core.ReadCorpus(r)
	if err != nil {
		return nil, err
	}
	return wrapAll(inner), nil
}

// IntersectCount returns |a ∩ b|, choosing between the two-step merge and
// the hash-probe strategy based on the input size ratio (Section VI).
// Compatibility wrapper over a pooled default Executor.
func IntersectCount(a, b *Set) int {
	e := getExecutor()
	defer putExecutor(e)
	return e.IntersectCount(a, b)
}

// Intersect returns a ∩ b in ascending order, as a fresh slice. Callers that
// do not need value order (or a fresh slice) should use IntersectInto or an
// Executor, which skip both the allocation and the sort.
func Intersect(a, b *Set) []uint32 {
	e := getExecutor()
	defer putExecutor(e)
	return e.Intersect(a, b)
}

// IntersectInto writes a ∩ b into dst and returns the number of elements
// written, skipping the allocation and sort of Intersect. dst must have room
// for min(a.Len(), b.Len()) elements. Results are in segment order
// (ascending within each segment, segments in bitmap order of the
// larger-bitmap set for the merge strategy, of the smaller set for the hash
// strategy) — NOT in ascending value order. Compatibility wrapper over a
// pooled default Executor; warm calls perform zero heap allocations.
func IntersectInto(dst []uint32, a, b *Set) int {
	e := getExecutor()
	defer putExecutor(e)
	return e.IntersectInto(dst, a, b)
}

// MergeCount forces the two-step FESIAmerge strategy (Algorithm 1).
func MergeCount(a, b *Set) int { return core.CountMerge(a.inner, b.inner) }

// HashCount forces the per-element FESIAhash strategy, O(min(n1, n2)).
func HashCount(a, b *Set) int { return core.CountHash(a.inner, b.inner) }

// IntersectCountK returns |s1 ∩ ... ∩ sk|, choosing the strategy from the
// set lengths (see Executor.IntersectCountK). Compatibility wrapper over a
// pooled default Executor.
func IntersectCountK(sets ...*Set) int {
	e := getExecutor()
	defer putExecutor(e)
	return e.IntersectCountK(sets...)
}

// IntersectK returns the k-way intersection in ascending order.
// Compatibility wrapper over a pooled default Executor.
func IntersectK(sets ...*Set) []uint32 {
	e := getExecutor()
	defer putExecutor(e)
	return e.IntersectK(sets...)
}

// IntersectCountParallel runs the two-step intersection across `workers`
// parts of the persistent shared worker pool by partitioning the bitmap
// (Section VI, multicore). Compatibility wrapper over a pooled default
// Executor.
func IntersectCountParallel(a, b *Set, workers int) int {
	e := getExecutor()
	defer putExecutor(e)
	return e.IntersectCountParallel(a, b, workers)
}

// IntersectCountKParallel runs the k-way intersection across `workers` parts
// of the persistent shared worker pool. Compatibility wrapper over a pooled
// default Executor.
func IntersectCountKParallel(workers int, sets ...*Set) int {
	e := getExecutor()
	defer putExecutor(e)
	return e.IntersectCountKParallel(workers, sets...)
}

// Breakdown reports the timing of a merge intersection's two steps, each run
// in isolation (Fig. 14).
type Breakdown = core.Breakdown

// IntersectCountBreakdown counts a ∩ b as MergeCount does, but runs the
// paper's two steps apart and times each in isolation: step 1 walks the
// bitmap AND and records the surviving segment pairs, step 2 runs the
// segment kernels over the records. A query runs both steps in one pass, so
// this is Fig. 14's instrumentation, not a profile of a query.
func IntersectCountBreakdown(a, b *Set) Breakdown {
	return core.CountMergeBreakdown(a.inner, b.inner)
}

// HashBreakdown reports per-phase timing of one hash-strategy intersection —
// the skewed-input counterpart of Breakdown.
type HashBreakdown = core.HashBreakdown

// IntersectCountHashBreakdown runs HashCount with per-phase instrumentation
// (branch-free probe staging, read-ahead touch pass, survivor segment scans).
func IntersectCountHashBreakdown(a, b *Set) HashBreakdown {
	return core.CountHashBreakdown(a.inner, b.inner)
}
