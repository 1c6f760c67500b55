package core

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"

	"fesia/internal/bitmap"
	"fesia/internal/datasets"
	"fesia/internal/simd"
	"fesia/internal/stats"
)

// refIntersect is the scalar ground truth.
func refIntersect(a, b []uint32) []uint32 {
	in := make(map[uint32]bool, len(a))
	for _, v := range a {
		in[v] = true
	}
	var out []uint32
	seen := make(map[uint32]bool)
	for _, v := range b {
		if in[v] && !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func randSet(rng *rand.Rand, n int, universe uint32) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = rng.Uint32() % universe
	}
	return out // may contain duplicates; NewSet dedups
}

func sortedCopy(s []uint32) []uint32 {
	out := append([]uint32(nil), s...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TestSetHeaderSize pins the 32-byte header: a build pointer, the region's
// word offset and the lengths the accessors derive its parts from, so every
// field a candidate's pair step reads sits in half a cache line.
func TestSetHeaderSize(t *testing.T) {
	if sz := unsafe.Sizeof(Set{}); sz > 32 {
		t.Errorf("Set header is %d bytes, want at most 32", sz)
	}
}

// hashSegment is the segment of segmented set s that x hashes to.
func hashSegment(s *Set, x uint32) int {
	return int(s.build.hasher.Pos(x, s.mBits()) >> segShift(s))
}

// TestSegmentDirectory checks every segment's bounds against a prefix sum
// of the elements' hash segments, over segment sizes, bitmap scales and list
// lengths, and each set's merge and hash arms against the reference
// intersection with the next set. Both bound layouts are reached: at Scale
// 1 hash collisions overflow some word's surplus nibble, so some set keeps
// its offsets, while at the default scale every set has a rank directory.
// At Scale 1 the 250-element set fills a 4-word bitmap past the nibble and
// keeps its offsets, so its merge with the 17-element set, below
// maskWalkWords, runs the merge body's offsets loop.
func TestSegmentDirectory(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	sizes := []int{0, 1, 8, 17, 250, 300, 5000}
	for _, segBits := range []int{8, 16, 32} {
		for _, scale := range []float64{0, 4, 2, 1} {
			lists := make([][]uint32, len(sizes))
			for i, n := range sizes {
				lists[i] = randSet(rng, n, 1<<24)
			}
			sets, err := BuildSets(lists, Config{SegBits: segBits, Scale: scale})
			if err != nil {
				t.Fatal(err)
			}
			kept := 0 // sets that keep their offsets
			for i, s := range sets {
				if !s.hasDirectory() {
					kept++
				}
				nseg := s.NumSegments()
				start := make([]uint32, nseg+1)
				for _, x := range s.Elements() {
					start[hashSegment(s, x)+1]++
				}
				for seg := range nseg {
					start[seg+1] += start[seg]
				}
				for seg := range nseg {
					if lo, hi := s.bounds(seg); lo != start[seg] || hi != start[seg+1] {
						t.Fatalf("segBits %d scale %v set %d (n=%d, directory %v): segment %d bounds [%d, %d), want [%d, %d)",
							segBits, scale, i, s.Len(), s.hasDirectory(), seg, lo, hi, start[seg], start[seg+1])
					}
				}
			}
			for i, a := range sets {
				b := sets[(i+1)%len(sets)]
				want := len(refIntersect(a.Elements(), b.Elements()))
				if m, h := CountMerge(a, b), CountHash(a, b); m != want || h != want {
					t.Fatalf("segBits %d scale %v sets %d, %d (directory %v, %v): merge %d, hash %d, want %d",
						segBits, scale, i, (i+1)%len(sets), a.hasDirectory(), b.hasDirectory(), m, h, want)
				}
			}
			if scale == 1 && kept == 0 {
				t.Errorf("segBits %d scale 1: no set kept its offsets", segBits)
			}
			if tiny := sets[4]; scale == 1 && (tiny.hasDirectory() || tiny.nwords() >= maskWalkWords) {
				t.Errorf("segBits %d scale 1: the %d-element set has %d words and a directory %v; want a tiny set that keeps its offsets",
					segBits, tiny.Len(), tiny.nwords(), tiny.hasDirectory())
			}
			if scale == 0 && kept > 0 {
				t.Errorf("segBits %d default scale: %d sets kept their offsets", segBits, kept)
			}
		}
	}
}

// TestMemoryBytesCoversArena checks the layout the header offsets rely on,
// on all four construction paths: BuildSets under RepSegmented and RepAuto,
// ReadCorpus of those corpora, and NewSet and ReadSet of each of their sets.
// Per build (assertArenaLayout), the sets share one buildState, their
// regions tile its arena in input order, every part the accessors derive
// lies inside its set's region, and MemoryBytes counts every payload byte
// once.
func TestMemoryBytesCoversArena(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	lists := make([][]uint32, 40)
	for i := range lists {
		n := 1 + rng.Intn(2000)
		switch {
		case i%10 == 9:
			lists[i] = nil // an empty set, with an empty region
		case i%3 == 0:
			lists[i] = randSet(rng, n, uint32(4*n)) // dense under RepAuto
		default:
			lists[i] = randSet(rng, n, 1<<24)
		}
	}
	for _, rep := range []Rep{RepSegmented, RepAuto} {
		cfg := DefaultConfig()
		cfg.Rep = rep
		sets, err := BuildSets(lists, cfg)
		if err != nil {
			t.Fatal(err)
		}
		assertArenaLayout(t, fmt.Sprintf("%v BuildSets", rep), sets)
		read, err := ReadCorpus(bytes.NewReader(corpusBytes(t, sets)))
		if err != nil {
			t.Fatal(err)
		}
		assertArenaLayout(t, fmt.Sprintf("%v ReadCorpus", rep), read)
		hidden, err := ReadCorpus(hideLength{bytes.NewReader(corpusBytes(t, sets))})
		if err != nil {
			t.Fatal(err)
		}
		assertArenaLayout(t, fmt.Sprintf("%v ReadCorpus, length hidden", rep), hidden)
		for i, s := range sets {
			assertArenaLayout(t, fmt.Sprintf("%v NewSet %d", rep, i), []*Set{MustNewSet(lists[i], cfg)})
			var snap bytes.Buffer
			if _, err := s.WriteTo(&snap); err != nil {
				t.Fatal(err)
			}
			one, err := ReadSet(&snap)
			if err != nil {
				t.Fatal(err)
			}
			assertArenaLayout(t, fmt.Sprintf("%v ReadSet %d", rep, i), []*Set{one})
		}
	}
	// A read that cannot tell the stream's length grows the arena as bytes
	// arrive; one whose regions end exactly where an allocation does must
	// still leave room for the guard word.
	exact := make([]uint32, 2*payloadChunk/8) // one array region of payloadChunk bytes
	for i := range exact {
		exact[i] = uint32(i)
	}
	sets, err := BuildSets([][]uint32{exact, nil}, Config{Rep: RepArray})
	if err != nil {
		t.Fatal(err)
	}
	read, err := ReadCorpus(hideLength{bytes.NewReader(corpusBytes(t, sets))})
	if err != nil {
		t.Fatal(err)
	}
	assertArenaLayout(t, "a payloadChunk arena, length hidden", read)
}

// assertArenaLayout checks one build's sets, in input order: they share one
// buildState; their regions tile its arena from word 0 in input order, up
// to its guard word; the parts the accessors derive from each header lie
// inside its region; and, every segmented set having a rank directory at
// the default scale, their MemoryBytes sum to the arena's bytes less each
// region's alignment padding (4 bytes after an odd count of uint32s).
func assertArenaLayout(t *testing.T, name string, sets []*Set) {
	t.Helper()
	b := sets[0].build
	base := uintptr(unsafe.Pointer(unsafe.SliceData(b.arena)))
	at, padding, mem := uint64(0), 0, 0
	for i, s := range sets {
		if s.build != b {
			t.Fatalf("%s: set %d has a buildState of its own", name, i)
		}
		if s.rep == RepSegmented && !s.hasDirectory() {
			t.Fatalf("%s: set %d has no rank directory at the default scale", name, i)
		}
		if uint64(s.at) != at {
			t.Fatalf("%s: set %d region starts at arena word %d, want %d", name, i, s.at, at)
		}
		words := arenaWords(s.rep, uint64(s.n), s.BitmapBits())
		lo, hi := base+8*uintptr(at), base+8*uintptr(at+words)
		for j, p := range regionParts(s) {
			if p[0] < lo || p[1] > hi {
				t.Fatalf("%s: set %d (%v) part %d is arena bytes [%d, %d), outside its region [%d, %d)",
					name, i, s.rep, j, p[0]-base, p[1]-base, lo-base, hi-base)
			}
		}
		at += words
		if s.rep != RepDense && s.n%2 == 1 {
			padding += 4
		}
		mem += s.MemoryBytes()
	}
	if at+1 != uint64(len(b.arena)) {
		t.Fatalf("%s: regions end at word %d of a %d-word arena, want its guard word next", name, at, len(b.arena))
	}
	if mem != 8*int(at)-padding {
		t.Errorf("%s: MemoryBytes sum %d, arena %d bytes less %d of padding", name, mem, 8*at, padding)
	}
}

// TestArenaCap tests the arena cap BuildSets and ReadCorpus share
// (checkArena) at its boundary, and that BuildSets' layout step fails at it
// before it allocates an arena: an arena of maxArenaWords words passes, one
// word more fails, as do sets whose regions sum past the cap and a set of
// more elements than a header's u32 count holds.
func TestArenaCap(t *testing.T) {
	if err := checkArena(maxArenaWords); err != nil {
		t.Errorf("an arena of %d words: %v", uint64(maxArenaWords), err)
	}
	capErr := checkArena(maxArenaWords + 1)
	if capErr == nil {
		t.Fatalf("an arena of %d words passed the cap", uint64(maxArenaWords)+1)
	}
	for _, c := range []struct {
		name  string
		metas []setMeta
		atCap bool // the error must be the cap's
	}{
		{"a 2^31-word bitmap and its directory", []setMeta{{rep: RepSegmented, mBits: 64 << 31}}, true},
		{"two arrays of 2^32-1 elements", []setMeta{{rep: RepArray, n: math.MaxUint32}, {rep: RepArray, n: math.MaxUint32}}, true},
		{"an array of 2^32 elements", []setMeta{{rep: RepArray, n: 1 << 32}}, false},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := layout(DefaultConfig(), c.metas, nil)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: layout passed", c.name)
		} else if c.atCap && err.Error() != capErr.Error() {
			t.Errorf("%s: err = %v, want %v", c.name, err, capErr)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
			t.Errorf("%s: failing layout allocated %d bytes", c.name, alloc)
		}
	}
}

// regionParts returns the address ranges of the parts the accessors derive
// from s's header: a segmented set's words, directory and elements, an
// array set's elements, a dense set's words.
func regionParts(s *Set) [][2]uintptr {
	u64 := func(p []uint64) [2]uintptr {
		a := uintptr(unsafe.Pointer(unsafe.SliceData(p)))
		return [2]uintptr{a, a + 8*uintptr(len(p))}
	}
	u32 := func(p []uint32) [2]uintptr {
		a := uintptr(unsafe.Pointer(unsafe.SliceData(p)))
		return [2]uintptr{a, a + 4*uintptr(len(p))}
	}
	switch s.rep {
	case RepArray:
		return [][2]uintptr{u32(s.elems())}
	case RepDense:
		return [][2]uintptr{u64(s.denseWords())}
	}
	words, dir, elems := s.region()
	return [][2]uintptr{u64(words), u32(dir), u32(elems)}
}

func TestConfigNormalize(t *testing.T) {
	cfg, err := Config{}.normalize()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Width != simd.WidthAVX || cfg.SegBits != 8 {
		t.Errorf("defaults = %+v", cfg)
	}
	if cfg.Scale < 15.9 || cfg.Scale > 16.1 {
		t.Errorf("default scale = %v, want sqrt(256)=16", cfg.Scale)
	}
	bad := []Config{
		{Width: 99},
		{SegBits: 7},
		{Scale: -1},
	}
	for _, c := range bad {
		if _, err := c.normalize(); err == nil {
			t.Errorf("config %+v should be rejected", c)
		}
	}
}

func TestNewSetBasics(t *testing.T) {
	s := MustNewSet([]uint32{5, 3, 5, 9, 3, 1}, DefaultConfig())
	if s.Len() != 4 {
		t.Errorf("Len = %d, want 4 (dedup)", s.Len())
	}
	want := []uint32{1, 3, 5, 9}
	got := s.Elements()
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Elements = %v, want %v", got, want)
		}
	}
	if s.BitmapBits() < 64 || s.BitmapBits()&(s.BitmapBits()-1) != 0 {
		t.Errorf("BitmapBits = %d, want power of two >= 64", s.BitmapBits())
	}
	if s.NumSegments() != int(s.BitmapBits())/8 {
		t.Errorf("NumSegments = %d", s.NumSegments())
	}
	if s.MemoryBytes() <= 0 {
		t.Error("MemoryBytes <= 0")
	}
	for _, v := range want {
		if !s.Contains(v) {
			t.Errorf("Contains(%d) = false", v)
		}
	}
	misses := 0
	for v := uint32(100); v < 200; v++ {
		if s.Contains(v) {
			misses++
		}
	}
	if misses > 0 {
		t.Errorf("Contains reported %d false members", misses)
	}
}

func TestEmptySet(t *testing.T) {
	s := MustNewSet(nil, DefaultConfig())
	if s.Len() != 0 || s.MaxSegmentLen() != 0 {
		t.Errorf("empty set Len=%d maxSeg=%d", s.Len(), s.MaxSegmentLen())
	}
	other := MustNewSet([]uint32{1, 2, 3}, DefaultConfig())
	if CountMerge(s, other) != 0 || CountMerge(other, s) != 0 {
		t.Error("intersection with empty set should be 0")
	}
	if CountHash(s, other) != 0 {
		t.Error("hash intersection with empty set should be 0")
	}
	if Count(s, s) != 0 {
		t.Error("empty ∩ empty should be 0")
	}
}

func TestNewSetRejectsBadConfig(t *testing.T) {
	if _, err := NewSet([]uint32{1}, Config{SegBits: 5}); err == nil {
		t.Error("NewSet should propagate config errors")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustNewSet should panic on bad config")
		}
	}()
	MustNewSet([]uint32{1}, Config{SegBits: 5})
}

// TestSegmentInvariants checks the Fig. 1 structure: segments partition the
// reordered set, every element lands in the segment its hash selects, and
// each segment list is ascending.
func TestSegmentInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, segBits := range []int{8, 16, 32} {
		cfg := DefaultConfig()
		cfg.SegBits = segBits
		s := MustNewSet(randSet(rng, 5000, 1<<22), cfg)
		total := 0
		for seg := 0; seg < s.NumSegments(); seg++ {
			lst := s.Segment(seg)
			total += len(lst)
			for i, v := range lst {
				if i > 0 && lst[i-1] >= v {
					t.Fatalf("segment %d not strictly ascending: %v", seg, lst)
				}
				pos := s.build.hasher.Pos(v, s.BitmapBits())
				if hashSegment(s, v) != seg {
					t.Fatalf("element %d in wrong segment %d", v, seg)
				}
				if bm := s.asBitmap(); !bm.Test(pos) {
					t.Fatalf("bit not set for element %d", v)
				}
			}
		}
		if total != s.Len() {
			t.Fatalf("segments hold %d elements, set has %d", total, s.Len())
		}
	}
}

func TestStats(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	n := 10000
	s := MustNewSet(randSet(rng, n, 1<<24), DefaultConfig())
	st := s.Stats()
	if st.N != s.Len() || st.BitmapBits != s.BitmapBits() || st.Segments != s.NumSegments() {
		t.Fatalf("stats basics wrong: %+v", st)
	}
	if st.SegmentBits != 8 {
		t.Errorf("SegmentBits = %d", st.SegmentBits)
	}
	if st.MaxSegmentLen != s.MaxSegmentLen() {
		t.Errorf("MaxSegmentLen = %d, want %d", st.MaxSegmentLen, s.MaxSegmentLen())
	}
	// Histogram buckets must account for every segment, and the weighted
	// sum of exact buckets must not exceed N.
	total, weighted := 0, 0
	for k, c := range st.SegmentSizeHist {
		total += c
		if k < len(st.SegmentSizeHist)-1 {
			weighted += k * c
		}
	}
	if total != st.Segments {
		t.Errorf("histogram covers %d segments, want %d", total, st.Segments)
	}
	if weighted > st.N {
		t.Errorf("histogram weight %d exceeds N %d", weighted, st.N)
	}
	// With m = 16n the bit density must be near 1/16 (collisions lower it
	// slightly, rounding of m can halve it).
	if st.BitDensity <= 0.02 || st.BitDensity > 0.07 {
		t.Errorf("BitDensity = %v, expected ≈1/16 or slightly below", st.BitDensity)
	}
	if st.MeanOccupied < 1 {
		t.Errorf("MeanOccupied = %v", st.MeanOccupied)
	}
	// Empty set.
	empty := MustNewSet(nil, DefaultConfig())
	est := empty.Stats()
	if est.NonEmptySegments != 0 || est.MeanOccupied != 0 || est.BitDensity != 0 {
		t.Errorf("empty stats: %+v", est)
	}
}

// TestIntersectAllConfigs is the central correctness test: FESIA (merge,
// hash, adaptive, materializing, parallel) against scalar ground truth for
// every width, several segment sizes, scales, and skews.
func TestIntersectAllConfigs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	type variant struct {
		name string
		cfg  Config
	}
	variants := []variant{
		{"SSE", Config{Width: simd.WidthSSE}},
		{"AVX", Config{Width: simd.WidthAVX}},
		{"AVX512", Config{Width: simd.WidthAVX512}},
		{"seg16", Config{SegBits: 16}},
		{"seg32", Config{SegBits: 32}},
		{"denseBitmap", Config{Scale: 2}}, // crowded segments, big kernel sizes
		{"sparseBitmap", Config{Scale: 64}},
	}
	shapes := []struct{ na, nb int }{
		{0, 100}, {1, 1}, {100, 100}, {1000, 1000}, {50, 2000}, {3000, 700},
	}
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			for _, sh := range shapes {
				// Universe chosen so intersections are non-trivial.
				universe := uint32(4 * (sh.na + sh.nb + 10))
				ea := randSet(rng, sh.na, universe)
				eb := randSet(rng, sh.nb, universe)
				want := refIntersect(ea, eb)

				sa := MustNewSet(ea, v.cfg)
				sb := MustNewSet(eb, v.cfg)

				if got := CountMerge(sa, sb); got != len(want) {
					t.Errorf("%s CountMerge(%d,%d) = %d, want %d", v.name, sh.na, sh.nb, got, len(want))
				}
				if got := CountMerge(sb, sa); got != len(want) {
					t.Errorf("%s CountMerge swapped = %d, want %d", v.name, got, len(want))
				}
				if got := CountHash(sa, sb); got != len(want) {
					t.Errorf("%s CountHash = %d, want %d", v.name, got, len(want))
				}
				if got := Count(sa, sb); got != len(want) {
					t.Errorf("%s adaptive Count = %d, want %d", v.name, got, len(want))
				}
				dst := make([]uint32, min(sa.Len(), sb.Len())+1)
				n := IntersectMerge(dst, sa, sb)
				if got := sortedCopy(dst[:n]); len(got) != len(want) {
					t.Errorf("%s IntersectMerge n = %d, want %d", v.name, n, len(want))
				} else {
					for i := range want {
						if got[i] != want[i] {
							t.Errorf("%s IntersectMerge values differ at %d", v.name, i)
							break
						}
					}
				}
				n = IntersectHash(dst, sa, sb)
				if got := sortedCopy(dst[:n]); len(got) != len(want) {
					t.Errorf("%s IntersectHash n = %d, want %d", v.name, n, len(want))
				} else {
					for i := range want {
						if got[i] != want[i] {
							t.Errorf("%s IntersectHash values differ at %d", v.name, i)
							break
						}
					}
				}
				n = Intersect(dst, sa, sb)
				if n != len(want) {
					t.Errorf("%s adaptive Intersect = %d, want %d", v.name, n, len(want))
				}
				for _, workers := range []int{2, 3, 8} {
					if got := CountMergeParallel(sa, sb, workers); got != len(want) {
						t.Errorf("%s CountMergeParallel(%d) = %d, want %d", v.name, workers, got, len(want))
					}
					n = IntersectMergeParallel(dst, sa, sb, workers)
					if got := sortedCopy(dst[:n]); len(got) != len(want) {
						t.Errorf("%s IntersectMergeParallel(%d) = %d, want %d", v.name, workers, n, len(want))
					} else {
						for i := range want {
							if got[i] != want[i] {
								t.Errorf("%s IntersectMergeParallel values differ", v.name)
								break
							}
						}
					}
					if got := CountHashParallel(sa, sb, workers); got != len(want) {
						t.Errorf("%s CountHashParallel(%d) = %d, want %d", v.name, workers, got, len(want))
					}
				}
			}
		})
	}
}

// TestPaperExample1 reproduces the running example of Section III-B/III-C:
// A = {1, 4, 15, 21, 32, 34}, B = {2, 6, 12, 16, 21, 23}; the intersection
// is {21}.
func TestPaperExample1(t *testing.T) {
	a := MustNewSet([]uint32{1, 4, 15, 21, 32, 34}, DefaultConfig())
	b := MustNewSet([]uint32{2, 6, 12, 16, 21, 23}, DefaultConfig())
	if got := CountMerge(a, b); got != 1 {
		t.Errorf("CountMerge = %d, want 1", got)
	}
	dst := make([]uint32, 6)
	if n := IntersectMerge(dst, a, b); n != 1 || dst[0] != 21 {
		t.Errorf("IntersectMerge = %v (n=%d), want [21]", dst[:n], n)
	}
}

// TestDifferentBitmapSizes builds sets of very different cardinalities so
// their bitmaps differ in size, exercising the wrapped comparison of
// Section III-C in both argument orders.
func TestDifferentBitmapSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	big := randSet(rng, 20000, 1<<20)
	small := append([]uint32(nil), big[:40]...) // guaranteed overlap
	small = append(small, randSet(rng, 40, 1<<20)...)

	sb := MustNewSet(big, DefaultConfig())
	ss := MustNewSet(small, DefaultConfig())
	if sb.BitmapBits() == ss.BitmapBits() {
		t.Fatalf("test needs different bitmap sizes, both %d", sb.BitmapBits())
	}
	want := refIntersect(big, small)
	if got := CountMerge(sb, ss); got != len(want) {
		t.Errorf("CountMerge(big, small) = %d, want %d", got, len(want))
	}
	if got := CountMerge(ss, sb); got != len(want) {
		t.Errorf("CountMerge(small, big) = %d, want %d", got, len(want))
	}
	if got := CountHash(ss, sb); got != len(want) {
		t.Errorf("CountHash = %d, want %d", got, len(want))
	}
	// With 80 vs 20000 elements the adaptive strategy must pick the hash path
	// and still be right.
	if !useHash(ss, sb) {
		t.Error("adaptive strategy should pick hash for skew 80/20000")
	}
	if got := Count(ss, sb); got != len(want) {
		t.Errorf("adaptive Count = %d, want %d", got, len(want))
	}
}

func TestCompatibilityPanics(t *testing.T) {
	base := MustNewSet([]uint32{1, 2, 3}, DefaultConfig())
	cases := []Config{
		{Seed: 42},
		{SegBits: 16},
	}
	for _, c := range cases {
		other := MustNewSet([]uint32{1, 2, 3}, c)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("intersecting incompatible sets (%+v) should panic", c)
				}
			}()
			CountMerge(base, other)
		}()
	}
	// Width only sizes the bitmap (its default scale √w), so sets built with
	// different widths intersect like sets of different sizes.
	rng := rand.New(rand.NewSource(9))
	ea, eb, ec := randSet(rng, 3000, 20000), randSet(rng, 2000, 20000), randSet(rng, 2500, 20000)
	want := len(refIntersect(ea, eb))
	wantK := len(refIntersect(refIntersect(ea, eb), ec))
	a := MustNewSet(ea, DefaultConfig())
	for _, w := range []simd.Width{simd.WidthSSE, simd.WidthAVX512} {
		b := MustNewSet(eb, Config{Width: w})
		c := MustNewSet(ec, Config{Width: w})
		for name, got := range map[string]int{
			"CountMerge": CountMerge(a, b), "CountMerge swapped": CountMerge(b, a),
			"CountHash": CountHash(a, b), "Count": Count(a, b),
		} {
			if got != want {
				t.Errorf("width %v: %s = %d, want %d", w, name, got, want)
			}
		}
		if got := CountK(a, b, c); got != wantK {
			t.Errorf("width %v: CountK = %d, want %d", w, got, wantK)
		}
	}
}

// TestKWay checks every k-way entry point against the sorted-slice oracle for
// k = 2..5, with the first set shrunk by skew factors on both sides of
// kwayProbeRatio, and asserts through the stats counters that both arms —
// the Section VI bitmap chain and the probe chain — ran as the rule says.
// Fig. 10's equal-size groups (datasets.GenGroup) must select the chain.
func TestKWay(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	sink := stats.New()
	e := NewExecutor()
	e.EnableStats(sink)
	var wantChain, wantProbe uint64
	check := func(name string, sets []*Set, want []uint32) {
		t.Helper()
		if got := e.CountK(sets...); got != len(want) {
			t.Errorf("%s: CountK = %d, want %d", name, got, len(want))
		}
		dst := make([]uint32, len(want)+8)
		n := e.IntersectK(dst, sets...)
		if !slices.Equal(sortedCopy(dst[:n]), want) {
			t.Fatalf("%s: IntersectK wrote %d elements, want %d (or values differ)", name, n, len(want))
		}
		var visited []uint32
		e.VisitK(func(v uint32) { visited = append(visited, v) }, sets...)
		if !slices.Equal(visited, dst[:n]) {
			t.Errorf("%s: VisitK order differs from IntersectK's", name)
		}
		if got, err := e.CountKCtx(context.Background(), sets...); err != nil || got != len(want) {
			t.Errorf("%s: CountKCtx = %d, %v, want %d", name, got, err, len(want))
		}
		if got := e.CountKParallel(4, sets...); got != len(want) {
			t.Errorf("%s: CountKParallel = %d, want %d", name, got, len(want))
		}
		if len(sets) < 3 {
			return
		}
		if kwayProbe(sets) {
			wantProbe += 5
		} else {
			wantChain += 5
		}
	}
	for k := 2; k <= 5; k++ {
		// Skews 1 and 2 keep the largest under kwayProbeRatio times the
		// smallest; 8 and 32 put it over.
		for _, skew := range []int{1, 2, 8, 32} {
			for trial := 0; trial < 3; trial++ {
				universe := uint32(6000)
				raw := make([][]uint32, k)
				sets := make([]*Set, k)
				common := randSet(rng, 20, universe)
				// Different sizes force different bitmap sizes in the
				// bitmap chain's AND.
				for i := range raw {
					n := 1200 + 200*i
					if i == 0 {
						n /= skew
					}
					raw[i] = append(randSet(rng, n, universe), common...)
					sets[i] = MustNewSet(raw[i], DefaultConfig())
				}
				if k >= 3 && kwayProbe(sets) != (skew >= 8) {
					t.Fatalf("k=%d skew=%d: kwayProbe = %v", k, skew, kwayProbe(sets))
				}
				want := sets[0].Elements()
				for i := 1; i < k; i++ {
					want = refIntersect(want, raw[i])
				}
				check(fmt.Sprintf("k=%d skew=%d trial=%d", k, skew, trial), sets, want)
			}
		}
	}
	for _, d := range []float64{0.1, 0.5, 0.9} {
		for k := 3; k <= 5; k++ {
			lists := datasets.GenGroup(rng, k, 5000, d)
			sets := make([]*Set, k)
			want := lists[0]
			for i, l := range lists {
				sets[i] = MustNewSet(l, DefaultConfig())
				want = refIntersect(want, l)
			}
			if kwayProbe(sets) {
				t.Fatalf("GenGroup(k=%d, density=%.1f): equal-size sets select the probe chain", k, d)
			}
			check(fmt.Sprintf("GenGroup k=%d d=%.1f", k, d), sets, want)
		}
	}
	snap := sink.Snapshot()
	probe := snap.Counter(stats.CtrQueriesKWayProbe)
	chain := snap.Counter(stats.CtrQueriesKWay) - probe
	if probe != wantProbe || chain != wantChain {
		t.Errorf("arms ran chain=%d probe=%d, want chain=%d probe=%d", chain, probe, wantChain, wantProbe)
	}
	if probe == 0 || chain == 0 {
		t.Errorf("an arm never ran: chain=%d probe=%d", chain, probe)
	}
}

func TestCountKParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 5; trial++ {
		k := 3 + rng.Intn(3)
		sets := make([]*Set, k)
		raw := make([][]uint32, k)
		for i := range sets {
			raw[i] = randSet(rng, 300*(i+1), 4000)
			sets[i] = MustNewSet(raw[i], DefaultConfig())
		}
		want := CountK(sets...)
		for _, workers := range []int{1, 2, 4, 16} {
			if got := CountKParallel(workers, sets...); got != want {
				t.Errorf("CountKParallel(%d workers, k=%d) = %d, want %d", workers, k, got, want)
			}
		}
	}
	// Degenerate arities delegate correctly.
	a := MustNewSet([]uint32{1, 2, 3}, DefaultConfig())
	b := MustNewSet([]uint32{2, 3, 4}, DefaultConfig())
	if CountKParallel(4, a) != 3 {
		t.Error("k=1 should return the set size")
	}
	if CountKParallel(4, a, b) != 2 {
		t.Error("k=2 should match CountMerge")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("CountKParallel() should panic")
			}
		}()
		CountKParallel(4)
	}()
}

func TestKWayEdgeCases(t *testing.T) {
	a := MustNewSet([]uint32{1, 2, 3}, DefaultConfig())
	if CountK(a) != 3 {
		t.Error("CountK of one set should be its size")
	}
	b := MustNewSet([]uint32{2, 3, 4}, DefaultConfig())
	if CountK(a, b) != 2 {
		t.Error("CountK of two sets should match CountMerge")
	}
	dst := make([]uint32, 3)
	if n := IntersectK(dst, a); n != 3 {
		t.Error("IntersectK of one set should copy it")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("CountK() should panic")
			}
		}()
		CountK()
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("IntersectK(nil dst) should panic")
			}
		}()
		IntersectK(nil, a, b)
	}()
}

func TestBreakdown(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	ea := randSet(rng, 3000, 40000)
	eb := randSet(rng, 3000, 40000)
	a := MustNewSet(ea, DefaultConfig())
	b := MustNewSet(eb, DefaultConfig())
	bd := CountMergeBreakdown(a, b)
	if bd.Count != CountMerge(a, b) {
		t.Errorf("Breakdown.Count = %d, want %d", bd.Count, CountMerge(a, b))
	}
	if bd.SegPairs < bd.Count {
		t.Errorf("SegPairs %d < Count %d", bd.SegPairs, bd.Count)
	}
	if bd.BitmapTime <= 0 || bd.SegmentTime < 0 {
		t.Errorf("times: bitmap=%v segment=%v", bd.BitmapTime, bd.SegmentTime)
	}
}

func TestHashBreakdown(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	small := MustNewSet(randSet(rng, 1000, 40000), DefaultConfig())
	large := MustNewSet(randSet(rng, 20000, 40000), DefaultConfig())
	want := CountHash(small, large)
	// Every rung: the staged body's phases on the gathered rung, the direct
	// loop as ScanTime with Blocks 0 on the others.
	runTiers(t, func() any {
		bd := CountHashBreakdown(small, large)
		if bd.Count != want {
			t.Errorf("%s: HashBreakdown.Count = %d, want %d", simd.Backend(), bd.Count, want)
		}
		if bd.Probes != small.Len() {
			t.Errorf("%s: Probes = %d, want smaller set's size %d", simd.Backend(), bd.Probes, small.Len())
		}
		if bd.Survivors < bd.Count || bd.Survivors > bd.Probes {
			t.Errorf("%s: Survivors = %d, want in [Count=%d, Probes=%d]", simd.Backend(), bd.Survivors, bd.Count, bd.Probes)
		}
		if probeStages(small.Len(), large) {
			// Full blocks, plus a last block when its 16-multiple prefix is
			// non-empty; the sub-16 tail runs the direct loop.
			wantBlocks := small.Len() / probeBlock
			if small.Len()%probeBlock >= 16 {
				wantBlocks++
			}
			if bd.Blocks != wantBlocks || bd.StageTime <= 0 || bd.TouchTime < 0 || bd.ScanTime < 0 {
				t.Errorf("%s: staged Blocks = %d (want %d), stage=%v touch=%v scan=%v",
					simd.Backend(), bd.Blocks, wantBlocks, bd.StageTime, bd.TouchTime, bd.ScanTime)
			}
		} else if bd.Blocks != 0 || bd.StageTime != 0 || bd.TouchTime != 0 || bd.ScanTime <= 0 {
			t.Errorf("%s: direct Blocks = %d, stage=%v touch=%v scan=%v; want 0, 0, 0 and scan > 0",
				simd.Backend(), bd.Blocks, bd.StageTime, bd.TouchTime, bd.ScanTime)
		}
		// Argument order must not matter (the smaller set always probes).
		if bd2 := CountHashBreakdown(large, small); bd2.Count != want || bd2.Probes != small.Len() {
			t.Errorf("%s: swapped args: Count=%d Probes=%d, want %d, %d", simd.Backend(), bd2.Count, bd2.Probes, want, small.Len())
		}
		return nil
	})
}

func TestHashProbeTrace(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	small := MustNewSet(randSet(rng, 700, 30000), DefaultConfig())
	large := MustNewSet(randSet(rng, 15000, 30000), DefaultConfig())
	trace := HashProbeTrace(small, large)
	if len(trace) != small.Len() {
		t.Fatalf("trace length = %d, want %d", len(trace), small.Len())
	}
	matches, survivors := 0, 0
	for i, p := range trace {
		if p.Match {
			matches++
		}
		if p.Survived {
			survivors++
			if p.SegLen <= 0 {
				t.Fatalf("trace[%d]: survived with SegLen %d", i, p.SegLen)
			}
		} else if p.SegLen != 0 || p.Match {
			t.Fatalf("trace[%d]: filtered probe with SegLen=%d Match=%v", i, p.SegLen, p.Match)
		}
		if want := large.Contains(p.Elem); p.Match != want {
			t.Fatalf("trace[%d]: Match=%v, want %v", i, p.Match, want)
		}
	}
	if want := CountHash(small, large); matches != want {
		t.Errorf("trace matches = %d, want %d", matches, want)
	}
	if bd := CountHashBreakdown(small, large); survivors != bd.Survivors {
		t.Errorf("trace survivors = %d, breakdown says %d", survivors, bd.Survivors)
	}
}

// Property: for arbitrary inputs, merge, hash, adaptive and 2-way CountK all
// agree with ground truth.
func TestStrategiesAgreeQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	f := func(na, nb uint16, seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ea := randSet(r, int(na%2000), 1<<14)
		eb := randSet(r, int(nb%2000), 1<<14)
		want := len(refIntersect(ea, eb))
		a := MustNewSet(ea, DefaultConfig())
		b := MustNewSet(eb, DefaultConfig())
		return CountMerge(a, b) == want &&
			CountHash(a, b) == want &&
			Count(a, b) == want &&
			CountK(a, b) == want
	}
	_ = rng
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestFalsePositiveBound sanity-checks Proposition 1: with m = n·√w the
// expected number of surviving segment pairs is about n/√w + r, so the
// observed count should stay within a small factor of that.
func TestFalsePositiveBound(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	n := 20000
	ea := randSet(rng, n, 1<<28) // essentially disjoint
	eb := randSet(rng, n, 1<<28)
	a := MustNewSet(ea, DefaultConfig())
	b := MustNewSet(eb, DefaultConfig())
	bd := CountMergeBreakdown(a, b)
	r := bd.Count
	// The segment-level grouping makes the bound slightly looser than the
	// per-bit analysis; allow a generous constant.
	bound := 8*float64(n)/16.0 + float64(r) + 100
	if float64(bd.SegPairs) > bound {
		t.Errorf("SegPairs = %d exceeds O(n/√w + r) bound %.0f", bd.SegPairs, bound)
	}
}

// TestKWayFalsePositiveBound sanity-checks Proposition 2: with m = n·√w the
// number of segments surviving the k-way AND is about n/√w^(k-1) + r, far
// below the 2-way survivor count.
func TestKWayFalsePositiveBound(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	n := 20000
	// Essentially disjoint sets: r ≈ 0, so survivors are false positives.
	sets := make([]*Set, 3)
	for i := range sets {
		sets[i] = MustNewSet(randSet(rng, n, 1<<28), DefaultConfig())
	}
	maps := []bitmap.Bitmap{sets[0].asBitmap(), sets[1].asBitmap(), sets[2].asBitmap()}
	survivors := 0
	bitmap.ForEachIntersectingSegmentKRange(maps, 0, len(maps[0].Words()), func(int) { survivors++ })
	// 2-way survivors for comparison: the segment pairs the merge dispatches.
	two := len(DispatchTrace(sets[0], sets[1]))
	if survivors >= two/4 {
		t.Errorf("3-way survivors %d not far below 2-way %d (Proposition 2)", survivors, two)
	}
	// Loose absolute bound: segment-level grouping inflates the per-bit
	// analysis by a constant.
	bound := 8*float64(n)/(16.0*16.0) + 100
	if float64(survivors) > bound {
		t.Errorf("3-way survivors %d exceed O(n/√w²) bound %.0f", survivors, bound)
	}
}

// TestUseHashThreshold pins the static seg×seg rule on every rung: the
// paper's ratio (hash iff small < large/4) everywhere, and on the AVX-512
// rung also every pair whose smaller side holds HashFloor elements.
func TestUseHashThreshold(t *testing.T) {
	mk := func(n int) *Set {
		elems := make([]uint32, n)
		for i := range elems {
			elems[i] = uint32(i) * 7
		}
		return MustNewSet(elems, DefaultConfig())
	}
	f := HashFloor
	cases := []struct {
		small, large     int
		gathered, others bool // the rule's arm (true: hash) on the AVX-512 rung, on the others
	}{
		{0, 0, false, false},
		{1, 1, false, false},
		{f - 1, f - 1, false, false},       // below the floor, ratio 1: merge
		{f - 1, 4 * (f - 1), false, false}, // below the floor, ratio exactly 1/4: merge
		{f - 1, 4*(f-1) + 1, true, true},   // below the floor, ratio under 1/4: hash
		{f, f, true, false},                // at the floor: hash where the stage gathers
		{f, 4 * f, true, false},            // at the floor, ratio exactly 1/4
		{f + 1, 2 * f, true, false},        // above the floor, ratio ~1/2
		{100, 10_000, true, true},          // skew 1/100
		{2500, 10_000, true, false},        // ratio exactly 1/4
		{9000, 10_000, true, false},        // skew ~0.9
		{50_000, 50_000, true, false},      // equal sizes
		{3, 13, true, true},                // tiny, skewed
		{3, 12, false, false},              // tiny, ratio exactly 1/4
	}
	eachRung(t, func(rung string) {
		for _, c := range cases {
			want := c.others
			if rung == "avx512" {
				want = c.gathered
			}
			a, b := mk(c.small), mk(c.large)
			if got := useHash(a, b); got != want || useHash(b, a) != want {
				t.Errorf("%s: useHash(%d, %d) = %v, want %v", rung, c.small, c.large, got, want)
			}
		}
	})
}

// TestHashFloorBoundary: at HashFloor-1, HashFloor and HashFloor+1 elements
// on the smaller side, at ratios 1, 1/2 and 1/4, both forced arms and the
// adaptive arm count and materialize exactly the oracle on every rung, and
// the adaptive arm runs the arm the rung's rule picks.
func TestHashFloorBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	e := NewExecutor()
	k := stats.New()
	e.EnableStats(k)
	f := HashFloor
	for _, m := range []int{f - 1, f, f + 1} {
		for _, ratio := range []int{1, 2, 4} {
			largeElems := make([]uint32, ratio*m)
			for i, v := range rng.Perm(64 * f)[:ratio*m] {
				largeElems[i] = uint32(v)
			}
			large := MustNewSet(largeElems, DefaultConfig())
			smallElems := large.Elements()[:m/2]
			for j := 0; len(smallElems) < m; j++ {
				smallElems = append(smallElems, uint32(64*f+1+2*j))
			}
			small := MustNewSet(smallElems, DefaultConfig())
			if small.Len() != m || large.Len() != ratio*m {
				t.Fatalf("sizes %d, %d, want %d, %d", small.Len(), large.Len(), m, ratio*m)
			}
			want := refIntersect(small.Elements(), large.Elements())
			eachRung(t, func(rung string) {
				wantHash := rung == "avx512" && m >= f // every ratio is at least 1/4
				before := k.Snapshot()
				for _, arm := range []struct {
					name  string
					force pairArm
				}{{"merge", armMerge}, {"hash", armHash}, {"adaptive", armAuto}} {
					if n := e.run(small, large, arm.force, nil, nil); n != len(want) {
						t.Fatalf("%s %d×%d %s count = %d, want %d", rung, m, ratio*m, arm.name, n, len(want))
					}
					dst := make([]uint32, m)
					n := e.run(large, small, arm.force, dst, nil)
					if !slices.Equal(sortedCopy(dst[:n]), want) {
						t.Fatalf("%s %d×%d %s materialized %v, want %v", rung, m, ratio*m, arm.name, dst[:n], want)
					}
				}
				after := k.Snapshot()
				hashes := after.Counter(stats.CtrQueriesHash) - before.Counter(stats.CtrQueriesHash)
				wantHashes := uint64(2) // the forced hash arm's two calls
				if wantHash {
					wantHashes += 2
				}
				if hashes != wantHashes {
					t.Errorf("%s %d×%d: %d hash queries, want %d (adaptive hash %v)", rung, m, ratio*m, hashes, wantHashes, wantHash)
				}
			})
		}
	}
}
