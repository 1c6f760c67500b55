package bitmap

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	for _, s := range SupportedSegBits {
		b := New(256, s)
		if b.Bits() != 256 || b.SegBits() != s {
			t.Errorf("New(256, %d) = bits %d seg %d", s, b.Bits(), b.SegBits())
		}
		if b.NumSegments() != 256/s {
			t.Errorf("NumSegments = %d, want %d", b.NumSegments(), 256/s)
		}
		if b.SegmentsPerWord() != 64/s {
			t.Errorf("SegmentsPerWord = %d", b.SegmentsPerWord())
		}
	}
	for _, bad := range []struct {
		m uint64
		s int
	}{{100, 8}, {32, 8}, {0, 8}, {256, 7}, {256, 64}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d, %d) should panic", bad.m, bad.s)
				}
			}()
			New(bad.m, bad.s)
		}()
	}
}

func TestSetTest(t *testing.T) {
	b := New(128, 8)
	positions := []uint64{0, 1, 63, 64, 127}
	for _, p := range positions {
		if b.Test(p) {
			t.Errorf("bit %d set before Set", p)
		}
		b.Set(p)
		if !b.Test(p) {
			t.Errorf("bit %d not set after Set", p)
		}
	}
	if b.PopCount() != len(positions) {
		t.Errorf("PopCount = %d, want %d", b.PopCount(), len(positions))
	}
	if b.SegmentOf(0) != 0 || b.SegmentOf(7) != 0 || b.SegmentOf(8) != 1 || b.SegmentOf(127) != 15 {
		t.Error("SegmentOf wrong")
	}
}

// The queries' two-set walk is core's merge body, and the k-way walk over
// two bitmaps is its instrumentation's step 1 (core.DispatchTrace); these
// tests hold the k-way walk over two bitmaps to Section IV's semantics.

func TestForEachIntersectingSegmentSameSize(t *testing.T) {
	// Reproduce Example 1 of the paper, scaled to a legal bitmap size.
	// Elements of A hash (identity mod 128) to bits {1,4,15,21,32,34};
	// B to {2,6,12,16,21,23}. With s=8, A occupies segments {0,1,2,4},
	// B segments {0,1,2}; shared live segments with shared set bits: only
	// segment 2 (bit 21 in both).
	a := New(128, 8)
	for _, p := range []uint64{1, 4, 15, 21, 32, 34} {
		a.Set(p)
	}
	b := New(128, 8)
	for _, p := range []uint64{2, 6, 12, 16, 21, 23} {
		b.Set(p)
	}
	var segs []int
	ForEachIntersectingSegmentKRange([]*Bitmap{a, b}, 0, len(a.Words()), func(s int) { segs = append(segs, s) })
	if len(segs) != 1 || segs[0] != 2 {
		t.Errorf("segments = %v, want [2]", segs)
	}
}

func TestForEachIntersectingSegmentDifferentSizes(t *testing.T) {
	// a has 256 bits, b has 64: segment i of a matches segment i mod 8 of b.
	a := New(256, 8)
	b := New(64, 8)
	a.Set(200) // segment 25 of a -> segment 25 mod 8 = 1 of b (bits 8..15)
	b.Set(8)   // same bit offset within the wrapped word: 200 mod 64 = 8 ✓
	var got []int
	ForEachIntersectingSegmentKRange([]*Bitmap{a, b}, 0, len(a.Words()), func(s int) { got = append(got, s) })
	if len(got) != 1 || got[0] != 25 || got[0]%b.NumSegments() != 1 {
		t.Errorf("got %v, want [25] (segment 1 of b)", got)
	}
	// A bit of b that wraps to no set bit of a must produce nothing extra.
	b.Set(63)
	got = nil
	ForEachIntersectingSegmentKRange([]*Bitmap{a, b}, 0, len(a.Words()), func(s int) { got = append(got, s) })
	if len(got) != 1 {
		t.Errorf("after extra b bit: got %v", got)
	}
}

// Property: the streamed segments are exactly the segments where both
// bitmaps have at least one common set bit, for all segment sizes.
func TestForEachIntersectingSegmentProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, segBits := range SupportedSegBits {
		for trial := 0; trial < 100; trial++ {
			m := uint64(64) << uint(rng.Intn(4)) // 64..512
			a := New(m, segBits)
			b := New(m, segBits)
			for i := 0; i < int(m)/4; i++ {
				a.Set(uint64(rng.Intn(int(m))))
				b.Set(uint64(rng.Intn(int(m))))
			}
			want := map[int]bool{}
			for seg := 0; seg < a.NumSegments(); seg++ {
				for bit := seg * segBits; bit < (seg+1)*segBits; bit++ {
					if a.Test(uint64(bit)) && b.Test(uint64(bit)) {
						want[seg] = true
						break
					}
				}
			}
			got := map[int]bool{}
			ForEachIntersectingSegmentKRange([]*Bitmap{a, b}, 0, len(a.Words()), func(s int) {
				if got[s] {
					t.Fatalf("segment %d reported twice", s)
				}
				got[s] = true
			})
			if len(got) != len(want) {
				t.Fatalf("segBits %d: got %d segments, want %d", segBits, len(got), len(want))
			}
			for s := range want {
				if !got[s] {
					t.Fatalf("segBits %d: missing segment %d", segBits, s)
				}
			}
		}
	}
}

func TestRangeDifferentSizes(t *testing.T) {
	a := New(256, 16)
	b := New(128, 16)
	a.Set(130)
	b.Set(2)
	var got []int
	ForEachIntersectingSegmentKRange([]*Bitmap{a, b}, 0, len(a.Words()), func(s int) {
		got = append(got, s)
	})
	// bit 130 of a is segment 8 (s=16); 130 mod 128 = 2 -> b segment 0.
	if len(got) != 1 || got[0] != 8 || got[0]%b.NumSegments() != 0 {
		t.Errorf("got %v, want [8] (segment 0 of b)", got)
	}
}

func TestKWay(t *testing.T) {
	a := New(256, 8)
	b := New(128, 8)
	c := New(64, 8)
	// Common live bit: 70 in a; 70 mod 128 = 70 in b; 70 mod 64 = 6 in c.
	a.Set(70)
	b.Set(70)
	c.Set(6)
	// Noise that does not survive the 3-way AND.
	a.Set(10)
	b.Set(11)
	c.Set(12)
	var segs []int
	ForEachIntersectingSegmentKRange([]*Bitmap{a, b, c}, 0, len(a.Words()), func(s int) { segs = append(segs, s) })
	if len(segs) != 1 || segs[0] != 70/8 {
		t.Errorf("k-way segs = %v, want [%d]", segs, 70/8)
	}
}

// Property: the k-way walk split at any word visits exactly the segments of
// the walk over the whole bitmap, in order.
func TestKWayRangePartition(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 40; trial++ {
		a := New(512, 8)
		b := New(256, 8)
		c := New(128, 8)
		for i := 0; i < 150; i++ {
			a.Set(uint64(rng.Intn(512)))
			b.Set(uint64(rng.Intn(256)))
			c.Set(uint64(rng.Intn(128)))
		}
		maps := []*Bitmap{a, b, c}
		var whole []int
		ForEachIntersectingSegmentKRange(maps, 0, len(maps[0].Words()), func(s int) { whole = append(whole, s) })
		cut := rng.Intn(len(a.Words()) + 1)
		var parts []int
		ForEachIntersectingSegmentKRange(maps, 0, cut, func(s int) { parts = append(parts, s) })
		ForEachIntersectingSegmentKRange(maps, cut, len(a.Words()), func(s int) { parts = append(parts, s) })
		if len(whole) != len(parts) {
			t.Fatalf("partition at %d: %d segments vs %d", cut, len(parts), len(whole))
		}
		for i := range whole {
			if whole[i] != parts[i] {
				t.Fatalf("partition at %d: segment %d = %d, want %d", cut, i, parts[i], whole[i])
			}
		}
	}
}

func TestKWayRangePanics(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("empty maps should panic")
			}
		}()
		ForEachIntersectingSegmentKRange(nil, 0, 0, func(int) {})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("larger-later should panic")
			}
		}()
		ForEachIntersectingSegmentKRange([]*Bitmap{New(64, 8), New(128, 8)}, 0, 1, func(int) {})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("seg-size mismatch should panic")
			}
		}()
		ForEachIntersectingSegmentKRange([]*Bitmap{New(128, 8), New(64, 16)}, 0, 1, func(int) {})
	}()
}

// Property: k-way AND equals the pairwise intersection of all wrapped maps.
func TestKWayProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := New(256, 8)
		b := New(128, 8)
		c := New(128, 8)
		for i := 0; i < 120; i++ {
			a.Set(uint64(rng.Intn(256)))
			b.Set(uint64(rng.Intn(128)))
			c.Set(uint64(rng.Intn(128)))
		}
		want := map[int]bool{}
		for bit := 0; bit < 256; bit++ {
			if a.Test(uint64(bit)) && b.Test(uint64(bit%128)) && c.Test(uint64(bit%128)) {
				want[bit/8] = true
			}
		}
		got := map[int]bool{}
		ForEachIntersectingSegmentKRange([]*Bitmap{a, b, c}, 0, len(a.Words()), func(s int) { got[s] = true })
		if len(got) != len(want) {
			return false
		}
		for s := range want {
			if !got[s] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
