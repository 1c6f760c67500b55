package fesia

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestQuickstart(t *testing.T) {
	a := MustBuild([]uint32{1, 4, 15, 21, 32, 34})
	b := MustBuild([]uint32{2, 6, 12, 16, 21, 23})
	if got := Intersect(a, b); len(got) != 1 || got[0] != 21 {
		t.Errorf("Intersect = %v, want [21]", got)
	}
	if IntersectCount(a, b) != 1 || MergeCount(a, b) != 1 || HashCount(a, b) != 1 {
		t.Error("counts disagree")
	}
}

func TestBuildOptions(t *testing.T) {
	elems := []uint32{10, 20, 30}
	for _, opts := range [][]Option{
		{WithWidth(SSE)},
		{WithWidth(AVX512)},
		{WithSegmentBits(16), WithBitmapScale(8), WithSeed(99)},
	} {
		s, err := Build(elems, opts...)
		if err != nil {
			t.Fatalf("Build(%d opts): %v", len(opts), err)
		}
		if s.Len() != 3 || !s.Contains(20) || s.Contains(25) {
			t.Error("set misbehaves under options")
		}
	}
	if _, err := Build(elems, WithSegmentBits(5)); err == nil {
		t.Error("invalid option should error")
	}
	if _, err := Build(elems, WithWidth(Width(100))); err == nil {
		t.Error("invalid width should error")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("MustBuild should panic on bad options")
			}
		}()
		MustBuild(elems, WithSegmentBits(5))
	}()
}

func TestSetAccessors(t *testing.T) {
	s := MustBuild([]uint32{3, 1, 2, 3})
	if s.Len() != 3 {
		t.Error("dedup failed")
	}
	if got := s.Elements(); len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Errorf("Elements = %v", got)
	}
	if s.BitmapBits() < 64 || s.MemoryBytes() <= 0 {
		t.Error("accessor sanity failed")
	}
	st := s.Stats()
	if st.N != 3 || st.NonEmptySegments == 0 || st.Segments == 0 {
		t.Errorf("Stats = %+v", st)
	}
}

func TestKWayAPI(t *testing.T) {
	a := MustBuild([]uint32{1, 2, 3, 4, 5})
	b := MustBuild([]uint32{2, 3, 4, 5, 6})
	c := MustBuild([]uint32{3, 4, 5, 6, 7})
	if got := IntersectCountK(a, b, c); got != 3 {
		t.Errorf("IntersectCountK = %d, want 3", got)
	}
	got := IntersectK(a, b, c)
	want := []uint32{3, 4, 5}
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Errorf("IntersectK = %v, want %v", got, want)
	}
}

func TestParallelAPI(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ea := make([]uint32, 5000)
	eb := make([]uint32, 5000)
	for i := range ea {
		ea[i] = rng.Uint32() % 60000
		eb[i] = rng.Uint32() % 60000
	}
	a := MustBuild(ea)
	b := MustBuild(eb)
	want := MergeCount(a, b)
	for _, workers := range []int{1, 2, 4, 16} {
		if got := IntersectCountParallel(a, b, workers); got != want {
			t.Errorf("parallel(%d) = %d, want %d", workers, got, want)
		}
	}
	c := MustBuild(ea[:3000])
	wantK := IntersectCountK(a, b, c)
	for _, workers := range []int{1, 3, 8} {
		if got := IntersectCountKParallel(workers, a, b, c); got != wantK {
			t.Errorf("k-parallel(%d) = %d, want %d", workers, got, wantK)
		}
	}
}

func TestSerializeAPI(t *testing.T) {
	a := MustBuild([]uint32{10, 20, 30, 40}, WithSeed(5))
	var buf bytes.Buffer
	if _, err := a.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSet(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 4 || !got.Contains(30) {
		t.Error("deserialized set misbehaves")
	}
	b := MustBuild([]uint32{30, 40, 50}, WithSeed(5))
	if IntersectCount(got, b) != 2 {
		t.Error("deserialized set intersects wrongly")
	}
	if _, err := ReadSet(bytes.NewReader([]byte("garbage"))); err == nil {
		t.Error("garbage should not deserialize")
	}
}

func TestBuildBatchAPI(t *testing.T) {
	lists := [][]uint32{{1, 2, 3}, {2, 3, 4}, {3, 4, 5}}
	sets, err := BuildBatch(lists)
	if err != nil {
		t.Fatal(err)
	}
	if len(sets) != 3 {
		t.Fatalf("got %d sets", len(sets))
	}
	if got := IntersectCountK(sets...); got != 1 {
		t.Errorf("batch k-way count = %d, want 1", got)
	}
	if got := Intersect(sets[0], sets[1]); len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Errorf("batch Intersect = %v", got)
	}
	// Batch sets interoperate with individually built ones.
	single := MustBuild([]uint32{3, 9})
	if IntersectCount(sets[0], single) != 1 {
		t.Error("batch/single interop failed")
	}
	if _, err := BuildBatch(lists, WithSegmentBits(5)); err == nil {
		t.Error("bad options should error")
	}
}

func TestBreakdownAPI(t *testing.T) {
	a := MustBuild([]uint32{1, 2, 3})
	b := MustBuild([]uint32{2, 3, 4})
	bd := IntersectCountBreakdown(a, b)
	if bd.Count != 2 {
		t.Errorf("Breakdown.Count = %d, want 2", bd.Count)
	}
}

// Property: the public API agrees with a map-based reference on arbitrary
// inputs (with duplicates and in any order).
func TestPublicAPIQuick(t *testing.T) {
	f := func(ea, eb []uint32) bool {
		if len(ea) > 3000 {
			ea = ea[:3000]
		}
		if len(eb) > 3000 {
			eb = eb[:3000]
		}
		want := map[uint32]bool{}
		inA := map[uint32]bool{}
		for _, v := range ea {
			inA[v] = true
		}
		for _, v := range eb {
			if inA[v] {
				want[v] = true
			}
		}
		a := MustBuild(ea)
		b := MustBuild(eb)
		if IntersectCount(a, b) != len(want) {
			return false
		}
		got := Intersect(a, b)
		if len(got) != len(want) || !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
			return false
		}
		for _, v := range got {
			if !want[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
