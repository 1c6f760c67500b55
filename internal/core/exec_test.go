package core

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"fesia/internal/simd"
)

// execTestSets builds a deterministic trio of compatible sets, the middle one
// skewed small so the adaptive strategy exercises both branches.
func execTestSets(t testing.TB, w simd.Width) (sa, sb, sc *Set) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	cfg := Config{Width: w}
	sa = MustNewSet(randSet(rng, 4000, 1<<16), cfg)
	sb = MustNewSet(randSet(rng, 3000, 1<<16), cfg)
	sc = MustNewSet(randSet(rng, 500, 1<<16), cfg)
	return sa, sb, sc
}

// TestExecutorAllocs is the contract at the heart of this refactor: once an
// Executor has warmed up on a workload, the query path performs zero heap
// allocations.
func TestExecutorAllocs(t *testing.T) {
	sa, sb, sc := execTestSets(t, simd.WidthAVX)
	e := NewExecutor()
	dst := make([]uint32, 4000)
	ks := []*Set{sa, sb, sc} // skewed: the probe chain
	sd := MustNewSet(randSet(rand.New(rand.NewSource(8)), 3500, 1<<16), Config{Width: simd.WidthAVX})
	kc := []*Set{sa, sb, sd} // similar sizes: the bitmap chain
	if !kwayProbe(ks) || kwayProbe(kc) {
		t.Fatal("k-way inputs do not cover both arms")
	}
	ctx := context.Background()

	// Warm up every path so buffers reach their steady-state sizes.
	e.Count(sa, sb)
	e.CountHash(sc, sa)
	e.Intersect(dst, sa, sb)
	for _, q := range [][]*Set{ks, kc} {
		e.CountK(q...)
		e.IntersectK(dst, q...)
		e.VisitK(func(uint32) {}, q...)
		e.CountKCtx(ctx, q...)
	}
	e.Visit(sa, sb, func(uint32) {})

	cases := []struct {
		name string
		fn   func()
	}{
		{"Count", func() { e.Count(sa, sb) }},
		{"CountMerge", func() { e.CountMerge(sa, sb) }},
		{"CountHash", func() { e.CountHash(sc, sa) }},
		{"Intersect", func() { e.Intersect(dst, sa, sb) }},
		{"CountK/probe", func() { e.CountK(ks...) }},
		{"CountK/chain", func() { e.CountK(kc...) }},
		{"IntersectK/probe", func() { e.IntersectK(dst, ks...) }},
		{"IntersectK/chain", func() { e.IntersectK(dst, kc...) }},
		{"CountKCtx/probe", func() { e.CountKCtx(ctx, ks...) }},
		{"CountKCtx/chain", func() { e.CountKCtx(ctx, kc...) }},
		{"VisitMerge", func() { e.VisitMerge(sa, sb, func(uint32) {}) }},
		{"VisitHash", func() { e.VisitHash(sc, sa, func(uint32) {}) }},
		{"VisitK/probe", func() { e.VisitK(func(uint32) {}, ks...) }},
		{"VisitK/chain", func() { e.VisitK(func(uint32) {}, kc...) }},
	}
	for _, c := range cases {
		if avg := testing.AllocsPerRun(20, c.fn); avg != 0 {
			t.Errorf("%s: %.1f allocs/op on a warm executor, want 0", c.name, avg)
		}
	}
}

// TestVisitorSliceParity checks that the streaming visitor paths emit exactly
// the elements (and order) of the materializing slice paths, across all three
// widths and all strategies.
func TestVisitorSliceParity(t *testing.T) {
	for _, w := range []simd.Width{simd.WidthSSE, simd.WidthAVX, simd.WidthAVX512} {
		sa, sb, sc := execTestSets(t, w)
		e := NewExecutor()
		dst := make([]uint32, 4000)

		check := func(name string, sliceN int, visit func(emit Visitor)) {
			t.Helper()
			var got []uint32
			visit(func(v uint32) { got = append(got, v) })
			want := dst[:sliceN]
			if !slices.Equal(got, want) {
				t.Errorf("w=%v %s: visitor emitted %d elements, slice path wrote %d (or order differs)",
					w, name, len(got), sliceN)
			}
		}

		check("merge", IntersectMerge(dst, sa, sb), func(emit Visitor) { e.VisitMerge(sa, sb, emit) })
		check("hash", IntersectHash(dst, sc, sa), func(emit Visitor) { e.VisitHash(sc, sa, emit) })
		check("adaptive", Intersect(dst, sc, sa), func(emit Visitor) { e.Visit(sc, sa, emit) })
		check("kway", e.IntersectK(dst, sa, sb, sc), func(emit Visitor) { e.VisitK(emit, sa, sb, sc) })
		check("kway1", e.IntersectK(dst, sa), func(emit Visitor) { e.VisitK(emit, sa) })
		check("kway2", e.IntersectK(dst, sa, sb), func(emit Visitor) { e.VisitK(emit, sa, sb) })
	}
}

// TestExecutorMatchesFreeFunctions pins the executor methods to the
// package-level reference implementations on randomized inputs.
func TestExecutorMatchesFreeFunctions(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	e := NewExecutor()
	for trial := 0; trial < 30; trial++ {
		cfg := Config{Width: simd.WidthAVX}
		na, nb := rng.Intn(3000), rng.Intn(3000)
		sa := MustNewSet(randSet(rng, na, 1<<15), cfg)
		sb := MustNewSet(randSet(rng, nb, 1<<15), cfg)
		sc := MustNewSet(randSet(rng, rng.Intn(1000), 1<<15), cfg)

		if got, want := e.Count(sa, sb), Count(sa, sb); got != want {
			t.Fatalf("trial %d: Count = %d, want %d", trial, got, want)
		}
		if got, want := e.CountK(sa, sb, sc), CountK(sa, sb, sc); got != want {
			t.Fatalf("trial %d: CountK = %d, want %d", trial, got, want)
		}
		for _, workers := range []int{1, 2, 3, 8} {
			if got, want := e.CountMergeParallel(sa, sb, workers), CountMerge(sa, sb); got != want {
				t.Fatalf("trial %d workers %d: CountMergeParallel = %d, want %d", trial, workers, got, want)
			}
			if got, want := e.CountHashParallel(sa, sb, workers), CountHash(sa, sb); got != want {
				t.Fatalf("trial %d workers %d: CountHashParallel = %d, want %d", trial, workers, got, want)
			}
			if got, want := e.CountKParallel(workers, sa, sb, sc), CountK(sa, sb, sc); got != want {
				t.Fatalf("trial %d workers %d: CountKParallel = %d, want %d", trial, workers, got, want)
			}
		}
	}
}

// TestIntersectMergeParallelPresized checks the pre-sized parallel
// materialization against the sequential path, including output order, over
// worker counts whose word ranges split the mask walk's 4-word blocks.
func TestIntersectMergeParallelPresized(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	e := NewExecutor()
	for trial := 0; trial < 20; trial++ {
		cfg := Config{Width: simd.WidthAVX}
		sa := MustNewSet(randSet(rng, 2000+rng.Intn(2000), 1<<15), cfg)
		sb := MustNewSet(randSet(rng, 2000+rng.Intn(2000), 1<<15), cfg)
		want := make([]uint32, 4000)
		wn := IntersectMerge(want, sa, sb)
		got := make([]uint32, 4000)
		for _, workers := range []int{2, 3, 8} {
			gn := e.IntersectMergeParallel(got, sa, sb, workers)
			if !slices.Equal(got[:gn], want[:wn]) {
				t.Fatalf("trial %d workers %d: parallel output differs from sequential", trial, workers)
			}
		}
	}
	// Shares that start and end inside mask blocks and span several mask
	// chunks: 3 and 5 workers over 4,096 words, and 30 workers over 64
	// words (shares of 3 words).
	for _, c := range []struct{ n, workers int }{{10_000, 3}, {10_000, 5}, {200, 30}} {
		sa := MustNewSet(randSet(rng, c.n, uint32(4*c.n)), DefaultConfig())
		sb := MustNewSet(randSet(rng, c.n, uint32(4*c.n)), DefaultConfig())
		want := make([]uint32, c.n)
		wn := IntersectMerge(want, sa, sb)
		got := make([]uint32, c.n)
		if gn := e.IntersectMergeParallel(got, sa, sb, c.workers); !slices.Equal(got[:gn], want[:wn]) {
			t.Fatalf("%d-element sets, %d workers: parallel output differs from sequential", c.n, c.workers)
		}
		if gn := e.CountMergeParallel(sa, sb, c.workers); gn != wn {
			t.Fatalf("%d-element sets, %d workers: parallel count %d, sequential %d", c.n, c.workers, gn, wn)
		}
		// A set against itself matches every element a share stores, so
		// each worker's buffer must hold all of them.
		self := make([]uint32, sa.Len())
		sn := IntersectMerge(self, sa, sa)
		if gn := e.IntersectMergeParallel(got, sa, sa, c.workers); sn != sa.Len() || !slices.Equal(got[:gn], self[:sn]) {
			t.Fatalf("%d-element set, %d workers: parallel self-intersection differs from sequential", c.n, c.workers)
		}
	}
}

// FuzzVisitParity fuzzes the visitor-vs-slice equivalence over arbitrary set
// contents, reusing the pair decoding of FuzzIntersect.
func FuzzVisitParity(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(0))
	f.Add([]byte{0xff, 0x01, 0x80, 0x20, 0x33}, uint8(1))
	f.Add([]byte{}, uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, mode uint8) {
		ea, eb, cfg := decodeSets(data)
		sa, err := NewSet(ea, cfg)
		if err != nil {
			t.Skip()
		}
		sb, err := NewSet(eb, cfg)
		if err != nil {
			t.Skip()
		}
		e := NewExecutor()
		dst := make([]uint32, max(len(ea), len(eb))+1)
		var got []uint32
		var n int
		switch mode % 3 {
		case 0:
			n = IntersectMerge(dst, sa, sb)
			e.VisitMerge(sa, sb, func(v uint32) { got = append(got, v) })
		case 1:
			n = IntersectHash(dst, sa, sb)
			e.VisitHash(sa, sb, func(v uint32) { got = append(got, v) })
		case 2:
			n = e.IntersectK(dst, sa, sb)
			e.VisitK(func(v uint32) { got = append(got, v) }, sa, sb)
		}
		if !slices.Equal(got, dst[:n]) {
			t.Fatalf("mode %d: visitor path emitted %v, slice path wrote %v", mode%3, got, dst[:n])
		}
	})
}
