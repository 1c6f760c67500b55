package core

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"fesia/internal/simd"
)

// eachRung runs f once per available dispatch tier — scalar, avx2 (which on
// AVX-512 hardware is the forced-AVX2 tier), avx512 — with the tier live and
// its name passed in. Dispatch state is restored afterwards.
func eachRung(t *testing.T, f func(rung string)) {
	t.Helper()
	prevAsm := simd.SetAsmEnabled(false)
	prevAvx512 := simd.SetAvx512Enabled(false)
	defer func() {
		simd.SetAvx512Enabled(prevAvx512)
		simd.SetAsmEnabled(prevAsm)
	}()
	f("scalar")
	if simd.HasAsm() {
		simd.SetAsmEnabled(true)
		f("avx2")
	}
	if simd.HasAVX512() {
		simd.SetAvx512Enabled(true)
		f("avx512")
	}
}

// runTiers runs f once per available dispatch tier (eachRung) and returns
// the tier names alongside the results so callers can require every tier to
// agree with the scalar reference.
func runTiers(t *testing.T, f func() any) (names []string, results []any) {
	t.Helper()
	eachRung(t, func(rung string) {
		names = append(names, rung)
		results = append(results, f())
	})
	return names, results
}

// ruleOrder returns a ∩ b in the order of the arm the static rule (useHash)
// picks on the live rung: merge emits in the larger bitmap's segment order,
// hash in the smaller set's. It is the order of the adaptive entry points,
// which therefore follows the rung wherever the rule's arm does.
func ruleOrder(a, b *Set) []uint32 {
	dst := make([]uint32, min(a.Len(), b.Len()))
	if useHash(a, b) {
		return dst[:IntersectHash(dst, a, b)]
	}
	return dst[:IntersectMerge(dst, a, b)]
}

// segmentOrder is the merge arm's output-order oracle for a seg×seg pair:
// for each segment of the larger-bitmap set in order, the sorted
// intersection with the other set's wrapped segment. Each element's segment
// comes from its hash, not from the sets' bounds, so every walk of the merge
// body is held to it.
func segmentOrder(a, b *Set) []uint32 {
	x, y := ordered(a, b)
	inY := map[uint32]bool{}
	for _, v := range y.Elements() {
		inY[v] = true
	}
	bySeg := make([][]uint32, x.NumSegments())
	for _, v := range x.Elements() {
		if inY[v] {
			seg := x.bm.SegmentOf(x.build.hasher.Pos(v, x.bm.Bits()))
			bySeg[seg] = append(bySeg[seg], v)
		}
	}
	var out []uint32
	for _, seg := range bySeg {
		out = append(out, sortedCopy(seg)...)
	}
	return out
}

// probeChainOrder returns the k-way probe chain's output order for sets of
// distinct lengths: its seed pair, the two shortest sets, in ruleOrder, kept
// where every set holds the element.
func probeChainOrder(sets []*Set) []uint32 {
	s := slices.Clone(sets)
	slices.SortFunc(s, func(x, y *Set) int { return x.Len() - y.Len() })
	var out []uint32
	for _, x := range ruleOrder(s[0], s[1]) {
		if !slices.ContainsFunc(s[2:], func(o *Set) bool { return !o.Contains(x) }) {
			out = append(out, x)
		}
	}
	return out
}

// TestExecutorTierParity drives the executor's query shapes through every
// tier of the ladder on the same inputs and requires identical results —
// including the materializing paths (IntersectMerge, IntersectHash and
// IntersectK on both k-way arms) that the AVX-512 rung serves with
// compress-store kernels, and the hash-probe paths served by the gathered
// stage. The adaptive materializing paths (Intersect, Visit,
// IntersectManyInto, and IntersectK's probe chain through its seed pair)
// emit in the order of the arm the rung's rule picks, so
// on each tier they must equal that arm's output exactly (ruleOrder), and
// across tiers they must hold the same elements. Scale 1 shrinks the bitmap
// so segments grow into the 9..16 kernel range only the AVX-512 register
// covers. The shapes straddle the merge body's mask-walk cutover at the
// default scale, at Scale 1 and at SegBits 16, and reach its offsets loop at
// Scale 1; its forced output (IntersectMerge) must keep the segment order
// (segmentOrder) on every walk.
func TestExecutorTierParity(t *testing.T) {
	if !simd.HasAsm() {
		t.Skip("assembly backend not available")
	}
	rng := rand.New(rand.NewSource(41))
	e := NewExecutor()
	check := func(op string, names []string, results []any) {
		t.Helper()
		for i := 1; i < len(results); i++ {
			if ra, ok := results[i].([]uint32); ok {
				rs := results[0].([]uint32)
				if len(ra) != len(rs) {
					t.Fatalf("%s: %s n=%d scalar n=%d", op, names[i], len(ra), len(rs))
				}
				for j := range ra {
					if ra[j] != rs[j] {
						t.Fatalf("%s: %s elem %d = %d, scalar = %d", op, names[i], j, ra[j], rs[j])
					}
				}
				continue
			}
			if results[i] != results[0] {
				t.Fatalf("%s: %s = %v, scalar = %v", op, names[i], results[i], results[0])
			}
		}
	}
	cfgs := []Config{
		DefaultConfig(),
		{Scale: 1}, // big segments: 9..16 sizes hit the zmm-only entries
		{SegBits: 16},
		{Width: simd.WidthAVX512},
	}
	shapes := []struct {
		na, nb   int
		universe uint32
		dirs     bool // redraw the pair until both sets keep a rank directory
	}{
		{2500, 2100, 80000, false},  // similar sizes: merge, hash on the AVX-512 rung
		{6000, 250, 80000, false},   // hash, skewed: the gathered probe path
		{30000, 8000, 80000, false}, // bigger bitmaps
		// Tiny pairs from small universes, so they share elements: the
		// merge body's word loop (4 words against 1 at the default scale,
		// so the smaller bitmap wraps; 16 words at {40, 12}), and its
		// mask walk at {200, 60}, a 64-word merge against 16 words.
		{12, 10, 36, false},
		{12, 4, 36, false},
		{40, 12, 120, false},
		{200, 60, 600, false},
		// At Scale 1 a 2,300-element draw (~2,170 distinct) fills 64 words at
		// about half an element per bit. Drawn until both sets keep a rank
		// directory, its merge runs the mask walk; denser Scale 1 sets keep
		// their offsets.
		{2300, 600, 20000, true},
	}
	arms := map[bool]bool{} // k-way arms covered, keyed by kwayProbe
	// The merge body's walks each config's IntersectMerge reached on the
	// assembly rungs (walkOf).
	walks := make([]map[mergeWalk]bool, len(cfgs))
	for ci, cfg := range cfgs {
		walks[ci] = map[mergeWalk]bool{}
		for _, sh := range shapes {
			a := MustNewSet(randSet(rng, sh.na, sh.universe), cfg)
			b := MustNewSet(randSet(rng, sh.nb, sh.universe), cfg)
			for try := 0; sh.dirs && try < 100 && !(a.hasDirectory() && b.hasDirectory()); try++ {
				a = MustNewSet(randSet(rng, sh.na, sh.universe), cfg)
				b = MustNewSet(randSet(rng, sh.nb, sh.universe), cfg)
			}
			c := MustNewSet(randSet(rng, sh.nb/2+1, sh.universe), cfg)

			names, res := runTiers(t, func() any { return e.Count(a, b) })
			check("Count", names, res)
			names, res = runTiers(t, func() any { return CountMerge(a, b) })
			check("CountMerge", names, res)
			names, res = runTiers(t, func() any { return CountHash(a, b) })
			check("CountHash", names, res)

			// ruled holds an adaptive path's output to the order of the arm
			// the rung's rule picks, and hands back its elements sorted for
			// the cross-tier check.
			ruled := func(op string, got, want []uint32) any {
				if !slices.Equal(got, want) {
					t.Fatalf("%s: %d elements out of the rule's arm order (%d)", op, len(got), len(want))
				}
				return sortedCopy(got)
			}
			dst := make([]uint32, min(a.Len(), b.Len()))
			names, res = runTiers(t, func() any {
				n := e.Intersect(dst, a, b)
				return ruled("Intersect", dst[:n], ruleOrder(a, b))
			})
			check("Intersect", names, res)
			order := segmentOrder(a, b)
			names, res = runTiers(t, func() any {
				n := IntersectMerge(dst, a, b)
				if !slices.Equal(dst[:n], order) {
					t.Fatalf("IntersectMerge %v: %d elements out of segment order", sh, n)
				}
				if simd.AsmActive() {
					walks[ci][walkOf(ordered(a, b))] = true
				}
				return append([]uint32(nil), dst[:n]...)
			})
			check("IntersectMerge", names, res)
			names, res = runTiers(t, func() any {
				n := IntersectHash(dst, a, b)
				return append([]uint32(nil), dst[:n]...)
			})
			check("IntersectHash", names, res)
			names, res = runTiers(t, func() any {
				var got []uint32
				e.Visit(a, b, func(x uint32) { got = append(got, x) })
				return ruled("Visit", got, ruleOrder(a, b))
			})
			check("Visit", names, res)

			cands := []*Set{b, c, a}
			names, res = runTiers(t, func() any {
				counts := make([]int, len(cands))
				buf := make([]uint32, a.Len()*3)
				total := e.IntersectManyInto(buf, counts, a, cands)
				var want []uint32
				for _, c := range cands {
					want = append(want, ruleOrder(a, c)...)
				}
				return ruled("IntersectManyInto", buf[:total], want)
			})
			check("IntersectManyInto", names, res)

			// k-way: {2500, 2100, 1051} stays on the bitmap chain, the
			// skewed shapes take the probe chain.
			ks := []*Set{a, b, c}
			arms[kwayProbe(ks)] = true
			names, res = runTiers(t, func() any { return e.CountK(ks...) })
			check("CountK", names, res)
			names, res = runTiers(t, func() any {
				buf := make([]uint32, c.Len())
				got := buf[:e.IntersectK(buf, ks...)]
				if !kwayProbe(ks) {
					return got
				}
				return ruled("IntersectK", got, probeChainOrder(ks))
			})
			check("IntersectK", names, res)
			names, res = runTiers(t, func() any {
				n, err := e.CountKCtx(context.Background(), ks...)
				if err != nil {
					t.Fatalf("CountKCtx: %v", err)
				}
				return n
			})
			check("CountKCtx", names, res)
		}
	}
	if !arms[false] || !arms[true] {
		t.Fatalf("k-way shapes cover one arm only: chain %v, probe %v", arms[false], arms[true])
	}
	for ci, cfg := range cfgs[:3] {
		if !walks[ci][walkWords] || !walks[ci][walkMasks] {
			t.Errorf("config %+v: merges ran the word loop %v, the mask walk %v; want both",
				cfg, walks[ci][walkWords], walks[ci][walkMasks])
		}
	}
	if !walks[1][walkBounds] {
		t.Error("no Scale 1 merge ran the offsets loop")
	}
}

// TestIntersectExactDst holds every tier to the dst contract at its
// tightest: room for min(a.Len(), b.Len()) elements, exactly the result when
// the smaller set is a subset of the larger. The merge body then hands the
// pairs surviving after the last match (false positives of the bitmap
// filter) a tail of dst with no room left, which the SIMD kernels must not
// need.
func TestIntersectExactDst(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 300; trial++ {
		cfg := Config{Scale: []float64{1, 2, 4, 0}[trial%4]}
		large := MustNewSet(randSet(rng, 50+rng.Intn(2000), 1<<14), cfg)
		elems := large.Elements()
		sub := make([]uint32, 0, 64)
		for _, i := range rng.Perm(len(elems))[:1+rng.Intn(min(64, len(elems)))] {
			sub = append(sub, elems[i])
		}
		small := MustNewSet(sub, cfg)
		runTiers(t, func() any {
			for _, n := range []int{
				IntersectMerge(make([]uint32, small.Len()), small, large),
				Intersect(make([]uint32, small.Len()), large, small),
			} {
				if n != small.Len() {
					t.Fatalf("trial %d: %d elements, want %d", trial, n, small.Len())
				}
			}
			return nil
		})
	}
}

// TestMaterializeZeroAlloc asserts the 0 allocs/op warm guarantee holds for
// the new materialize and gathered-probe paths with the full ladder active:
// the compress-store kernels write straight into the caller's dst and the
// gather stage uses stack out-buffers only.
func TestMaterializeZeroAlloc(t *testing.T) {
	if !simd.HasAVX512() {
		t.Skip("AVX-512 rung not available")
	}
	prevAsm := simd.SetAsmEnabled(true)
	prevAvx512 := simd.SetAvx512Enabled(true)
	defer func() {
		simd.SetAvx512Enabled(prevAvx512)
		simd.SetAsmEnabled(prevAsm)
	}()
	rng := rand.New(rand.NewSource(42))
	cfg := Config{Scale: 1} // big segments: exercises the 16-lane kernels
	a := MustNewSet(randSet(rng, 20000, 300000), cfg)
	b := MustNewSet(randSet(rng, 15000, 300000), cfg)
	s := MustNewSet(randSet(rng, 900, 300000), cfg)
	e := NewExecutor()
	dst := make([]uint32, min(a.Len(), b.Len()))
	cands := []*Set{b, s}
	counts := make([]int, len(cands))
	buf := make([]uint32, a.Len()*2)
	// Warm every buffer.
	e.Intersect(dst, a, b)
	e.Intersect(dst, a, s)
	e.IntersectManyInto(buf, counts, a, cands)
	e.Count(a, s)
	cases := []struct {
		name string
		fn   func()
	}{
		{"Intersect/merge", func() { e.Intersect(dst, a, b) }},
		{"Intersect/hash", func() { e.Intersect(dst, a, s) }},
		{"IntersectManyInto", func() { e.IntersectManyInto(buf, counts, a, cands) }},
		{"Count/hash-gather", func() { e.Count(a, s) }},
	}
	for _, c := range cases {
		if avg := testing.AllocsPerRun(20, c.fn); avg != 0 {
			t.Errorf("%s: %v allocs/op with the AVX-512 rung, want 0", c.name, avg)
		}
	}
}
