package core

import (
	"bytes"
	"context"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"fesia/internal/stats"
	"fesia/internal/testutil"
)

// allReps are the three physical representations, in dispatch-matrix order.
var allReps = []Rep{RepSegmented, RepArray, RepDense}

// buildRep builds a set from elems with the given forced representation.
func buildRep(t testing.TB, elems []uint32, r Rep) *Set {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Rep = r
	s, err := NewSet(elems, cfg)
	if err != nil {
		t.Fatalf("NewSet(rep=%v): %v", r, err)
	}
	if len(sortDedup(make([]uint32, len(elems)), elems)) > 0 && s.Rep() != r {
		t.Fatalf("forced rep %v, built %v", r, s.Rep())
	}
	return s
}

func TestChooseRep(t *testing.T) {
	big := make([]uint32, 4000)
	for i := range big {
		big[i] = uint32(i) * 977 // span 3.9M bits for 4000 elems: sparse
	}
	packed := make([]uint32, 4000)
	for i := range packed {
		packed[i] = 1000 + uint32(i)*2 // 2 bits per element: dense
	}
	cases := []struct {
		name  string
		elems []uint32
		force Rep
		want  Rep
	}{
		{"empty-auto", nil, RepAuto, RepArray},
		{"empty-forced-seg", nil, RepSegmented, RepSegmented},
		{"empty-forced-dense", nil, RepDense, RepArray},
		{"empty-forced-array", nil, RepArray, RepArray},
		{"tiny-auto", []uint32{5, 2, 9}, RepAuto, RepArray},
		{"boundary-auto", make([]uint32, ArrayMaxLen), RepAuto, RepArray},
		{"sparse-auto", big, RepAuto, RepSegmented},
		{"packed-auto", packed, RepAuto, RepDense},
		{"packed-forced-seg", packed, RepSegmented, RepSegmented},
		{"sparse-forced-dense", big, RepDense, RepDense},
		{"sparse-forced-array", big, RepArray, RepArray},
		{"default-zero-is-segmented", big, RepSegmented, RepSegmented},
	}
	for _, c := range cases {
		if c.name == "boundary-auto" {
			for i := range c.elems {
				c.elems[i] = uint32(i) * 1000
			}
		}
		got := chooseRep(sortDedup(make([]uint32, len(c.elems)), c.elems), c.force)
		if got != c.want {
			t.Errorf("%s: chooseRep = %v, want %v", c.name, got, c.want)
		}
	}
}

// hybridShapes yields element-list pairs covering the interesting overlap
// geometries: disjoint spans, nested spans, partial overlap, heavy skew,
// and empties.
func hybridShapes(rng *rand.Rand) [][2][]uint32 {
	return [][2][]uint32{
		{randSet(rng, 3000, 1<<16), randSet(rng, 2500, 1<<16)},
		{randSet(rng, 5000, 1<<20), randSet(rng, 120, 1<<20)}, // skewed
		{randSet(rng, 400, 1<<10), randSet(rng, 400, 1<<10)},  // dense-ish overlap
		{randSet(rng, 50, 200), randSet(rng, 1000, 1<<18)},    // tiny vs wide
		{randSet(rng, 300, 1<<30), randSet(rng, 300, 1<<12)},  // disjoint-ish spans
		{nil, randSet(rng, 100, 1<<12)},                       // empty side
		{randSet(rng, 1, 10), randSet(rng, 2000, 1<<14)},      // singleton
	}
}

// TestHybridPairParity drives every (Rep × Rep) pair through every two-set
// entry point — free functions, Executor methods, parallel and context
// variants — and requires exact agreement with the scalar reference, and the
// materializing and streaming entry points to produce Executor.Intersect's
// elements in its order. runBothBackends covers the asm and pure-Go kernel
// paths in one run.
func TestHybridPairParity(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	e := NewExecutor()
	for si, shape := range hybridShapes(rng) {
		ref := refIntersect(shape[0], shape[1])
		for _, ra := range allReps {
			for _, rb := range allReps {
				a := buildRep(t, shape[0], ra)
				b := buildRep(t, shape[1], rb)
				want := len(ref)

				check := func(name string, got int) {
					t.Helper()
					if got != want {
						t.Fatalf("shape %d %v×%v %s = %d, want %d", si, ra, rb, name, got, want)
					}
				}
				cAsm, cGo := runBothBackends(t, func() any { return e.Count(a, b) })
				check("Count(asm)", cAsm.(int))
				check("Count(go)", cGo.(int))
				check("Count(rev)", e.Count(b, a))
				check("CountMerge", e.CountMerge(a, b))
				check("CountHash", e.CountHash(a, b))
				check("free CountMerge", CountMerge(a, b))
				check("free CountHash", CountHash(a, b))
				check("CountMergeParallel", e.CountMergeParallel(a, b, 4))
				check("CountHashParallel", e.CountHashParallel(a, b, 4))
				check("CountMergeBreakdown", CountMergeBreakdown(a, b).Count)
				check("CountHashBreakdown", CountHashBreakdown(a, b).Count)

				dst := make([]uint32, want+8)
				n := e.Intersect(dst, a, b)
				check("Intersect", n)
				order := append([]uint32(nil), dst[:n]...)
				got := sortedCopy(order)
				for i := range ref {
					if got[i] != ref[i] {
						t.Fatalf("shape %d %v×%v Intersect element %d = %d, want %d",
							si, ra, rb, i, got[i], ref[i])
					}
				}
				sameOrder := func(name string, got []uint32) {
					t.Helper()
					if !slices.Equal(got, order) {
						t.Fatalf("shape %d %v×%v %s = %d elements, not Executor.Intersect's %d in its order",
							si, ra, rb, name, len(got), len(order))
					}
				}
				nc, err := e.IntersectIntoCtx(context.Background(), dst, a, b)
				if err != nil {
					t.Fatalf("shape %d %v×%v IntersectIntoCtx: %v", si, ra, rb, err)
				}
				sameOrder("IntersectIntoCtx", dst[:nc])
				sameOrder("free Intersect", dst[:Intersect(dst, a, b)])
				var streamed []uint32
				e.Visit(a, b, func(v uint32) { streamed = append(streamed, v) })
				sameOrder("Visit", streamed)
				check("free IntersectMerge", IntersectMerge(dst, a, b))
				check("free IntersectHash", IntersectHash(dst, a, b))
				check("IntersectMergeParallel", e.IntersectMergeParallel(dst, a, b, 4))

				visited := 0
				e.Visit(a, b, func(uint32) { visited++ })
				check("Visit", visited)
				visited = 0
				e.VisitMerge(a, b, func(uint32) { visited++ })
				check("VisitMerge", visited)
				visited = 0
				e.VisitHash(a, b, func(uint32) { visited++ })
				check("VisitHash", visited)

				nc, err = e.CountCtx(context.Background(), a, b)
				if err != nil {
					t.Fatalf("shape %d %v×%v CountCtx: %v", si, ra, rb, err)
				}
				check("CountCtx", nc)
			}
		}
	}
}

// TestHybridKWayParity checks k-way intersection over mixed-representation
// inputs against the reference. Mixed sets and skewed segmented sets share
// the probe chain — a seed pair through the pair dispatch, then membership
// compaction — so every mixed query, and the all-segmented one once the
// 150-element set joins, must run it (stats counter), with IntersectK,
// VisitK and CountKCtx agreeing on both content and order.
func TestHybridKWayParity(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	sink := stats.New()
	e := NewExecutor()
	e.EnableStats(sink)
	lists := [][]uint32{
		randSet(rng, 4000, 1<<14),
		randSet(rng, 3000, 1<<14),
		randSet(rng, 2000, 1<<14),
		randSet(rng, 150, 1<<14),
	}
	inter := func(ls [][]uint32) []uint32 {
		cur := sortDedup(make([]uint32, len(ls[0])), ls[0])
		for _, l := range ls[1:] {
			cur = refIntersect(cur, l)
		}
		return cur
	}
	for _, reps := range [][]Rep{
		{RepArray, RepSegmented, RepDense, RepArray},
		{RepDense, RepDense, RepDense, RepDense},
		{RepSegmented, RepArray, RepSegmented, RepDense},
		{RepArray, RepArray, RepArray, RepArray},
		{RepSegmented, RepSegmented, RepSegmented, RepSegmented},
	} {
		sets := make([]*Set, len(lists))
		for i := range lists {
			sets[i] = buildRep(t, lists[i], reps[i])
		}
		for k := 3; k <= len(sets); k++ {
			snap := sink.Snapshot()
			before := snap.Counter(stats.CtrQueriesKWayProbe)
			want := inter(lists[:k])
			got, gotGo := runBothBackends(t, func() any { return e.CountK(sets[:k]...) })
			if got.(int) != len(want) || gotGo.(int) != len(want) {
				t.Fatalf("reps %v CountK(k=%d) = %v/%v, want %d", reps, k, got, gotGo, len(want))
			}
			if n := CountKParallel(4, sets[:k]...); n != len(want) {
				t.Fatalf("reps %v CountKParallel(k=%d) = %d, want %d", reps, k, n, len(want))
			}
			dst := make([]uint32, len(want)+8)
			n := e.IntersectK(dst, sets[:k]...)
			if n != len(want) {
				t.Fatalf("reps %v IntersectK(k=%d) = %d, want %d", reps, k, n, len(want))
			}
			vals := append([]uint32(nil), dst[:n]...)
			sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
			for i := range want {
				if vals[i] != want[i] {
					t.Fatalf("reps %v IntersectK(k=%d) element %d = %d, want %d",
						reps, k, i, vals[i], want[i])
				}
			}
			var visited []uint32
			e.VisitK(func(v uint32) { visited = append(visited, v) }, sets[:k]...)
			if !slices.Equal(visited, dst[:n]) {
				t.Fatalf("reps %v VisitK(k=%d) visited %d elements, not IntersectK's %d in order",
					reps, k, len(visited), n)
			}
			nc, err := e.CountKCtx(context.Background(), sets[:k]...)
			if err != nil || nc != len(want) {
				t.Fatalf("reps %v CountKCtx(k=%d) = %d, %v, want %d", reps, k, nc, err, len(want))
			}
			// CountK twice (runBothBackends), IntersectK, VisitK, CountKCtx.
			mixedOrSkewed := k == 4 || slices.ContainsFunc(reps[:k], func(r Rep) bool { return r != RepSegmented })
			if kwayProbe(sets[:k]) != mixedOrSkewed {
				t.Fatalf("reps %v k=%d: kwayProbe = %v, want %v", reps, k, !mixedOrSkewed, mixedOrSkewed)
			}
			wantProbes := uint64(0)
			if mixedOrSkewed {
				wantProbes = 5
			}
			snap = sink.Snapshot()
			if probes := snap.Counter(stats.CtrQueriesKWayProbe) - before; probes != wantProbes {
				t.Fatalf("reps %v k=%d: %d probe-chain queries recorded, want %d", reps, k, probes, wantProbes)
			}
		}
	}
}

// TestHybridBatchParity checks the batch engine against per-pair counts when
// the query and candidates mix representations.
func TestHybridBatchParity(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	e := NewExecutor()
	qElems := randSet(rng, 3000, 1<<15)
	candElems := [][]uint32{
		randSet(rng, 2000, 1<<15),
		randSet(rng, 100, 1<<15),
		randSet(rng, 800, 1<<12),
		nil,
		randSet(rng, 5000, 1<<15),
	}
	candReps := []Rep{RepDense, RepArray, RepSegmented, RepArray, RepDense}
	for _, qRep := range allReps {
		q := buildRep(t, qElems, qRep)
		cands := make([]*Set, len(candElems))
		want := make([]int, len(candElems))
		for i := range candElems {
			cands[i] = buildRep(t, candElems[i], candReps[i])
			want[i] = len(refIntersect(qElems, candElems[i]))
		}
		out := make([]int, len(cands))
		e.CountMany(q, cands, out)
		for i := range want {
			if out[i] != want[i] {
				t.Fatalf("qRep %v CountMany[%d] = %d, want %d", qRep, i, out[i], want[i])
			}
		}
		e.CountManyParallel(q, cands, out, 4)
		for i := range want {
			if out[i] != want[i] {
				t.Fatalf("qRep %v CountManyParallel[%d] = %d, want %d", qRep, i, out[i], want[i])
			}
		}
		if err := e.CountManyCtx(context.Background(), q, cands, out); err != nil {
			t.Fatalf("CountManyCtx: %v", err)
		}
		for i := range want {
			if out[i] != want[i] {
				t.Fatalf("qRep %v CountManyCtx[%d] = %d, want %d", qRep, i, out[i], want[i])
			}
		}
		total := 0
		for _, w := range want {
			total += w
		}
		dst := make([]uint32, total+8)
		counts := make([]int, len(cands))
		if n := e.IntersectManyInto(dst, counts, q, cands); n != total {
			t.Fatalf("qRep %v IntersectManyInto = %d, want %d", qRep, n, total)
		}
		for i := range want {
			if counts[i] != want[i] {
				t.Fatalf("qRep %v IntersectManyInto counts[%d] = %d, want %d", qRep, i, counts[i], want[i])
			}
		}
		perCand := make([]int, len(cands))
		e.VisitMany(q, cands, func(c int, _ uint32) { perCand[c]++ })
		for i := range want {
			if perCand[i] != want[i] {
				t.Fatalf("qRep %v VisitMany[%d] visited %d, want %d", qRep, i, perCand[i], want[i])
			}
		}
	}
}

// TestHybridCtxCancellation: cross-representation context paths must honor
// an already-cancelled context.
func TestHybridCtxCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	e := NewExecutor()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, ra := range allReps {
		for _, rb := range allReps {
			a := buildRep(t, randSet(rng, 5000, 1<<18), ra)
			b := buildRep(t, randSet(rng, 4000, 1<<18), rb)
			if _, err := e.CountCtx(ctx, a, b); err == nil {
				t.Errorf("%v×%v CountCtx ignored cancelled context", ra, rb)
			}
			dst := make([]uint32, 5000)
			if _, err := e.IntersectIntoCtx(ctx, dst, a, b); err == nil {
				t.Errorf("%v×%v IntersectIntoCtx ignored cancelled context", ra, rb)
			}
		}
	}
	sets := []*Set{
		buildRep(t, randSet(rng, 5000, 1<<16), RepDense),
		buildRep(t, randSet(rng, 5000, 1<<16), RepSegmented),
		buildRep(t, randSet(rng, 5000, 1<<16), RepArray),
	}
	if _, err := e.CountKCtx(ctx, sets...); err == nil {
		t.Error("mixed-rep CountKCtx ignored cancelled context")
	}
}

// TestHybridZeroAllocWarm: every cross-representation query path must be
// allocation-free once the executor is warm — the same contract the
// segmented paths already carry.
func TestHybridZeroAllocWarm(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	e := NewExecutor()
	pairs := [][2]*Set{
		{buildRep(t, randSet(rng, 2000, 1<<16), RepArray), buildRep(t, randSet(rng, 3000, 1<<16), RepSegmented)},
		{buildRep(t, randSet(rng, 2000, 1<<13), RepDense), buildRep(t, randSet(rng, 3000, 1<<13), RepDense)},
		{buildRep(t, randSet(rng, 2000, 1<<14), RepArray), buildRep(t, randSet(rng, 3000, 1<<14), RepDense)},
		{buildRep(t, randSet(rng, 2000, 1<<15), RepSegmented), buildRep(t, randSet(rng, 3000, 1<<15), RepDense)},
		{buildRep(t, randSet(rng, 200, 1<<16), RepArray), buildRep(t, randSet(rng, 150, 1<<16), RepArray)},
	}
	dst := make([]uint32, 4000)
	for i, p := range pairs {
		a, b := p[0], p[1]
		e.Count(a, b) // warm scratch
		e.Intersect(dst, a, b)
		if got := testing.AllocsPerRun(20, func() { e.Count(a, b) }); got != 0 {
			t.Errorf("pair %d (%v×%v): Count allocates %.1f/op warm", i, a.Rep(), b.Rep(), got)
		}
		if got := testing.AllocsPerRun(20, func() { e.Intersect(dst, a, b) }); got != 0 {
			t.Errorf("pair %d (%v×%v): Intersect allocates %.1f/op warm", i, a.Rep(), b.Rep(), got)
		}
	}
	// Batch path with mixed candidates.
	q := buildRep(t, randSet(rng, 3000, 1<<15), RepSegmented)
	cands := []*Set{pairs[0][0], pairs[1][0], pairs[3][1], q}
	out := make([]int, len(cands))
	e.CountMany(q, cands, out)
	if got := testing.AllocsPerRun(20, func() { e.CountMany(q, cands, out) }); got != 0 {
		t.Errorf("CountMany mixed allocates %.1f/op warm", got)
	}
	// Mixed k-way.
	sets := []*Set{q, pairs[0][0], pairs[1][0]}
	e.CountK(sets...)
	if got := testing.AllocsPerRun(20, func() { e.CountK(sets...) }); got != 0 {
		t.Errorf("CountK mixed allocates %.1f/op warm", got)
	}
}

// TestHybridStatsCounters: cross-representation queries must record the
// cross query counter, the per-pair dispatch counter, and build counters
// must reflect the chosen representations.
func TestHybridStatsCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(76))
	k := stats.New()
	EnableStats(k)
	defer EnableStats(nil)
	e := NewExecutor()
	e.EnableStats(k)

	arr := buildRep(t, randSet(rng, 1000, 1<<16), RepArray)
	den := buildRep(t, randSet(rng, 1000, 1<<12), RepDense)
	seg := buildRep(t, randSet(rng, 1000, 1<<16), RepSegmented)

	e.Count(arr, seg)
	e.Count(den, den)
	e.Count(arr, den)
	e.Count(seg, den)
	e.Count(arr, arr)

	snap := e.Stats()
	if got := snap.Counter(stats.CtrQueriesCross); got != 5 {
		t.Errorf("QueriesCross = %d, want 5", got)
	}
	for _, c := range []struct {
		ctr  stats.Counter
		name string
	}{
		{stats.CtrDispSegArray, "seg×array"},
		{stats.CtrDispDenseDense, "dense×dense"},
		{stats.CtrDispArrayDense, "array×dense"},
		{stats.CtrDispSegDense, "seg×dense"},
		{stats.CtrDispArrayArray, "array×array"},
	} {
		if got := snap.Counter(c.ctr); got != 1 {
			t.Errorf("dispatch counter %s = %d, want 1", c.name, got)
		}
	}
	if got := snap.Latency(stats.LatCross).Count; got != 5 {
		t.Errorf("LatCross count = %d, want 5", got)
	}
	gk := k.Snapshot()
	if got := gk.Counter(stats.CtrBuildArray); got < 1 {
		t.Errorf("BuildArray = %d, want >= 1", got)
	}
	if got := gk.Counter(stats.CtrBuildDense); got < 1 {
		t.Errorf("BuildDense = %d, want >= 1", got)
	}
	if got := gk.Counter(stats.CtrBuildSegmented); got < 1 {
		t.Errorf("BuildSegmented = %d, want >= 1", got)
	}
}

// TestHybridSerializeRoundTrip: v3 single-set snapshots must round-trip all
// three representations bit-exactly, preserving the representation.
func TestHybridSerializeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	cases := []struct {
		elems []uint32
		rep   Rep
	}{
		{nil, RepArray},
		{[]uint32{42}, RepArray},
		{randSet(rng, 200, 1<<30), RepArray},
		{randSet(rng, 3000, 1<<12), RepDense},
		{[]uint32{0, 63, 64, 1<<32 - 1}, RepDense},
		{randSet(rng, 3000, 1<<20), RepSegmented},
		{randSet(rng, 500, 1<<10), RepDense},
	}
	for i, c := range cases {
		orig := buildRep(t, c.elems, c.rep)
		got := roundTrip(t, orig)
		if got.Rep() != orig.Rep() {
			t.Fatalf("case %d: round trip changed rep %v → %v", i, orig.Rep(), got.Rep())
		}
		if got.Len() != orig.Len() {
			t.Fatalf("case %d: round trip changed len %d → %d", i, orig.Len(), got.Len())
		}
		ge, oe := got.Elements(), orig.Elements()
		for j := range oe {
			if ge[j] != oe[j] {
				t.Fatalf("case %d: element %d differs", i, j)
			}
		}
		if orig.Len() > 0 {
			// A deserialized set must intersect correctly with a live one.
			other := buildRep(t, c.elems[:max(1, len(c.elems)/2)], RepSegmented)
			if Count(got, other) != Count(orig, other) {
				t.Fatalf("case %d: deserialized set intersects differently", i)
			}
		}
	}
}

// TestHybridSnapshotIntegrity: every single-byte flip and every truncation
// of a v3 array or dense snapshot must fail the load.
func TestHybridSnapshotIntegrity(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	for _, rep := range []Rep{RepArray, RepDense} {
		s := buildRep(t, randSet(rng, 300, 1<<12), rep)
		var buf bytes.Buffer
		if _, err := s.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		testutil.ForEachByteFlip(buf.Bytes(), func(pos int, corrupted []byte) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("%v: ReadSet panicked on flip at byte %d: %v", rep, pos, r)
				}
			}()
			if _, err := ReadSet(bytes.NewReader(corrupted)); err == nil {
				t.Fatalf("%v: flip at byte %d of %d loaded successfully", rep, pos, buf.Len())
			}
		})
		testutil.ForEachTruncation(buf.Bytes(), func(n int, trunc []byte) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("%v: ReadSet panicked on %d-byte truncation: %v", rep, n, r)
				}
			}()
			if _, err := ReadSet(bytes.NewReader(trunc)); err == nil {
				t.Fatalf("%v: truncation to %d of %d bytes loaded", rep, n, buf.Len())
			}
		})
	}
}

// TestHybridCorpusRoundTrip: a mixed-representation corpus must round-trip
// through the v3 corpus stream with representations preserved and the sets
// rebuilt into a working arena.
func TestHybridCorpusRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(80))
	lists := [][]uint32{
		randSet(rng, 3000, 1<<20), // auto: segmented
		randSet(rng, 50, 1<<20),   // auto: array
		randSet(rng, 3000, 1<<12), // auto: dense
		nil,                       // auto: array (empty)
		randSet(rng, 2000, 1<<11), // auto: dense
	}
	cfg := DefaultConfig()
	cfg.Rep = RepAuto
	sets, err := BuildSets(lists, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantReps := []Rep{RepSegmented, RepArray, RepDense, RepArray, RepDense}
	for i, s := range sets {
		if s.Rep() != wantReps[i] {
			t.Fatalf("set %d built as %v, want %v", i, s.Rep(), wantReps[i])
		}
	}
	var buf bytes.Buffer
	if _, err := WriteCorpus(&buf, sets); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadCorpus(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != len(sets) {
		t.Fatalf("loaded %d sets, want %d", len(loaded), len(sets))
	}
	for i, s := range loaded {
		if s.Rep() != sets[i].Rep() {
			t.Fatalf("set %d loaded as %v, want %v", i, s.Rep(), sets[i].Rep())
		}
		if s.Len() != sets[i].Len() {
			t.Fatalf("set %d loaded len %d, want %d", i, s.Len(), sets[i].Len())
		}
		ge, oe := s.Elements(), sets[i].Elements()
		for j := range oe {
			if ge[j] != oe[j] {
				t.Fatalf("set %d element %d differs after corpus round trip", i, j)
			}
		}
	}
	// Loaded sets must intersect with each other and with the originals.
	for i := range loaded {
		for j := range sets {
			if Count(loaded[i], loaded[j]) != Count(sets[i], sets[j]) {
				t.Fatalf("loaded corpus intersects differently at (%d,%d)", i, j)
			}
		}
	}
	// Every single-byte flip must fail the whole-file checksum.
	testutil.ForEachByteFlip(buf.Bytes(), func(pos int, corrupted []byte) {
		if _, err := ReadCorpus(bytes.NewReader(corrupted)); err == nil {
			t.Fatalf("corpus flip at byte %d loaded successfully", pos)
		}
	})
}

// TestHybridSetAccessors pins the per-representation accessor behavior the
// public API documents.
func TestHybridSetAccessors(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	elems := randSet(rng, 1000, 1<<12)
	ded := sortDedup(make([]uint32, len(elems)), elems)

	arr := buildRep(t, elems, RepArray)
	if arr.BitmapBits() != 0 || arr.NumSegments() != 0 || arr.Segment(0) != nil {
		t.Error("array set exposes segmented accessors")
	}
	if arr.MemoryBytes() >= buildRep(t, elems, RepSegmented).MemoryBytes() {
		t.Error("array rep not smaller than segmented for sparse data")
	}

	den := buildRep(t, elems, RepDense)
	if den.NumSegments() != 0 || den.Segment(0) != nil {
		t.Error("dense set exposes segmented accessors")
	}
	if den.BitmapBits() == 0 || den.BitmapBits()%64 != 0 {
		t.Errorf("dense BitmapBits = %d, want positive multiple of 64", den.BitmapBits())
	}

	for _, s := range []*Set{arr, den} {
		for _, v := range ded {
			if !s.Contains(v) {
				t.Fatalf("%v missing element %d", s.Rep(), v)
			}
		}
		misses := 0
		for i := 0; i < 1000; i++ {
			if !s.Contains(uint32(1<<20 + i)) {
				misses++
			}
		}
		if misses != 1000 {
			t.Errorf("%v Contains false-positive on out-of-range values", s.Rep())
		}
		st := s.Stats()
		if st.Rep != s.Rep() || st.MemoryBytes != s.MemoryBytes() {
			t.Errorf("%v Stats rep/mem mismatch: %+v", s.Rep(), st)
		}
		el := s.Elements()
		if len(el) != len(ded) {
			t.Fatalf("%v Elements len %d, want %d", s.Rep(), len(el), len(ded))
		}
		for i := range ded {
			if el[i] != ded[i] {
				t.Fatalf("%v Elements[%d] = %d, want %d", s.Rep(), i, el[i], ded[i])
			}
		}
	}
}

// TestHybridTraceSuppression: kernel-level traces are segment-pair concepts;
// cross-representation pairs must return empty traces, not panic.
func TestHybridTraceSuppression(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	arr := buildRep(t, randSet(rng, 500, 1<<16), RepArray)
	seg := buildRep(t, randSet(rng, 3000, 1<<16), RepSegmented)
	if tr := DispatchTrace(arr, seg); tr != nil {
		t.Errorf("DispatchTrace(cross) = %v, want nil", tr)
	}
	if tr := HashProbeTrace(arr, seg); tr != nil {
		t.Errorf("HashProbeTrace(cross) = %v, want nil", tr)
	}
}
