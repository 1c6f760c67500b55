package core

import (
	"math/rand"
	"testing"

	"fesia/internal/simd"
)

// batchFixture builds a one-vs-many workload with deliberately mixed
// candidate sizes: tiny (hash-strategy skew), medium, larger than the query
// (so the merge ordering flips), and empty.
func batchFixture(t testing.TB, seed int64, numCand int) (*Set, []*Set) {
	rng := rand.New(rand.NewSource(seed))
	q := MustNewSet(randSet(rng, 4000, 1<<16), DefaultConfig())
	lists := make([][]uint32, numCand)
	for i := range lists {
		switch i % 6 {
		case 0:
			lists[i] = randSet(rng, 3, 1<<16) // dramatic skew -> hash, candidate probes
		case 1:
			lists[i] = randSet(rng, 200, 1<<16)
		case 2:
			lists[i] = randSet(rng, 4000, 1<<16)
		case 3:
			lists[i] = randSet(rng, 9000, 1<<16) // larger than q -> ordering flips
		case 4:
			lists[i] = randSet(rng, 20000, 1<<16) // q becomes the probing side -> cached positions
		case 5:
			lists[i] = nil // empty candidate
		}
	}
	cands, err := BuildSets(lists, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return q, cands
}

func TestCountManyParity(t *testing.T) {
	q, cands := batchFixture(t, 101, 60)
	ex := NewExecutor()
	out := make([]int, len(cands))
	ex.CountMany(q, cands, out)
	for i, c := range cands {
		if want := Count(q, c); out[i] != want {
			t.Errorf("candidate %d (len %d): CountMany %d, pairwise Count %d",
				i, c.Len(), out[i], want)
		}
	}
	// Repeat on the same executor: staged buffers must be reusable.
	ex.CountMany(q, cands, out)
	for i, c := range cands {
		if want := Count(q, c); out[i] != want {
			t.Errorf("warm candidate %d: CountMany %d, want %d", i, out[i], want)
		}
	}
	// Pooled wrapper agrees.
	out2 := make([]int, len(cands))
	CountMany(q, cands, out2)
	for i := range out {
		if out[i] != out2[i] {
			t.Errorf("wrapper disagrees at %d: %d vs %d", i, out2[i], out[i])
		}
	}
}

func TestIntersectManyIntoParity(t *testing.T) {
	q, cands := batchFixture(t, 102, 40)
	ex := NewExecutor()
	bound := 0
	for _, c := range cands {
		bound += min(q.Len(), c.Len())
	}
	dst := make([]uint32, bound)
	counts := make([]int, len(cands))
	total := ex.IntersectManyInto(dst, counts, q, cands)

	sum := 0
	pair := make([]uint32, q.Len()+20000)
	for i, c := range cands {
		n := Intersect(pair, q, c)
		if n != counts[i] {
			t.Fatalf("candidate %d: count %d, pairwise %d", i, counts[i], n)
		}
		seg := dst[sum : sum+n]
		for j := 0; j < n; j++ {
			if seg[j] != pair[j] {
				t.Fatalf("candidate %d: element %d = %d, pairwise wrote %d",
					i, j, seg[j], pair[j])
			}
		}
		sum += n
	}
	if total != sum {
		t.Fatalf("total %d, sum of counts %d", total, sum)
	}
}

func TestVisitManyParity(t *testing.T) {
	q, cands := batchFixture(t, 103, 25)
	ex := NewExecutor()
	got := make([][]uint32, len(cands))
	ex.VisitMany(q, cands, func(i int, v uint32) {
		got[i] = append(got[i], v)
	})
	dst := make([]uint32, q.Len()+9000)
	for i, c := range cands {
		n := Intersect(dst, q, c)
		if len(got[i]) != n {
			t.Fatalf("candidate %d: visited %d elements, pairwise %d", i, len(got[i]), n)
		}
		for j := 0; j < n; j++ {
			if got[i][j] != dst[j] {
				t.Fatalf("candidate %d: element %d = %d, want %d", i, j, got[i][j], dst[j])
			}
		}
	}
}

func TestCountManyParallelParity(t *testing.T) {
	q, cands := batchFixture(t, 104, 127)
	want := make([]int, len(cands))
	NewExecutor().CountMany(q, cands, want)
	for _, workers := range []int{1, 2, 3, 8, 200} {
		ex := NewExecutor()
		out := make([]int, len(cands))
		ex.CountManyParallel(q, cands, out, workers)
		for i := range out {
			if out[i] != want[i] {
				t.Errorf("workers=%d candidate %d: %d, want %d", workers, i, out[i], want[i])
			}
		}
		// Warm re-run on the same executor.
		ex.CountManyParallel(q, cands, out, workers)
		for i := range out {
			if out[i] != want[i] {
				t.Errorf("workers=%d warm candidate %d: %d, want %d", workers, i, out[i], want[i])
			}
		}
	}
}

// TestCountManyAllocs: the acceptance gate — warm CountMany and
// IntersectManyInto perform zero heap allocations.
func TestCountManyAllocs(t *testing.T) {
	q, cands := batchFixture(t, 105, 32)
	ex := NewExecutor()
	out := make([]int, len(cands))
	ex.CountMany(q, cands, out) // warm up staging buffer

	if avg := testing.AllocsPerRun(20, func() {
		ex.CountMany(q, cands, out)
	}); avg != 0 {
		t.Errorf("warm CountMany allocates %.1f times per run", avg)
	}

	bound := 0
	for _, c := range cands {
		bound += min(q.Len(), c.Len())
	}
	dst := make([]uint32, bound)
	counts := make([]int, len(cands))
	ex.IntersectManyInto(dst, counts, q, cands)
	if avg := testing.AllocsPerRun(20, func() {
		ex.IntersectManyInto(dst, counts, q, cands)
	}); avg != 0 {
		t.Errorf("warm IntersectManyInto allocates %.1f times per run", avg)
	}
}

func TestCountMergeBreakdownAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(106))
	a := MustNewSet(randSet(rng, 20000, 1<<18), DefaultConfig())
	b := MustNewSet(randSet(rng, 20000, 1<<18), DefaultConfig())
	ex := NewExecutor()
	want := CountMerge(a, b)
	bd := ex.CountMergeBreakdown(a, b)
	if bd.Count != want {
		t.Fatalf("breakdown count %d, CountMerge %d", bd.Count, want)
	}
	if avg := testing.AllocsPerRun(10, func() {
		if ex.CountMergeBreakdown(a, b).Count != want {
			t.Fatal("count drifted")
		}
	}); avg != 0 {
		t.Errorf("warm CountMergeBreakdown allocates %.1f times per run", avg)
	}
}

func TestCountManyEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	q := MustNewSet(randSet(rng, 100, 1<<12), DefaultConfig())
	empty := MustNewSet(nil, DefaultConfig())
	ex := NewExecutor()

	// No candidates: no-op.
	ex.CountMany(q, nil, nil)

	// Empty query: all zero.
	c := MustNewSet(randSet(rng, 100, 1<<12), DefaultConfig())
	out := make([]int, 2)
	ex.CountMany(empty, []*Set{c, c}, out)
	if out[0] != 0 || out[1] != 0 {
		t.Errorf("empty query counts = %v", out)
	}

	// Short output slice panics.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("short out slice should panic")
			}
		}()
		ex.CountMany(q, []*Set{c, c}, make([]int, 1))
	}()

	// Incompatible candidates panic: a seed, segment-size or width mismatch.
	for _, cfg := range []Config{{Seed: 99}, {SegBits: 16}, {Width: simd.WidthSSE}} {
		other := MustNewSet(randSet(rng, 50, 1<<12), cfg)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("candidate built with %+v should panic", cfg)
				}
			}()
			ex.CountMany(q, []*Set{other}, out)
		}()
	}

	// Sets of two BuildSets calls with equal configs share no build state:
	// compatible takes its slow path, and they still intersect.
	lists := [][]uint32{randSet(rng, 300, 1<<12), randSet(rng, 40, 1<<12), randSet(rng, 900, 1<<12)}
	first, err := BuildSets(lists[:1], DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	second, err := BuildSets(lists[1:], DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ex.CountMany(first[0], second, out)
	for i, l := range lists[1:] {
		if want := len(refIntersect(lists[0], l)); out[i] != want {
			t.Errorf("cross-build candidate %d: count %d, want %d", i, out[i], want)
		}
	}
}

// FuzzCountMany drives the staged dispatch path against the fused pairwise
// loop with adversarial sizes and universes.
func FuzzCountMany(f *testing.F) {
	f.Add(int64(1), uint16(100), uint16(50), uint16(3000))
	f.Add(int64(2), uint16(0), uint16(1), uint16(65535))
	f.Add(int64(3), uint16(5000), uint16(4999), uint16(64))
	f.Fuzz(func(t *testing.T, seed int64, nq, nc1, nc2 uint16) {
		rng := rand.New(rand.NewSource(seed))
		universe := uint32(1 << (4 + rng.Intn(14)))
		q := MustNewSet(randSet(rng, int(nq)%5000, universe), DefaultConfig())
		lists := [][]uint32{
			randSet(rng, int(nc1)%5000, universe),
			randSet(rng, int(nc2)%5000, universe),
			nil,
		}
		cands, err := BuildSets(lists, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		out := make([]int, len(cands))
		ex := NewExecutor()
		ex.CountMany(q, cands, out)
		for i, c := range cands {
			if want := Count(q, c); out[i] != want {
				t.Fatalf("candidate %d (q=%d c=%d u=%d): CountMany %d, want %d",
					i, q.Len(), c.Len(), universe, out[i], want)
			}
		}
		// Staged materialization agrees too.
		bound := 0
		for _, c := range cands {
			bound += min(q.Len(), c.Len())
		}
		dst := make([]uint32, bound)
		counts := make([]int, len(cands))
		ex.IntersectManyInto(dst, counts, q, cands)
		for i := range cands {
			if counts[i] != out[i] {
				t.Fatalf("candidate %d: IntersectManyInto count %d, CountMany %d",
					i, counts[i], out[i])
			}
		}
	})
}

func BenchmarkCountManyVsPairwise(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	q := MustNewSet(randSet(rng, 50000, 1<<20), DefaultConfig())
	lists := make([][]uint32, 256)
	for i := range lists {
		lists[i] = randSet(rng, 1000, 1<<20)
	}
	cands, err := BuildSets(lists, DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	out := make([]int, len(cands))
	ex := NewExecutor()
	b.Run("pairwise", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j, c := range cands {
				out[j] = ex.Count(q, c)
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ex.CountMany(q, cands, out)
		}
	})
	b.Run("batch-parallel", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ex.CountManyParallel(q, cands, out, 4)
		}
	})
}
