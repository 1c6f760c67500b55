package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"fesia/internal/simd"
	"fesia/internal/stats"
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
	// Repeat on the same executor: its buffers must be reusable.
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

	// Incompatible candidates panic: a seed or segment-size mismatch.
	for _, cfg := range []Config{{Seed: 99}, {SegBits: 16}} {
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
	// A width mismatch only changes the bitmap's default scale: the
	// candidate intersects like any other.
	sse := MustNewSet(randSet(rng, 500, 1<<12), Config{Width: simd.WidthSSE})
	ex.CountMany(q, []*Set{sse}, out)
	if want := ex.Count(q, sse); out[0] != want {
		t.Errorf("SSE-width candidate count = %d, want %d", out[0], want)
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

// FuzzCountMany drives the batch engine against the pairwise loop with
// adversarial sizes and universes.
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

// TestManyFrame drives the one Many frame over its lattice:
//
//   - sink: count, materialize (counts plus dst) or visit;
//   - checkpoint: none, live, or cancelled after k candidates;
//   - representation pair: each batch interleaves candidates of all three
//     representations and sizes from skewed to larger than the query, so
//     every query representation meets all 3×3 query/candidate pairs;
//   - workers: 1, or 4 pool workers over the size-ordered schedule (the
//     count sink; the frame parallelizes nothing else);
//   - batch: a 4,000-element query (1,024 bitmap words), whose seg×seg
//     merges run the merge body's mask walk on the AVX2 rung and its word
//     loop on the scalar rung, or a triangle-shaped one, a query of 8
//     elements against candidates of 0-40, whose merges run the word loop;
//   - rung: every rung of the ladder, since the rule picks each rung's
//     arms (the AVX-512 rung hashes every candidate of the 4,000-element
//     query, so its mask walk runs on the AVX2 rung).
//
// An uncancelled batch must match the pairwise Count and Intersect of
// another executor per candidate: counts and element order exactly, and a
// merged seg×seg candidate's order must be segmentOrder's. A cancelled
// batch must return the checkpoint's error and count one cancellation. Warm
// count and materialize batches must make 0 allocations. The public entry
// points are checked against the frame.
func TestManyFrame(t *testing.T) {
	rng := rand.New(rand.NewSource(111))
	qElems := randSet(rng, 4000, 1<<15)
	var candElems [][]uint32
	for i := 0; i < 30; i++ {
		switch i % 5 {
		case 0:
			candElems = append(candElems, randSet(rng, 300+rng.Intn(3000), 1<<15)) // merge
		case 1:
			candElems = append(candElems, randSet(rng, 3+rng.Intn(200), 1<<15)) // skewed: the candidate probes
		case 2:
			candElems = append(candElems, randSet(rng, 500+rng.Intn(2000), 1<<12)) // packed
		case 3:
			candElems = append(candElems, nil)
		case 4:
			candElems = append(candElems, randSet(rng, 20000, 1<<15)) // the query probes
		}
	}
	// The triangle-shaped batch: a neighbor set of 8 against neighbor sets
	// of 0-40 drawn from 128 vertices, so most candidates share a few.
	triQ := randSet(rng, 8, 128)
	var triElems [][]uint32
	for i := 0; i < 60; i++ {
		triElems = append(triElems, randSet(rng, rng.Intn(48), 128))
	}
	walks := map[mergeWalk]bool{} // the merge body's walks run (walkOf)
	eachRung(t, func(rung string) {
		for _, b := range []struct {
			name   string
			qElems []uint32
			cands  [][]uint32
		}{{rung + " wide", qElems, candElems}, {rung + " triangle", triQ, triElems}} {
			manyFrameBatch(t, rng, b.name, b.qElems, b.cands, walks)
		}
	})
	if !walks[walkWords] || (simd.HasAsm() && !walks[walkMasks]) {
		t.Errorf("merges ran the word loop %v, the mask walk %v; want both", walks[walkWords], walks[walkMasks])
	}
}

// manyFrameBatch runs TestManyFrame's lattice over one batch on the live
// rung, marking in walks the merge body's walks its seg×seg merges run.
func manyFrameBatch(t *testing.T, rng *rand.Rand, batch string, qElems []uint32, candElems [][]uint32, walks map[mergeWalk]bool) {
	rng.Shuffle(len(candElems), func(i, j int) { candElems[i], candElems[j] = candElems[j], candElems[i] })
	cands := make([]*Set, len(candElems))
	for i, el := range candElems {
		cands[i] = buildRep(t, el, allReps[i%3])
	}

	sinks := []string{"count", "materialize", "visit"}
	checkpoints := []string{"none", "live", "cancelled"}
	live, cancel := context.WithCancel(context.Background())
	defer cancel()

	for _, qRep := range allReps {
		q := buildRep(t, qElems, qRep)
		plain := NewExecutor()
		wantCount := make([]int, len(cands))
		wantElems := make([][]uint32, len(cands))
		bound := 0
		for i, c := range cands {
			buf := make([]uint32, min(q.Len(), c.Len()))
			wantCount[i] = plain.Count(q, c)
			wantElems[i] = buf[:plain.Intersect(buf, q, c)]
			if wantCount[i] != len(refIntersect(qElems, candElems[i])) || len(wantElems[i]) != wantCount[i] {
				t.Fatalf("%s qRep %v candidate %d: pairwise Count %d, Intersect %d, reference %d",
					batch, qRep, i, wantCount[i], len(wantElems[i]), len(refIntersect(qElems, candElems[i])))
			}
			if planPair(q, c, armAuto).arm == armMerge {
				if !slices.Equal(wantElems[i], segmentOrder(q, c)) {
					t.Fatalf("%s qRep %v candidate %d: the merge's order is not segment order", batch, qRep, i)
				}
				walks[walkOf(ordered(q, c))] = true
			}
			bound += len(buf)
		}
		e := NewExecutor()
		e.EnableStats(stats.New())
		cancellations := func() uint64 {
			snap := e.Stats()
			return snap.Counter(stats.CtrCancellations)
		}
		out := make([]int, len(cands))
		dst := make([]uint32, bound)
		visited := make([][]uint32, len(cands))
		cand := 0
		emit := func(v uint32) { visited[cand] = append(visited[cand], v) }
		for _, sink := range sinks {
			for _, workers := range []int{1, 4} {
				if workers > 1 && sink != "count" {
					continue
				}
				s := manySink{out: out}
				switch sink {
				case "materialize":
					s.dst = dst
				case "visit":
					s = manySink{emit: emit, cand: &cand}
				}
				for _, cp := range checkpoints {
					name := fmt.Sprintf("%s qRep %v sink %s workers %d checkpoint %s", batch, qRep, sink, workers, cp)
					var ck checkpoint
					switch cp {
					case "live":
						ck = live
					case "cancelled":
						ck = newCancelAfter(1 + len(cands)/2) // the entry check, then half the candidates
					}
					clear(out)
					for i := range visited {
						visited[i] = visited[i][:0]
					}
					cancels := cancellations()
					total, err := e.many(ck, q, cands, workers, s)
					if cp == "cancelled" {
						if !errors.Is(err, context.Canceled) || total != 0 {
							t.Fatalf("%s: = %d, %v; want 0, context.Canceled", name, total, err)
						}
						if got := cancellations() - cancels; got != 1 {
							t.Fatalf("%s: counted %d cancellations, want 1", name, got)
						}
						continue
					}
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					off := 0
					for i := range cands {
						var got []uint32
						switch sink {
						case "count":
							if out[i] != wantCount[i] {
								t.Fatalf("%s: candidate %d counted %d, pairwise %d", name, i, out[i], wantCount[i])
							}
							continue
						case "materialize":
							if out[i] != wantCount[i] {
								t.Fatalf("%s: candidate %d counted %d, pairwise %d", name, i, out[i], wantCount[i])
							}
							got = dst[off : off+out[i]]
							off += out[i]
						case "visit":
							got = visited[i]
						}
						if !slices.Equal(got, wantElems[i]) {
							t.Fatalf("%s: candidate %d wrote %d elements, pairwise %d, or their order differs",
								name, i, len(got), len(wantElems[i]))
						}
					}
					if sink == "materialize" && total != off {
						t.Fatalf("%s: total %d, counts sum to %d", name, total, off)
					}
					if sink != "visit" {
						// Warm every lane's buffers.
						warm := func() { e.many(ck, q, cands, workers, s) }
						for range 4 {
							warm()
						}
						if n := testing.AllocsPerRun(5, warm); n != 0 {
							t.Fatalf("%s: a warm batch makes %v allocations", name, n)
						}
					}
				}
			}
		}
		// The entry points are calls into the frame.
		ctx := context.Background()
		for _, run := range []func() error{
			func() error { e.CountMany(q, cands, out); return nil },
			func() error { return e.CountManyCtx(ctx, q, cands, out) },
			func() error { e.CountManyParallel(q, cands, out, 4); return nil },
			func() error { return e.CountManyParallelCtx(ctx, q, cands, out, 4) },
			func() error { e.IntersectManyInto(dst, out, q, cands); return nil },
		} {
			clear(out)
			if err := run(); err != nil || !slices.Equal(out, wantCount) {
				t.Fatalf("%s qRep %v: an entry point's counts diverge from the pairwise loop (%v)", batch, qRep, err)
			}
		}
		perCand := make([]int, len(cands))
		e.VisitMany(q, cands, func(i int, _ uint32) { perCand[i]++ })
		if !slices.Equal(perCand, wantCount) {
			t.Fatalf("%s qRep %v: VisitMany's counts diverge from the pairwise loop", batch, qRep)
		}
	}
}
