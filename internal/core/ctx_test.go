package core

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"fesia/internal/stats"
)

// TestCtxParityUncancelled: with a background context every ctx-aware path
// must return exactly what its plain counterpart returns, across strategies.
func TestCtxParityUncancelled(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	e := NewExecutor()
	ctx := context.Background()
	for trial := 0; trial < 25; trial++ {
		cfg := DefaultConfig()
		sa := MustNewSet(randSet(rng, 1+rng.Intn(4000), 1<<15), cfg)
		sb := MustNewSet(randSet(rng, 1+rng.Intn(4000), 1<<15), cfg)
		sc := MustNewSet(randSet(rng, rng.Intn(600), 1<<15), cfg)

		if got, err := e.CountCtx(ctx, sa, sb); err != nil || got != Count(sa, sb) {
			t.Fatalf("trial %d: CountCtx = %d, %v; want %d, nil", trial, got, err, Count(sa, sb))
		}
		if got, err := e.CountCtx(ctx, sc, sa); err != nil || got != Count(sc, sa) {
			t.Fatalf("trial %d: CountCtx(skewed) = %d, %v; want %d", trial, got, err, Count(sc, sa))
		}
		if got, err := e.CountKCtx(ctx, sa, sb, sc); err != nil || got != CountK(sa, sb, sc) {
			t.Fatalf("trial %d: CountKCtx = %d, %v; want %d", trial, got, err, CountK(sa, sb, sc))
		}

		want := make([]uint32, min(sa.Len(), sb.Len()))
		wn := Intersect(want, sa, sb)
		got := make([]uint32, min(sa.Len(), sb.Len()))
		gn, err := e.IntersectIntoCtx(ctx, got, sa, sb)
		if err != nil || !slices.Equal(got[:gn], want[:wn]) {
			t.Fatalf("trial %d: IntersectIntoCtx wrote %d (%v), plain wrote %d or order differs",
				trial, gn, err, wn)
		}
		// Skewed pair exercises the hash branch of IntersectIntoCtx.
		wantH := make([]uint32, min(sc.Len(), sa.Len()))
		gotH := make([]uint32, min(sc.Len(), sa.Len()))
		wn = Intersect(wantH, sc, sa)
		gn, err = e.IntersectIntoCtx(ctx, gotH, sc, sa)
		if err != nil || gn != wn || !slices.Equal(gotH[:gn], wantH[:wn]) {
			t.Fatalf("trial %d: hash IntersectIntoCtx wrote %d (%v), want %d", trial, gn, err, wn)
		}
	}
}

// TestCtxManyParity: CountManyCtx and CountManyParallelCtx match CountMany on
// an uncancelled context, warm and cold, across worker counts.
func TestCtxManyParity(t *testing.T) {
	q, cands := batchFixture(t, 62, 64)
	ctx := context.Background()
	want := make([]int, len(cands))
	CountMany(q, cands, want)

	e := NewExecutor()
	out := make([]int, len(cands))
	for round := 0; round < 2; round++ { // cold then warm
		if err := e.CountManyCtx(ctx, q, cands, out); err != nil {
			t.Fatalf("round %d: CountManyCtx: %v", round, err)
		}
		if !slices.Equal(out, want) {
			t.Fatalf("round %d: CountManyCtx diverges from CountMany", round)
		}
	}
	for _, workers := range []int{1, 2, 3, 8} {
		clear(out)
		if err := e.CountManyParallelCtx(ctx, q, cands, out, workers); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !slices.Equal(out, want) {
			t.Fatalf("workers=%d: CountManyParallelCtx diverges from CountMany", workers)
		}
	}
}

// TestCtxPreCancelled: an already-cancelled context must fail every path
// immediately with context.Canceled, without touching destination state in
// confusing ways (counts report zero).
func TestCtxPreCancelled(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	sa := MustNewSet(randSet(rng, 3000, 1<<15), DefaultConfig())
	sb := MustNewSet(randSet(rng, 3000, 1<<15), DefaultConfig())
	e := NewExecutor()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	if n, err := e.CountCtx(ctx, sa, sb); !errors.Is(err, context.Canceled) || n != 0 {
		t.Fatalf("CountCtx = %d, %v; want 0, Canceled", n, err)
	}
	dst := make([]uint32, 3000)
	if n, err := e.IntersectIntoCtx(ctx, dst, sa, sb); !errors.Is(err, context.Canceled) || n != 0 {
		t.Fatalf("IntersectIntoCtx = %d, %v; want 0, Canceled", n, err)
	}
	if n, err := e.CountKCtx(ctx, sa, sb, sb); !errors.Is(err, context.Canceled) || n != 0 {
		t.Fatalf("CountKCtx = %d, %v; want 0, Canceled", n, err)
	}
	out := make([]int, 4)
	if err := e.CountManyCtx(ctx, sa, []*Set{sb, sb, sb, sb}, out); !errors.Is(err, context.Canceled) {
		t.Fatalf("CountManyCtx err = %v, want Canceled", err)
	}
	if err := e.CountManyParallelCtx(ctx, sa, []*Set{sb, sb, sb, sb}, out, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("CountManyParallelCtx err = %v, want Canceled", err)
	}
}

// TestCtxDeadline: a deadline that fires mid-query must surface as
// DeadlineExceeded, and the executor must remain fully usable afterwards.
func TestCtxDeadline(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	q := MustNewSet(randSet(rng, 2000, 1<<18), DefaultConfig())
	cands := make([]*Set, 512)
	for i := range cands {
		cands[i] = MustNewSet(randSet(rng, 2000, 1<<18), DefaultConfig())
	}
	e := NewExecutor()
	out := make([]int, len(cands))

	ctx, cancel := context.WithTimeout(context.Background(), time.Microsecond)
	defer cancel()
	// The deadline is (almost certainly) already expired; either way the call
	// must return promptly with DeadlineExceeded, never a wrong success.
	err := e.CountManyCtx(ctx, q, cands, out)
	if err != nil && !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("CountManyCtx err = %v, want DeadlineExceeded (or full completion)", err)
	}

	// The executor survives: a fresh uncancelled run is correct.
	want := make([]int, len(cands))
	CountMany(q, cands, want)
	if err := e.CountManyCtx(context.Background(), q, cands, out); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(out, want) {
		t.Fatal("executor corrupted after deadline abort")
	}
}

// TestCtxCancelLatencyManyParallel is the acceptance gate: a cancelled
// CountManyParallelCtx over >= 4096 candidates must return within 10ms of the
// cancellation firing.
func TestCtxCancelLatencyManyParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	q := MustNewSet(randSet(rng, 4000, 1<<18), DefaultConfig())
	cands := make([]*Set, 4096)
	for i := range cands {
		cands[i] = MustNewSet(randSet(rng, 200+rng.Intn(800), 1<<14), DefaultConfig())
	}
	e := NewExecutor()
	out := make([]int, len(cands))

	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		started := make(chan struct{})
		go func() {
			close(started)
			done <- e.CountManyParallelCtx(ctx, q, cands, out, workers)
		}()
		<-started
		time.Sleep(200 * time.Microsecond) // let the batch get going
		cancelAt := time.Now()
		cancel()
		select {
		case err := <-done:
			if lat := time.Since(cancelAt); err != nil && lat > 10*time.Millisecond {
				t.Fatalf("workers=%d: cancellation honored after %v, want <= 10ms", workers, lat)
			}
			// err == nil means the whole batch beat the cancel — fine.
		case <-time.After(5 * time.Second):
			t.Fatalf("workers=%d: cancelled batch never returned", workers)
		}
	}
}

// TestCtxBlockBoundaries exercises sets whose word counts straddle the
// checkpoint block size, so block slicing off-by-ones would show up.
func TestCtxBlockBoundaries(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	e := NewExecutor()
	ctx := context.Background()
	// ~1<<20 bitmap bits = 16384 words = 16 word blocks for the big set.
	big := MustNewSet(randSet(rng, 200_000, 1<<24), DefaultConfig())
	small := MustNewSet(randSet(rng, 180_000, 1<<24), DefaultConfig())
	if got, err := e.CountCtx(ctx, big, small); err != nil || got != Count(big, small) {
		t.Fatalf("CountCtx on multi-block sets = %d, %v; want %d", got, err, Count(big, small))
	}
	if got, err := e.CountKCtx(ctx, big, small, big); err != nil || got != CountK(big, small, big) {
		t.Fatalf("CountKCtx on multi-block sets = %d, %v; want %d", got, err, CountK(big, small, big))
	}
}

// TestCtxCancelInsideEveryArm cancels every ctx entry point at its first
// three checkpoints — the entry check, then the first two blocks of the
// driving loop — on inputs that span at least three blocks: the pair frame
// pinned to the merge arm (so a merge is cancelled on every rung, including
// the AVX-512 one, whose rule hashes these pairs), CountCtx and
// IntersectIntoCtx on the hash arm and all five cross pairs, CountKCtx on
// both k-way arms, and the two batch loops. A merge below the mask-walk
// cutover has two checkpoints, the entry check and its one word block, and
// is cancelled at both. Each cancelled call must return (0,
// context.Canceled), count one cancellation and no query or latency, and
// leave the executor answering the next query, under a live checkpoint,
// correctly.
func TestCtxCancelInsideEveryArm(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	sink := stats.New()
	e := NewExecutor()
	e.EnableStats(sink)

	// 40k-element segmented sets have 4096-word bitmaps (four ctxWordBlock
	// blocks, on the mask walk on the assembly rungs); 7k probing elements
	// are four ctxProbeBlock blocks; a 20k dense set over 2^18 values is
	// four ctxWordBlock word blocks. 100-element sets over 2^9 values share
	// elements in 32-word bitmaps, below maskWalkWords.
	big := func() []uint32 { return randSet(rng, 40_000, 1<<18) }
	l1, l2, l3 := big(), big(), big()
	m1, m2 := randSet(rng, 100, 1<<9), randSet(rng, 100, 1<<9)
	tiny1, tiny2 := buildRep(t, m1, RepSegmented), buildRep(t, m2, RepSegmented)
	if x, _ := ordered(tiny1, tiny2); len(x.bm.Words()) >= maskWalkWords {
		t.Fatalf("the tiny merge pair has %d words, not below the mask walk", len(x.bm.Words()))
	}
	l4 := randSet(rng, 7_000, 1<<18)
	l5 := randSet(rng, 20_000, 1<<18)
	l6 := randSet(rng, 25_000, 1<<18)
	seg1, seg2, seg3 := buildRep(t, l1, RepSegmented), buildRep(t, l2, RepSegmented), buildRep(t, l3, RepSegmented)
	small := buildRep(t, l4, RepSegmented)
	arr, arr2 := buildRep(t, l4, RepArray), buildRep(t, l1, RepArray)
	den, den2 := buildRep(t, l5, RepDense), buildRep(t, l6, RepDense)

	queries := func() (n uint64) {
		snap := e.Stats()
		for _, c := range []stats.Counter{stats.CtrQueriesMerge, stats.CtrQueriesHash,
			stats.CtrQueriesCross, stats.CtrQueriesKWay, stats.CtrQueriesBatch} {
			n += snap.Counter(c)
		}
		for h := stats.LatHist(0); h < stats.NumLatHists; h++ {
			n += snap.Latency(h).Count
		}
		return n
	}
	cancellations := func() uint64 {
		snap := e.Stats()
		return snap.Counter(stats.CtrCancellations)
	}
	// check cancels call at each of its first points checkpoints in turn.
	check := func(name string, points, want int, call func(ctx context.Context) (int, error)) {
		t.Helper()
		for k := 1; k <= points; k++ {
			cancels := cancellations()
			q := queries()
			if n, err := call(newCancelAfter(k - 1)); n != 0 || !errors.Is(err, context.Canceled) {
				t.Fatalf("%s cancelled at checkpoint %d = %d, %v; want 0, context.Canceled", name, k, n, err)
			}
			if got := cancellations() - cancels; got != 1 {
				t.Fatalf("%s cancelled at checkpoint %d counted %d cancellations, want 1", name, k, got)
			}
			if queries() != q {
				t.Fatalf("%s cancelled at checkpoint %d recorded a query counter or latency", name, k)
			}
			if n, err := call(context.Background()); err != nil || n != want {
				t.Fatalf("%s after a cancellation at checkpoint %d = %d, %v; want %d", name, k, n, err, want)
			}
		}
	}

	merges := []struct {
		name   string
		a, b   *Set
		la, lb []uint32
		points int
	}{
		{"merge", seg1, seg2, l1, l2, 3},
		{"merge below the mask walk", tiny1, tiny2, m1, m2, 2},
	}
	for _, p := range merges {
		want := len(refIntersect(p.la, p.lb))
		check("count "+p.name, p.points, want, func(ctx context.Context) (int, error) {
			return e.pair(ctx, p.a, p.b, armMerge, nil, nil)
		})
		dst := make([]uint32, min(p.a.Len(), p.b.Len()))
		check("intersect "+p.name, p.points, want, func(ctx context.Context) (int, error) {
			return e.pair(ctx, p.a, p.b, armMerge, dst, nil)
		})
	}
	pairs := []struct {
		name string
		a, b *Set
		la   []uint32
		lb   []uint32
	}{
		{"hash", small, seg1, l4, l1},
		{"seg×array", seg1, arr, l1, l4},
		{"seg×dense", seg1, den, l1, l5},
		{"array×array", arr2, arr, l1, l4},
		{"array×dense", arr, den, l4, l5},
		{"dense×dense", den, den2, l5, l6},
	}
	for _, p := range pairs {
		want := len(refIntersect(p.la, p.lb))
		check("CountCtx "+p.name, 3, want, func(ctx context.Context) (int, error) {
			return e.CountCtx(ctx, p.a, p.b)
		})
		dst := make([]uint32, min(p.a.Len(), p.b.Len()))
		check("IntersectIntoCtx "+p.name, 3, want, func(ctx context.Context) (int, error) {
			return e.IntersectIntoCtx(ctx, dst, p.a, p.b)
		})
	}

	chain := []*Set{seg1, seg2, seg3}
	skewed := []*Set{seg1, seg2, small}
	if kwayProbe(chain) || !kwayProbe(skewed) {
		t.Fatal("k-way inputs do not cover both arms")
	}
	check("CountKCtx chain", 3, len(refIntersect(refIntersect(l1, l2), l3)), func(ctx context.Context) (int, error) {
		return e.CountKCtx(ctx, chain...)
	})
	check("CountKCtx probe", 3, len(refIntersect(refIntersect(l1, l2), l4)), func(ctx context.Context) (int, error) {
		return e.CountKCtx(ctx, skewed...)
	})

	// Sixteen 40k candidates are past batchParallelMinWork, so the parallel
	// form runs on the pool. Both report a weighted checksum of out.
	cands := make([]*Set, 16)
	want := 0
	for i := range cands {
		l := big()
		cands[i] = buildRep(t, l, RepSegmented)
		want += (i + 1) * len(refIntersect(l1, l))
	}
	out := make([]int, len(cands))
	sum := func(err error) (int, error) {
		if err != nil {
			return 0, err
		}
		n := 0
		for i, c := range out {
			n += (i + 1) * c
		}
		return n, nil
	}
	check("CountManyCtx", 3, want, func(ctx context.Context) (int, error) {
		return sum(e.CountManyCtx(ctx, seg1, cands, out))
	})
	check("CountManyParallelCtx", 3, want, func(ctx context.Context) (int, error) {
		return sum(e.CountManyParallelCtx(ctx, seg1, cands, out, 2))
	})
}

// TestKWayProbeCtxEveryCheckpoint cancels a skewed k-way query at each of
// its checkpoints in turn, until a run finishes: CountKCtx's entry check,
// every probe block of the probe chain's seed pair and every block of its
// compaction passes. Each cancelled run must return (0, context.Canceled),
// and some must land past the seed pair, in a compaction pass.
func TestKWayProbeCtxEveryCheckpoint(t *testing.T) {
	rng := rand.New(rand.NewSource(84))
	ex := NewExecutor()
	// Over dense lists the 20k-element seed probes b in ctxProbeBlock
	// blocks, and its ~3000 survivors take two blocks to compact through a.
	small := buildRep(t, randSet(rng, 20_000, 1<<20), RepSegmented)
	b := buildRep(t, randSet(rng, 150_000, 1<<20), RepSegmented)
	a := buildRep(t, randSet(rng, 200_000, 1<<20), RepSegmented)
	sets := []*Set{a, b, small}
	if !kwayProbe(sets) {
		t.Fatal("query does not select the probe chain")
	}
	want := len(refIntersect(refIntersect(small.Elements(), b.Elements()), a.Elements()))
	// CountKCtx's own check plus one per seed-pair probe block.
	seedChecks := 1 + (small.Len()+ctxProbeBlock-1)/ctxProbeBlock
	cancelled := 0
	for n := 0; ; n++ {
		got, err := ex.CountKCtx(newCancelAfter(n), sets...)
		if err == nil {
			if got != want {
				t.Fatalf("CountKCtx = %d, want %d", got, want)
			}
			break
		}
		if !errors.Is(err, context.Canceled) || got != 0 {
			t.Fatalf("cancelled at checkpoint %d: CountKCtx = %d, %v, want 0, context.Canceled", n, got, err)
		}
		cancelled++
	}
	if cancelled <= seedChecks {
		t.Fatalf("%d checkpoints, none past the seed pair's %d: no compaction pass was cancelled",
			cancelled, seedChecks)
	}
}

// cancelAfter is a context whose Err reports cancellation from its n+1-th
// call on, so a test can cancel a query at one exact checkpoint. It is safe
// for the concurrent checks of a parallel batch's workers.
type cancelAfter struct {
	context.Context
	n atomic.Int64
}

func newCancelAfter(n int) *cancelAfter {
	c := &cancelAfter{Context: context.Background()}
	c.n.Store(int64(n))
	return c
}

func (c *cancelAfter) Err() error {
	if c.n.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}
