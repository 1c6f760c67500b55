package serve

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"fesia/internal/core"
	"fesia/internal/stats"
)

// genLists builds a random corpus: items posting lists over [0, docs), each
// doc included with probability p.
func genLists(items, docs int, p float64, seed int64) [][]uint32 {
	rng := rand.New(rand.NewSource(seed))
	lists := make([][]uint32, items)
	for i := range lists {
		for d := 0; d < docs; d++ {
			if rng.Float64() < p {
				lists[i] = append(lists[i], uint32(d))
			}
		}
	}
	return lists
}

// bruteCount is the reference conjunctive count over the unsharded lists.
func bruteCount(lists [][]uint32, items []uint32) int {
	present := func(l []uint32, d uint32) bool {
		for _, x := range l {
			if x == d {
				return true
			}
		}
		return false
	}
	if len(items) == 0 {
		return 0
	}
	for _, it := range items {
		if int(it) >= len(lists) {
			return 0
		}
	}
	n := 0
	for _, d := range lists[items[0]] {
		all := true
		for _, it := range items[1:] {
			if !present(lists[it], d) {
				all = false
				break
			}
		}
		if all {
			n++
		}
	}
	return n
}

// ctr reads one merged counter from the tier's sink.
func ctr(tier *Tier, c stats.Counter) uint64 {
	snap := tier.Stats()
	return snap.Counter(c)
}

func TestTierQueryCountMatchesBrute(t *testing.T) {
	lists := genLists(32, 500, 0.15, 1)
	tier, err := NewTier(lists, Config{})
	if err != nil {
		t.Fatalf("NewTier: %v", err)
	}
	queries := [][]uint32{
		{}, {3}, {0, 1}, {5, 9}, {2, 4, 8}, {1, 3, 5, 7, 9, 11},
		{31}, {0, 31}, {99}, {4, 99},
	}
	for _, q := range queries {
		got, err := tier.QueryCount(context.Background(), q...)
		if err != nil {
			t.Fatalf("query %v: %v", q, err)
		}
		if want := bruteCount(lists, q); got != want {
			t.Errorf("query %v: got %d, want %d", q, got, want)
		}
	}
	if err := tier.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

func TestTierSwap(t *testing.T) {
	a := genLists(16, 300, 0.2, 2)
	b := genLists(16, 300, 0.2, 3)
	tier, err := NewTier(a, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer tier.Shutdown(context.Background())
	q := []uint32{1, 2, 3}
	wantA, wantB := bruteCount(a, q), bruteCount(b, q)
	if wantA == wantB {
		t.Fatalf("test corpora indistinguishable for %v (both %d)", q, wantA)
	}
	if got, _ := tier.QueryCount(context.Background(), q...); got != wantA {
		t.Fatalf("before swap: got %d, want %d", got, wantA)
	}
	gen, err := tier.Swap(context.Background(), b)
	if err != nil {
		t.Fatalf("Swap: %v", err)
	}
	if gen != 1 || tier.Generation() != 1 {
		t.Fatalf("generation = %d / %d, want 1", gen, tier.Generation())
	}
	if got, _ := tier.QueryCount(context.Background(), q...); got != wantB {
		t.Fatalf("after swap: got %d, want %d", got, wantB)
	}
	snap := tier.Stats()
	if snap.Counter(stats.CtrServeSwaps) != 1 {
		t.Fatalf("swap counter = %d, want 1", snap.Counter(stats.CtrServeSwaps))
	}

	// A snapshot built with another configuration is served with the
	// configuration it records, not the tier's default Build: 16-bit
	// segments, and RepAuto's mix of representations. Every count must match
	// the lists it was built from.
	c := genLists(16, 300, 0.2, 4) // array sets (at most 256 elements)
	c[0] = []uint32{5, 9, 17}
	c[1], c[2] = nil, nil
	for d := uint32(0); d < 300; d++ {
		c[1] = append(c[1], 3+d)  // dense: one bit per document
		c[2] = append(c[2], 17*d) // segmented: too sparse for dense
	}
	sets, err := core.BuildSets(c, core.Config{SegBits: 16, Rep: core.RepAuto})
	if err != nil {
		t.Fatal(err)
	}
	reps := map[core.Rep]bool{}
	for _, s := range sets {
		reps[s.Rep()] = true
	}
	if len(reps) != 3 {
		t.Fatalf("snapshot fixture lacks a representation: %v", reps)
	}
	var buf bytes.Buffer
	if _, err := core.WriteCorpus(&buf, sets); err != nil {
		t.Fatal(err)
	}
	if gen, err := tier.SwapFromReader(context.Background(), &buf); err != nil || gen != 2 {
		t.Fatalf("SwapFromReader = %d, %v; want generation 2", gen, err)
	}
	for _, q := range [][]uint32{{0}, {1}, {0, 1}, {1, 2}, {2, 3}, {1, 2, 3}, {4, 5, 6, 7}, {0, 15}} {
		got, err := tier.QueryCount(context.Background(), q...)
		if err != nil {
			t.Fatalf("query %v on the snapshot: %v", q, err)
		}
		if want := bruteCount(c, q); got != want {
			t.Errorf("query %v on the snapshot: got %d, want %d", q, got, want)
		}
	}
}

// TestSwapAllocsPerSet: a snapshot swap makes a fixed number of
// allocations, not a number that grows with the set count — the bar
// TestBuildAndLoadAllocsPerSet sets for ReadCorpus, which a swap now is
// plus the epoch flip.
func TestSwapAllocsPerSet(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	lists := make([][]uint32, 10_000)
	for i := range lists {
		for range 8 {
			lists[i] = append(lists[i], uint32(rng.Intn(1<<20)))
		}
	}
	sets, err := core.BuildSets(lists, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := core.WriteCorpus(&buf, sets); err != nil {
		t.Fatal(err)
	}
	snap := buf.Bytes()
	tier, err := NewTier(nil, Config{ShedTargetP99: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer tier.Shutdown(context.Background())
	perSet := testing.AllocsPerRun(3, func() {
		if _, err := tier.SwapFromReader(context.Background(), bytes.NewReader(snap)); err != nil {
			t.Fatal(err)
		}
	}) / float64(len(lists))
	t.Logf("allocations per set: SwapFromReader %.4f", perSet)
	if perSet >= 0.05 {
		t.Errorf("SwapFromReader makes %.3f allocations per set, want under 0.05", perSet)
	}
}

func TestNewTierRejectsBadBuildConfig(t *testing.T) {
	_, err := NewTier(genLists(4, 50, 0.2, 4), Config{Build: core.Config{SegBits: 7}})
	if err == nil {
		t.Fatal("NewTier accepted an invalid build config")
	}
}

func TestTierShutdown(t *testing.T) {
	tier, err := NewTier(genLists(8, 100, 0.2, 5), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := tier.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if _, err := tier.QueryCount(context.Background(), 1, 2); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("query after shutdown: err = %v, want ErrShuttingDown", err)
	}
	if _, err := tier.Swap(context.Background(), genLists(8, 100, 0.2, 6)); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("swap after shutdown: err = %v, want ErrShuttingDown", err)
	}
	// Idempotent.
	if err := tier.Shutdown(context.Background()); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}
}

func TestTierShutdownWaitsForInFlight(t *testing.T) {
	tier, err := NewTier(genLists(8, 100, 0.2, 7), Config{MaxConcurrent: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Steal a slot to simulate an in-flight query.
	slot, _, err := tier.lim.acquire(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := tier.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown with a held slot: err = %v, want deadline", err)
	}
	tier.lim.release(slot)
	if err := tier.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown after release: %v", err)
	}
}

func TestTierShedRejects(t *testing.T) {
	tier, err := NewTier(genLists(8, 100, 0.2, 8), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer tier.Shutdown(context.Background())
	tier.shed.frac.Store(math.Float64bits(1.0)) // force full shedding
	_, err = tier.QueryCount(context.Background(), 1, 2)
	if !errors.Is(err, ErrOverload) {
		t.Fatalf("err = %v, want ErrOverload", err)
	}
	var oe *OverloadError
	if !errors.As(err, &oe) || oe.Reason != ReasonShed {
		t.Fatalf("err = %#v, want *OverloadError{shed}", err)
	}
	if got := ctr(tier, stats.CtrServeShed); got == 0 {
		t.Fatal("shed counter not incremented")
	}
	if tier.ShedFraction() != 1.0 {
		t.Fatalf("ShedFraction = %v, want 1", tier.ShedFraction())
	}
}

func TestTierDeadlinePropagation(t *testing.T) {
	tier, err := NewTier(genLists(8, 2000, 0.3, 9), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer tier.Shutdown(context.Background())
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already expired before the query starts
	if _, err := tier.QueryCount(ctx, 1, 2, 3); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()
	if _, err := tier.QueryCount(dctx, 1, 2, 3); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if got := ctr(tier, stats.CtrServeDeadline); got == 0 {
		t.Fatal("deadline counter not incremented")
	}

	// A deadline that expires inside the query's part: the query fails with
	// DeadlineExceeded, and the serve matrix's one row records an error, not
	// a completed query.
	pctx, pcancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer pcancel()
	tier.partDelay = func() { <-pctx.Done() }
	before := tier.Stats().ServeShards
	if _, err := tier.QueryCount(pctx, 1, 2, 3); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline inside the part: err = %v, want deadline exceeded", err)
	}
	after := tier.Stats().ServeShards
	if len(after) != 1 {
		t.Fatalf("serve matrix has %d rows, want 1", len(after))
	}
	if after[0].Errors != before[0].Errors+1 || after[0].Queries != before[0].Queries {
		t.Fatalf("deadline inside the part: row %+v -> %+v, want one more error and no more queries", before[0], after[0])
	}
}

func TestTierQueueFullRejects(t *testing.T) {
	tier, err := NewTier(genLists(8, 100, 0.2, 10),
		Config{MaxConcurrent: 1, MaxQueue: 1, MaxQueueWait: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	// Hold the only slot so every query queues.
	slot, _, err := tier.lim.acquire(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	queued := make(chan error, 1)
	go func() {
		_, err := tier.QueryCount(context.Background(), 1, 2)
		queued <- err
	}()
	// Wait until the goroutine occupies the queue's single seat.
	for i := 0; tier.lim.queued.Load() == 0; i++ {
		if i > 5000 {
			t.Fatal("first query never queued")
		}
		time.Sleep(time.Millisecond)
	}
	_, err = tier.QueryCount(context.Background(), 1, 2)
	var oe *OverloadError
	if !errors.As(err, &oe) || oe.Reason != ReasonQueueFull {
		t.Fatalf("second query err = %v, want queue_full", err)
	}
	if got := ctr(tier, stats.CtrServeRejected); got == 0 {
		t.Fatal("rejected counter not incremented")
	}
	tier.lim.release(slot)
	if err := <-queued; err != nil {
		t.Fatalf("queued query failed after release: %v", err)
	}
	tier.Shutdown(context.Background())
}

// TestTierQueryDuringSwapSeesOneEpoch pins the swap consistency contract:
// under continuous swapping between two corpora, every successful query
// returns the exact answer of one corpus or the other — never a blend, never
// a failure.
func TestTierQueryDuringSwapSeesOneEpoch(t *testing.T) {
	a := genLists(16, 400, 0.2, 11)
	b := genLists(16, 400, 0.2, 12)
	tier, err := NewTier(a, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer tier.Shutdown(context.Background())
	q := []uint32{1, 2}
	wantA, wantB := bruteCount(a, q), bruteCount(b, q)
	if wantA == wantB {
		t.Fatalf("corpora indistinguishable for %v", q)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 30; i++ {
			src := a
			if i%2 == 0 {
				src = b
			}
			if _, err := tier.Swap(context.Background(), src); err != nil {
				t.Errorf("swap %d: %v", i, err)
				return
			}
		}
	}()
	for {
		select {
		case <-done:
			return
		default:
		}
		got, err := tier.QueryCount(context.Background(), q...)
		if err != nil {
			if errors.Is(err, ErrOverload) {
				continue // admission pressure is fine; wrong answers are not
			}
			t.Fatalf("query during swaps: %v", err)
		}
		if got != wantA && got != wantB {
			t.Fatalf("query during swaps: got %d, want %d or %d", got, wantA, wantB)
		}
	}
}
