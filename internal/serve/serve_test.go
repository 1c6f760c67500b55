package serve

import (
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
	for _, shards := range []int{1, 2, 3, 4, 7} {
		tier, err := NewTier(lists, Config{Shards: shards})
		if err != nil {
			t.Fatalf("shards=%d: NewTier: %v", shards, err)
		}
		queries := [][]uint32{
			{}, {3}, {0, 1}, {5, 9}, {2, 4, 8}, {1, 3, 5, 7, 9, 11},
			{31}, {0, 31}, {99}, {4, 99},
		}
		for _, q := range queries {
			got, err := tier.QueryCount(context.Background(), q...)
			if err != nil {
				t.Fatalf("shards=%d query %v: %v", shards, q, err)
			}
			if want := bruteCount(lists, q); got != want {
				t.Errorf("shards=%d query %v: got %d, want %d", shards, q, got, want)
			}
		}
		if err := tier.Shutdown(context.Background()); err != nil {
			t.Fatalf("shards=%d: Shutdown: %v", shards, err)
		}
	}
}

func TestTierSwap(t *testing.T) {
	a := genLists(16, 300, 0.2, 2)
	b := genLists(16, 300, 0.2, 3)
	tier, err := NewTier(a, Config{Shards: 3})
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
}

func TestNewTierRejectsBadBuildConfig(t *testing.T) {
	_, err := NewTier(genLists(4, 50, 0.2, 4), Config{Build: core.Config{SegBits: 7}})
	if err == nil {
		t.Fatal("NewTier accepted an invalid build config")
	}
}

func TestTierShutdown(t *testing.T) {
	tier, err := NewTier(genLists(8, 100, 0.2, 5), Config{Shards: 2})
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
	tier, err := NewTier(genLists(8, 100, 0.2, 7), Config{Shards: 2, MaxConcurrent: 2})
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
	tier, err := NewTier(genLists(8, 100, 0.2, 8), Config{Shards: 2})
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
	tier, err := NewTier(genLists(8, 2000, 0.3, 9), Config{Shards: 2})
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

	// A deadline that expires inside part 0: the query fails with
	// DeadlineExceeded and part 1 never runs, so shard 1's serve-matrix row
	// records no entry.
	pctx, pcancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer pcancel()
	tier.partDelay = func(shard int) {
		if shard == 0 {
			<-pctx.Done()
		}
	}
	before := tier.Stats().ServeShards
	if _, err := tier.QueryCount(pctx, 1, 2, 3); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline inside part 0: err = %v, want deadline exceeded", err)
	}
	after := tier.Stats().ServeShards
	if after[0].Errors != before[0].Errors+1 {
		t.Fatalf("shard 0 errors %d -> %d, want one more", before[0].Errors, after[0].Errors)
	}
	if after[1].Queries != before[1].Queries || after[1].Errors != before[1].Errors {
		t.Fatalf("part 1 ran after part 0's deadline: shard 1 row %+v -> %+v", before[1], after[1])
	}
}

func TestTierQueueFullRejects(t *testing.T) {
	tier, err := NewTier(genLists(8, 100, 0.2, 10),
		Config{Shards: 2, MaxConcurrent: 1, MaxQueue: 1, MaxQueueWait: time.Minute})
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
	tier, err := NewTier(a, Config{Shards: 3})
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
