package serve

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fesia/internal/core"
	"fesia/internal/stats"
	"fesia/internal/testutil"
)

// corpusSnapshot serializes lists through the real snapshot writer, so the
// chaos tests inject faults into exactly the bytes a production swap reads.
func corpusSnapshot(t *testing.T, lists [][]uint32) []byte {
	t.Helper()
	sets, err := core.NewSetBatch(lists, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := core.WriteCorpus(&buf, sets); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSwapFaultsLeaveOldCorpusServing is the all-or-nothing contract: a
// snapshot stream that truncates or dies at ANY offset must fail the swap
// with an error, leave the generation unbumped, and keep the old corpus
// answering queries exactly as before.
func TestSwapFaultsLeaveOldCorpusServing(t *testing.T) {
	a := genLists(8, 200, 0.2, 20)
	b := genLists(8, 200, 0.2, 21)
	tier, err := NewTier(a, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer tier.Shutdown(context.Background())
	q := []uint32{1, 2}
	want := bruteCount(a, q)
	snap := corpusSnapshot(t, b)

	faults := 0
	testutil.ForEachReadFault(snap, 97, func(desc string, r io.Reader) {
		faults++
		if _, err := tier.SwapFromReader(context.Background(), r); err == nil {
			t.Fatalf("%s: faulty swap reported success", desc)
		}
		if gen := tier.Generation(); gen != 0 {
			t.Fatalf("%s: generation bumped to %d by a failed swap", desc, gen)
		}
		got, err := tier.QueryCount(context.Background(), q...)
		if err != nil || got != want {
			t.Fatalf("%s: old corpus damaged: got %d (err %v), want %d", desc, got, err, want)
		}
	})
	if faults == 0 {
		t.Fatal("fault sweep ran zero cases")
	}
	if got := ctr(tier, stats.CtrServeSwapErrors); got != uint64(faults) {
		t.Fatalf("swap_errors = %d, want %d", got, faults)
	}

	// Corruption (flipped byte) must also fail closed. Sample positions.
	testutil.ForEachByteFlip(snap, func(pos int, corrupted []byte) {
		if pos%131 != 0 {
			return
		}
		if _, err := tier.SwapFromReader(context.Background(), bytes.NewReader(corrupted)); err == nil {
			t.Fatalf("flip@%d: corrupted swap reported success", pos)
		}
	})

	// The intact snapshot still swaps cleanly afterwards.
	if _, err := tier.SwapFromReader(context.Background(), bytes.NewReader(snap)); err != nil {
		t.Fatalf("clean swap after fault sweep: %v", err)
	}
	if got, _ := tier.QueryCount(context.Background(), q...); got != bruteCount(b, q) {
		t.Fatalf("after clean swap: got %d, want %d", got, bruteCount(b, q))
	}
}

// TestTierChaosStress is the -race stress: concurrent queries, hot swaps
// between two corpora, and aggressive deadlines, all at once. Every
// successful count must match one of the two corpora; the only acceptable
// errors are overload, deadline/cancel, and shutdown.
func TestTierChaosStress(t *testing.T) {
	a := genLists(16, 400, 0.2, 22)
	b := genLists(16, 400, 0.2, 23)
	tier, err := NewTier(a, Config{
		MaxConcurrent: 4,
		MaxQueue:      4,
		MaxQueueWait:  5 * time.Millisecond,
		ShedInterval:  5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	q := []uint32{1, 2}
	wantA, wantB := bruteCount(a, q), bruteCount(b, q)
	if wantA == wantB {
		t.Fatalf("corpora indistinguishable for %v", q)
	}

	deadline := time.Now().Add(600 * time.Millisecond)
	var wg sync.WaitGroup
	var ok, overloaded, expired atomic.Int64
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for time.Now().Before(deadline) {
				ctx := context.Background()
				var cancel context.CancelFunc = func() {}
				if rng.Intn(4) == 0 {
					ctx, cancel = context.WithTimeout(ctx, time.Duration(rng.Intn(200))*time.Microsecond)
				}
				got, err := tier.QueryCount(ctx, q...)
				cancel()
				switch {
				case err == nil:
					if got != wantA && got != wantB {
						t.Errorf("count %d matches neither corpus (%d / %d)", got, wantA, wantB)
					}
					ok.Add(1)
				case errors.Is(err, ErrOverload):
					overloaded.Add(1)
				case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
					expired.Add(1)
				case errors.Is(err, ErrShuttingDown):
					return
				default:
					t.Errorf("unexpected query error: %v", err)
					return
				}
			}
		}(int64(w))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; time.Now().Before(deadline); i++ {
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
	wg.Wait()
	if ok.Load() == 0 {
		t.Fatal("no query ever succeeded under chaos")
	}
	t.Logf("chaos: %d ok, %d overloaded, %d expired, gen %d",
		ok.Load(), overloaded.Load(), expired.Load(), tier.Generation())
	if err := tier.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown after chaos: %v", err)
	}
}
