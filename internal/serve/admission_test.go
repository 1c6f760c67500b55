package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fesia/internal/stats"
)

func TestOverloadErrorIs(t *testing.T) {
	for _, e := range []error{errQueueFull, errQueueWait, errShed} {
		if !errors.Is(e, ErrOverload) {
			t.Errorf("%v does not match ErrOverload", e)
		}
	}
	if errors.Is(ErrShuttingDown, ErrOverload) {
		t.Error("ErrShuttingDown must not match ErrOverload")
	}
	var oe *OverloadError
	if !errors.As(errQueueWait, &oe) || oe.Reason != ReasonQueueWait {
		t.Errorf("errQueueWait reason = %v", oe)
	}
}

func TestLimiterFastPath(t *testing.T) {
	l := newLimiter(2, 4, time.Second)
	seen := map[int]bool{}
	for i := 0; i < 2; i++ {
		s, waited, err := l.acquire(context.Background(), nil)
		if err != nil {
			t.Fatalf("acquire %d: %v", i, err)
		}
		if waited {
			t.Fatalf("acquire %d: a free slot reported a wait", i)
		}
		if s < 0 || s >= 2 || seen[s] {
			t.Fatalf("acquire %d: slot %d invalid or reused", i, s)
		}
		seen[s] = true
	}
	l.release(0)
	if s, _, err := l.acquire(context.Background(), nil); err != nil || s != 0 {
		t.Fatalf("re-acquire: slot %d err %v", s, err)
	}
}

func TestLimiterQueueFull(t *testing.T) {
	l := newLimiter(1, 1, time.Minute)
	if _, _, err := l.acquire(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	errc := make(chan error, 1)
	go func() {
		defer wg.Done()
		_, waited, err := l.acquire(context.Background(), nil)
		if err == nil && !waited {
			err = errors.New("a queued waiter reported no wait")
		}
		errc <- err
	}()
	for i := 0; l.queued.Load() == 0; i++ {
		if i > 5000 {
			t.Fatal("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}
	if _, _, err := l.acquire(context.Background(), nil); !errors.Is(err, ErrOverload) {
		t.Fatalf("over-depth acquire: err = %v, want overload", err)
	}
	l.release(0)
	wg.Wait()
	if err := <-errc; err != nil {
		t.Fatalf("queued waiter: %v", err)
	}
}

func TestLimiterQueueWait(t *testing.T) {
	l := newLimiter(1, 4, 20*time.Millisecond)
	if _, _, err := l.acquire(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	_, _, err := l.acquire(context.Background(), nil)
	var oe *OverloadError
	if !errors.As(err, &oe) || oe.Reason != ReasonQueueWait {
		t.Fatalf("err = %v, want queue_wait", err)
	}
	if got := l.queued.Load(); got != 0 {
		t.Fatalf("queued gauge after timeout = %d, want 0", got)
	}
}

func TestLimiterCtxCancel(t *testing.T) {
	l := newLimiter(1, 4, time.Minute)
	if _, _, err := l.acquire(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	if _, _, err := l.acquire(ctx, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want canceled", err)
	}
}

func TestLimiterDrain(t *testing.T) {
	l := newLimiter(3, 4, time.Minute)
	s, _, err := l.acquire(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	drained := make(chan error, 1)
	go func() { drained <- l.drain(context.Background()) }()
	select {
	case err := <-drained:
		t.Fatalf("drain finished with a slot held: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	l.release(s)
	select {
	case err := <-drained:
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("drain never finished after release")
	}
	// After drain, nothing is admitted.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, _, err := l.acquire(ctx, nil); err == nil {
		t.Fatal("acquire succeeded after drain")
	}
}

// TestTierAdmissionParallel runs more query goroutines than admission slots
// against a tier whose queue has a seat for every one of them, so no query
// needs refusing. The goroutines start each round together, so every round
// queues and ends with its last waiters woken by the last releases, and
// some queries carry deadlines short enough to expire while they wait, so
// waiters also leave the queue after a release has picked them. It asserts
// that no slot is ever held by two queries at once (the executors'
// single-writer rule), that no query is refused as overloaded (a slot left
// free while a waiter ran out its budget would be), and that afterwards
// every slot is acquirable without waiting and Shutdown drains.
func TestTierAdmissionParallel(t *testing.T) {
	const slots, goroutines, rounds, perRound = 3, 12, 60, 4
	lists := genLists(16, 400, 0.2, 11)
	tier, err := NewTier(lists, Config{
		MaxConcurrent: slots, MaxQueue: goroutines,
		MaxQueueWait: time.Second, ShedTargetP99: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var holders [slots]atomic.Int32
	var shared, held atomic.Int64
	tier.partDelay = func(slot int) {
		if holders[slot].Add(1) != 1 {
			shared.Add(1)
		}
		if held.Add(1)%16 == 0 {
			time.Sleep(20 * time.Microsecond) // let the queue build up
		} else {
			runtime.Gosched()
		}
		holders[slot].Add(-1)
	}
	q := []uint32{1, 2}
	want := bruteCount(lists, q)

	query := func(i int) error {
		ctx := context.Background()
		if i%7 == 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, 20*time.Microsecond)
			defer cancel()
		}
		n, err := tier.QueryCount(ctx, q...)
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			return nil // its own deadline, not a refusal
		case err == nil && n != want:
			return fmt.Errorf("count %d, want %d", n, want)
		}
		return err
	}
	errc := make(chan error, goroutines)
	for r := range rounds {
		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := range goroutines {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for i := range perRound {
					if err := query(r + g + i); err != nil {
						errc <- err
						return
					}
				}
			}()
		}
		close(start)
		wg.Wait()
		select {
		case err := <-errc:
			t.Fatalf("round %d: a query failed with no need to refuse it: %v", r, err)
		default:
		}
	}
	if n := shared.Load(); n != 0 {
		t.Errorf("%d query parts ran on a slot another query held", n)
	}
	if got := ctr(tier, stats.CtrServeRejected); got != 0 {
		t.Errorf("%d admission rejections, want 0", got)
	}
	t.Logf("%d parts run, %d queue entries", held.Load(), ctr(tier, stats.CtrServeQueueEnter))

	ctx := context.Background()
	seen := map[int]bool{}
	for range slots {
		s, waited, err := tier.lim.acquire(ctx, nil)
		if err != nil || waited || seen[s] {
			t.Fatalf("after the run: slot %d, waited %v, err %v; want every slot free on the no-wait path", s, waited, err)
		}
		seen[s] = true
	}
	if got := tier.lim.inUse(); got != slots {
		t.Errorf("in-flight gauge reads %d with every slot held, want %d", got, slots)
	}
	for s := range seen {
		tier.lim.release(s)
	}
	if got := tier.lim.inUse(); got != 0 {
		t.Errorf("in-flight gauge reads %d with every slot free, want 0", got)
	}
	sctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if err := tier.Shutdown(sctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if got := tier.lim.inUse(); got != 0 {
		t.Errorf("in-flight gauge reads %d after Shutdown, want 0", got)
	}
}
