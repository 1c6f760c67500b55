package serve

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
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
