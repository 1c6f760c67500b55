package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"fesia/internal/stats"
)

// Admission control. The tier bounds concurrent query execution with a slot
// semaphore: an admitted query holds one slot id in [0, MaxConcurrent) for
// its whole execution, and the slot id doubles as the index pinning the
// query to its executor (see shard.go) — admission is what makes the
// single-writer executor discipline hold without locks.
//
// Requests beyond the concurrency limit wait in a bounded queue. Two budgets
// cut the queue off: depth (more than MaxQueue waiters => immediate reject)
// and time (a waiter that cannot get a slot within MaxQueueWait is rejected
// rather than serving a reply nobody is still waiting for). Both reject with
// a typed *OverloadError so the HTTP layer can map overload to 503 +
// Retry-After while real failures stay 5xx.

// ErrOverload is the sentinel matched by errors.Is for every admission or
// shedding rejection. Inspect the *OverloadError for the specific reason.
var ErrOverload = errors.New("serve: overloaded")

// ErrShuttingDown is returned for queries arriving after Shutdown began.
var ErrShuttingDown = errors.New("serve: shutting down")

// Overload reasons.
const (
	ReasonQueueFull = "queue_full" // admission queue at MaxQueue depth
	ReasonQueueWait = "queue_wait" // queued longer than MaxQueueWait
	ReasonShed      = "shed"       // dropped by the latency-driven shedder
)

// OverloadError is the typed rejection of the admission and shedding layers.
// errors.Is(err, ErrOverload) matches every variant.
type OverloadError struct {
	Reason string // ReasonQueueFull, ReasonQueueWait or ReasonShed
}

func (e *OverloadError) Error() string { return fmt.Sprintf("serve: overloaded (%s)", e.Reason) }

// Is makes every OverloadError match the ErrOverload sentinel.
func (e *OverloadError) Is(target error) bool { return target == ErrOverload }

// Pre-allocated rejections: the overload path must not allocate per request —
// that is exactly when allocation pressure hurts most.
var (
	errQueueFull = &OverloadError{Reason: ReasonQueueFull}
	errQueueWait = &OverloadError{Reason: ReasonQueueWait}
	errShed      = &OverloadError{Reason: ReasonShed}
)

// limiter is the slot semaphore plus bounded wait queue.
type limiter struct {
	slots    chan int // buffered with every slot id; receive = admit
	queued   atomic.Int64
	maxQueue int64
	maxWait  time.Duration

	drainMu   sync.Mutex // serializes drain; guards reclaimed
	reclaimed int        // slots already collected by drain
}

func newLimiter(slots, maxQueue int, maxWait time.Duration) *limiter {
	l := &limiter{
		slots:    make(chan int, slots),
		maxQueue: int64(maxQueue),
		maxWait:  maxWait,
	}
	for i := 0; i < slots; i++ {
		l.slots <- i
	}
	return l
}

func (l *limiter) capacity() int { return cap(l.slots) }

// acquire admits the caller, returning its exclusive slot id and whether it
// had to wait: waited is false when a slot was free on arrival (the no-wait
// fast path), so the caller's arrival stamp also marks its admission. It
// fails with *OverloadError when the queue is full or the wait budget
// expires, and with ctx.Err() when the request's own deadline fires first.
// sink (nil ok) receives the queue-depth gauge pair and is written from
// arbitrary goroutines, so it uses the multi-writer shard.
func (l *limiter) acquire(ctx context.Context, sink *stats.Sink) (slot int, waited bool, err error) {
	select {
	case s := <-l.slots:
		return s, false, nil
	default:
	}
	// Slow path: join the bounded queue.
	if l.queued.Add(1) > l.maxQueue {
		l.queued.Add(-1)
		return 0, true, errQueueFull
	}
	if sink != nil {
		sink.Inc(stats.CtrServeQueueEnter)
	}
	defer func() {
		l.queued.Add(-1)
		if sink != nil {
			sink.Inc(stats.CtrServeQueueExit)
		}
	}()
	timer := time.NewTimer(l.maxWait)
	defer timer.Stop()
	select {
	case s := <-l.slots:
		return s, true, nil
	case <-timer.C:
		return 0, true, errQueueWait
	case <-ctx.Done():
		return 0, true, ctx.Err()
	}
}

// release returns a slot to the semaphore.
func (l *limiter) release(slot int) { l.slots <- slot }

// drain collects every slot, so no query is in flight once it returns; used
// by Shutdown. Slots are not returned — after drain the limiter admits
// nothing, which is exactly the shut-down state. Resumable: a drain cut off
// by ctx keeps what it collected, and the next call only waits for the rest.
func (l *limiter) drain(ctx context.Context) error {
	l.drainMu.Lock()
	defer l.drainMu.Unlock()
	for l.reclaimed < cap(l.slots) {
		select {
		case <-l.slots:
			l.reclaimed++
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}
