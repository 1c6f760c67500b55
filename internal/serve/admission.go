package serve

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"fesia/internal/stats"
)

// Admission control. The tier bounds concurrent query execution with a slot
// semaphore: an admitted query holds one slot id in [0, MaxConcurrent) for
// its whole execution, and the slot id doubles as the index pinning the
// query to its executor (see epoch.go) — admission is what makes the
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

// limiter is the slot semaphore plus bounded wait queue. A slot is free in
// the bitmap, in flight to a waiter in the hand-off channel, or held (by a
// query, or by drain). An arrival takes a free slot with one CAS; failing
// that it registers in queued, polls once more and blocks on the channel. A
// release sends its slot to the channel while a waiter is registered, and
// sets its bit otherwise. Each side writes before it reads, so of a waiter
// registering then polling and a release setting its bit then re-reading
// queued, one sees the other (give); and of a release sending then
// re-reading queued and a waiter leaving then settling, the later one moves
// a slot no waiter will take back to the bitmap (settle). No slot sits free
// unseen by a waiter, and none stays in the channel once the queue empties.
type limiter struct {
	free     []atomic.Uint64 // bit s%64 of word s/64 set: slot s is free
	handoff  chan int        // slots in flight to waiters; buffered to every slot
	n        int             // slot count
	queued   atomic.Int64    // registered waiters: the queue depth, plus drain
	maxQueue int64
	maxWait  time.Duration

	drainMu   sync.Mutex   // serializes drain
	reclaimed atomic.Int64 // slots already collected by drain
}

func newLimiter(slots, maxQueue int, maxWait time.Duration) *limiter {
	l := &limiter{
		free:     make([]atomic.Uint64, (slots+63)/64),
		handoff:  make(chan int, slots),
		n:        slots,
		maxQueue: int64(maxQueue),
		maxWait:  maxWait,
	}
	for s := 0; s < slots; s++ {
		l.setFree(s)
	}
	return l
}

// tryTake claims a free slot from the bitmap, lowest first: one CAS when
// nothing contends.
func (l *limiter) tryTake() (int, bool) {
	for i := range l.free {
		w := &l.free[i]
		for v := w.Load(); v != 0; v = w.Load() {
			b := bits.TrailingZeros64(v)
			if w.CompareAndSwap(v, v&^(1<<b)) {
				return i*64 + b, true
			}
		}
	}
	return 0, false
}

// setFree marks held slot s free. Its bit is clear, so the add sets it.
func (l *limiter) setFree(s int) { l.free[s/64].Add(1 << (s % 64)) }

// poll claims a slot in flight to waiters, or else a free one.
func (l *limiter) poll() (int, bool) {
	select {
	case s := <-l.handoff:
		return s, true
	default:
		return l.tryTake()
	}
}

// acquire admits the caller, returning its exclusive slot id and whether it
// had to wait: waited is false when a slot was free on arrival (the no-wait
// fast path), so the caller's arrival stamp also marks its admission. It
// fails with *OverloadError when the queue is full or the wait budget
// expires, and with ctx.Err() when the request's own deadline fires first.
// sink (nil ok) receives the queue-depth gauge pair and is written from
// arbitrary goroutines, so it uses the multi-writer shard.
func (l *limiter) acquire(ctx context.Context, sink *stats.Sink) (slot int, waited bool, err error) {
	if s, ok := l.tryTake(); ok {
		return s, false, nil
	}
	// Slow path: join the bounded queue.
	if l.queued.Add(1) > l.maxQueue {
		l.leave()
		return 0, true, errQueueFull
	}
	if sink != nil {
		sink.Inc(stats.CtrServeQueueEnter)
	}
	defer func() {
		l.leave()
		if sink != nil {
			sink.Inc(stats.CtrServeQueueExit)
		}
	}()
	if s, ok := l.poll(); ok {
		return s, true, nil
	}
	timer := time.NewTimer(l.maxWait)
	defer timer.Stop()
	select {
	case s := <-l.handoff:
		return s, true, nil
	case <-timer.C:
		// A slot handed over as the budget ran out is still this waiter's.
		if s, ok := l.poll(); ok {
			return s, true, nil
		}
		return 0, true, errQueueWait
	case <-ctx.Done():
		return 0, true, ctx.Err()
	}
}

// leave deregisters a waiter, then settles what it may have left behind.
func (l *limiter) leave() {
	l.queued.Add(-1)
	l.settle()
}

// release returns a slot: to a registered waiter through the hand-off
// channel, or to the bitmap.
func (l *limiter) release(slot int) {
	if l.give(slot) {
		l.settle()
	}
}

// give puts held slot s in the hand-off channel when a waiter is registered,
// and frees it in the bitmap otherwise. A waiter that registered after that
// check may have polled the bitmap before s was back, so give then moves a
// free slot to the channel for it. It reports whether it sent a slot.
func (l *limiter) give(s int) bool {
	if l.queued.Load() == 0 {
		l.setFree(s)
		if l.queued.Load() == 0 {
			return false
		}
		var ok bool
		if s, ok = l.tryTake(); !ok {
			return false // the waiter, or an arrival, holds it already
		}
	}
	l.handoff <- s // never blocks: the channel has room for every slot
	return true
}

// settle moves slots back from the hand-off channel to the bitmap while no
// waiter is registered to receive them: a waiter that left after a release
// saw it registered leaves the released slot unclaimed.
func (l *limiter) settle() {
	for l.queued.Load() == 0 {
		select {
		case s := <-l.handoff:
			l.give(s)
		default:
			return
		}
	}
}

// inUse returns the slots held by admitted queries, read at scrape time: the
// slots in neither the bitmap nor the hand-off channel, less those drain
// holds. Racy against concurrent admissions, so it is clamped.
func (l *limiter) inUse() uint64 {
	held := l.n - len(l.handoff) - int(l.reclaimed.Load())
	for i := range l.free {
		held -= bits.OnesCount64(l.free[i].Load())
	}
	return uint64(max(held, 0))
}

// drain collects every slot, so no query is in flight once it returns; used
// by Shutdown. Slots are not returned — after drain the limiter admits
// nothing, which is exactly the shut-down state. drain waits as one more
// registered waiter, so releases hand their slots to it wherever they would
// have gone. Resumable: a drain cut off by ctx keeps what it collected, and
// the next call only waits for the rest.
func (l *limiter) drain(ctx context.Context) error {
	l.drainMu.Lock()
	defer l.drainMu.Unlock()
	l.queued.Add(1)
	defer l.leave()
	for l.reclaimed.Load() < int64(l.n) {
		if _, ok := l.poll(); !ok {
			select {
			case <-l.handoff:
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		l.reclaimed.Add(1)
	}
	return nil
}
