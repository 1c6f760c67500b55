package core

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"fesia/internal/stats"
)

// Pool is a fixed-size set of persistent worker goroutines for the parallel
// intersection paths (Section VI, multicore). The seed implementation spawned
// fresh goroutines on every *Parallel call; for an online serving system the
// query is the cheap repeated step, so the goroutines must be part of the
// one-time setup. Workers park on a channel receive between queries, which
// costs nothing while idle.
//
// A Pool is safe for concurrent use; independent queries may overlap on the
// same pool.
//
// Fault containment: a panic inside a task does not kill the worker goroutine
// (the pool's effective size never shrinks) and cannot strand Do's wait — the
// worker recovers the panic, releases its WaitGroup slot, and parks for the
// next task. Do re-raises the first captured panic on its own goroutine as a
// *TaskPanic carrying the original panic value and stack, after every part
// has finished. Query state is never shared between parts, so the surviving
// parts' work is unaffected.
type Pool struct {
	tasks     chan poolTask
	size      int
	alive     atomic.Int64 // live worker goroutines, for leak checks and tests
	closeOnce sync.Once
	workerWG  sync.WaitGroup
}

type poolTask struct {
	fn   func(part int)
	part int
	g    *doGroup
}

// doGroup is the per-Do completion state shared by the caller and the pool
// workers running its parts: the WaitGroup the caller blocks on and the slot
// holding the first panic any part raised.
type doGroup struct {
	wg    sync.WaitGroup
	panMu sync.Mutex
	pan   *TaskPanic
}

// capture records the first panic observed across the group's parts.
func (g *doGroup) capture(part int, v any) {
	statsInc(stats.CtrPoolPanics)
	tp := &TaskPanic{Part: part, Value: v, Stack: debug.Stack()}
	g.panMu.Lock()
	if g.pan == nil {
		g.pan = tp
	}
	g.panMu.Unlock()
}

// TaskPanic is the value Pool.Do panics with when one of its parts panicked:
// the original panic value plus the stack captured at the point of the panic,
// so the fault's origin survives the hop from the worker goroutine to the Do
// caller. Callers that recover from Do may unwrap Value to inspect the
// original panic.
type TaskPanic struct {
	Part  int    // which part panicked
	Value any    // the original panic value
	Stack []byte // debug.Stack() captured inside the panicking task
}

func (p *TaskPanic) Error() string {
	return fmt.Sprintf("core: pool task (part %d) panicked: %v\ntask stack:\n%s", p.Part, p.Value, p.Stack)
}

// Unwrap exposes the original panic value when it was an error, so
// errors.Is/As see through the containment wrapper.
func (p *TaskPanic) Unwrap() error {
	if err, ok := p.Value.(error); ok {
		return err
	}
	return nil
}

// NewPool starts a pool of `workers` persistent goroutines (minimum 1).
// The shared pool is never torn down; private pools (tests, short-lived
// services) may release their workers with Close.
//
// The task channel is deliberately unbuffered: a successful send means a
// parked worker has taken the task and will run it. A buffered channel could
// strand tasks in the buffer while every worker is blocked in a nested Do's
// wait, which deadlocks; with a rendezvous handoff that state cannot exist.
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	p := &Pool{tasks: make(chan poolTask), size: workers}
	p.alive.Add(int64(workers))
	p.workerWG.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

func (p *Pool) worker() {
	defer func() {
		p.alive.Add(-1)
		p.workerWG.Done()
	}()
	for t := range p.tasks {
		t.run()
	}
}

// run executes one task part, containing any panic: the group's WaitGroup is
// always released and the panic (if any) is parked in the group for Do to
// re-raise, so the worker goroutine survives.
func (t poolTask) run() {
	defer t.g.wg.Done()
	defer func() {
		if r := recover(); r != nil {
			t.g.capture(t.part, r)
		}
	}()
	t.fn(t.part)
}

// Size returns the number of persistent workers.
func (p *Pool) Size() int { return p.size }

// Alive returns the number of live worker goroutines. It equals Size for the
// pool's whole life (recovered task panics do not kill workers) and drops to
// zero after Close — the property leak-checked tests assert.
func (p *Pool) Alive() int { return int(p.alive.Load()) }

// Close stops the pool's workers and blocks until every one has exited.
// Close is idempotent. It must not be called while a Do is in flight, and Do
// must not be called after Close; the shared pool is never closed.
func (p *Pool) Close() {
	p.closeOnce.Do(func() {
		close(p.tasks)
		p.workerWG.Wait()
	})
}

// Do runs fn(0), fn(1), ..., fn(parts-1) and returns when all calls have
// completed. Part 0 always runs on the calling goroutine; the rest are handed
// to parked pool workers. When no worker is free (another query in flight, or
// a nested Do from inside a part), surplus parts run inline on the caller
// instead of blocking, so Do can never deadlock.
//
// If any part panics, every other part still runs to completion and Do then
// panics with a *TaskPanic wrapping the first captured panic value and its
// original stack. The pool itself is unaffected: no worker dies, and the pool
// remains usable for subsequent calls.
func (p *Pool) Do(parts int, fn func(part int)) { p.do(new(doGroup), parts, fn) }

// do is Do on the caller's completion group g, which no other do may be
// using. An Executor passes its own, so its parallel paths allocate no group.
func (p *Pool) do(g *doGroup, parts int, fn func(part int)) {
	if parts <= 0 {
		return
	}
	g.pan = nil
	// Pool events go to the global sink's shared shard: Do may run on any
	// goroutine, so the single-writer shard discipline does not apply. Loaded
	// once per Do, never per part.
	sk := globalStats.Load()
	if sk != nil {
		sk.Inc(stats.CtrPoolDo)
	}
	if parts > 1 {
		g.wg.Add(parts - 1)
		pooled, inline := uint64(0), uint64(0)
		for i := 1; i < parts; i++ {
			select {
			case p.tasks <- poolTask{fn, i, g}:
				pooled++
			default:
				poolTask{fn, i, g}.run()
				inline++
			}
		}
		if sk != nil {
			sk.Add(stats.CtrPoolPartsPooled, pooled)
			sk.Add(stats.CtrPoolPartsInline, inline)
		}
	}
	// Part 0 runs on the caller, with the same containment as pooled parts so
	// the in-flight workers are always awaited before any panic propagates.
	g.wg.Add(1)
	poolTask{fn, 0, g}.run()
	g.wg.Wait()
	// Done must be counted before the re-raise, or a contained panic would
	// leak an in-flight unit into the gauge forever. Every part has finished,
	// so g.pan is read without its lock.
	if sk != nil {
		sk.Inc(stats.CtrPoolDoDone)
	}
	if g.pan != nil {
		panic(g.pan)
	}
}

var (
	sharedPoolOnce sync.Once
	sharedPool     *Pool
)

// SharedPool returns the process-wide worker pool, sized to GOMAXPROCS and
// created on first use. Every parallel intersection path — the *Parallel
// functions here and the triangle-counting drivers in internal/graph — runs
// on this pool unless handed a private one. The shared pool is never closed.
func SharedPool() *Pool {
	sharedPoolOnce.Do(func() {
		sharedPool = NewPool(runtime.GOMAXPROCS(0))
	})
	return sharedPool
}
