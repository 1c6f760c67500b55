package core

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

func TestPoolDoRunsEveryPartOnce(t *testing.T) {
	p := NewPool(4)
	for _, parts := range []int{1, 2, 4, 7, 64} {
		counts := make([]int32, parts)
		p.Do(parts, func(w int) {
			atomic.AddInt32(&counts[w], 1)
		})
		for w, c := range counts {
			if c != 1 {
				t.Fatalf("parts=%d: part %d ran %d times", parts, w, c)
			}
		}
	}
}

func TestPoolDoMorePartsThanWorkers(t *testing.T) {
	p := NewPool(2)
	var total atomic.Int64
	p.Do(100, func(w int) {
		total.Add(int64(w))
	})
	if got, want := total.Load(), int64(100*99/2); got != want {
		t.Fatalf("sum of parts = %d, want %d", got, want)
	}
}

func TestPoolDoNested(t *testing.T) {
	// Nested Do must not deadlock even when the inner calls outnumber the
	// pool's workers: surplus tasks fall back to inline execution.
	p := NewPool(2)
	var total atomic.Int64
	p.Do(4, func(outer int) {
		p.Do(4, func(inner int) {
			total.Add(1)
		})
	})
	if got := total.Load(); got != 16 {
		t.Fatalf("nested Do ran %d inner parts, want 16", got)
	}
}

func TestPoolSize(t *testing.T) {
	if got := NewPool(3).Size(); got != 3 {
		t.Fatalf("Size() = %d, want 3", got)
	}
	if NewPool(0).Size() < 1 {
		t.Fatal("NewPool(0) must clamp to at least one worker")
	}
	if SharedPool() == nil || SharedPool() != SharedPool() {
		t.Fatal("SharedPool must return one stable pool")
	}
}

// doRecover runs p.Do and returns the recovered panic value (nil if none).
func doRecover(p *Pool, parts int, fn func(part int)) (rec any) {
	defer func() { rec = recover() }()
	p.Do(parts, fn)
	return nil
}

// TestPoolDoPanicReraised: a panicking part must surface on the Do caller as
// a *TaskPanic carrying the original value and stack, after every other part
// has completed.
func TestPoolDoPanicReraised(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var ran atomic.Int32
	rec := doRecover(p, 8, func(part int) {
		if part == 5 {
			panic("boom-5")
		}
		ran.Add(1)
	})
	tp, ok := rec.(*TaskPanic)
	if !ok {
		t.Fatalf("Do re-raised %T (%v), want *TaskPanic", rec, rec)
	}
	if tp.Value != "boom-5" || tp.Part != 5 {
		t.Fatalf("TaskPanic = part %d value %v, want part 5 value boom-5", tp.Part, tp.Value)
	}
	if len(tp.Stack) == 0 {
		t.Fatal("TaskPanic carries no stack")
	}
	if got := ran.Load(); got != 7 {
		t.Fatalf("only %d of 7 non-panicking parts ran", got)
	}
}

// TestPoolDoPanicOnCallerPart: part 0 runs inline on the caller; its panic
// must get the same containment so pooled parts are never stranded.
func TestPoolDoPanicOnCallerPart(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	var ran atomic.Int32
	rec := doRecover(p, 4, func(part int) {
		if part == 0 {
			panic("boom-0")
		}
		ran.Add(1)
	})
	tp, ok := rec.(*TaskPanic)
	if !ok || tp.Value != "boom-0" {
		t.Fatalf("Do re-raised %v, want TaskPanic(boom-0)", rec)
	}
	if got := ran.Load(); got != 3 {
		t.Fatalf("only %d of 3 other parts ran", got)
	}
}

// TestPoolSizeUnchangedAfterPanic is the regression test for the seed bug
// where a task panic killed its worker goroutine, permanently shrinking the
// shared pool: after a recovered panic the pool's effective size must be
// unchanged and every part of later calls must still run.
func TestPoolSizeUnchangedAfterPanic(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	for round := 0; round < 3; round++ {
		if rec := doRecover(p, 8, func(part int) {
			if part%2 == 1 {
				panic(part) // several parts panic at once
			}
		}); rec == nil {
			t.Fatal("panicking Do did not re-raise")
		}
		if got := p.Alive(); got != p.Size() {
			t.Fatalf("round %d: %d live workers after recovered panic, want %d", round, got, p.Size())
		}
	}
	var total atomic.Int64
	p.Do(64, func(part int) { total.Add(1) })
	if got := total.Load(); got != 64 {
		t.Fatalf("post-panic Do ran %d of 64 parts", got)
	}
}

// TestPoolTaskPanicUnwrap: when the panic value is an error, errors.As must
// see through the containment wrapper.
func TestPoolTaskPanicUnwrap(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	sentinel := errors.New("sentinel")
	rec := doRecover(p, 2, func(part int) {
		if part == 1 {
			panic(sentinel)
		}
	})
	tp, ok := rec.(*TaskPanic)
	if !ok {
		t.Fatalf("recovered %T, want *TaskPanic", rec)
	}
	if !errors.Is(tp, sentinel) {
		t.Fatal("errors.Is does not reach the original error panic value")
	}
}

// TestPoolClose: Close must release every worker goroutine (leak-checked via
// the alive counter) and be idempotent.
func TestPoolClose(t *testing.T) {
	p := NewPool(5)
	p.Do(10, func(part int) {})
	if got := p.Alive(); got != 5 {
		t.Fatalf("Alive() = %d before Close, want 5", got)
	}
	p.Close()
	p.Close() // idempotent
	if got := p.Alive(); got != 0 {
		t.Fatalf("Alive() = %d after Close, want 0", got)
	}
}

// spinSink keeps the handoff benchmark's spin loops from being optimized
// away; each part writes only its own word.
var spinSink [2]uint64

// spin runs n dependent xorshift steps: pure ALU work with no memory
// traffic, so a part's cost is its iteration count and nothing else.
func spin(part, n int) {
	x := uint64(part) + 0x9e3779b97f4a7c15
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	spinSink[part] = x
}

// BenchmarkPoolHandoff times Pool.Do over two parts against the same two
// parts run one after another on the caller, from ~0.1 µs to ~200 µs of
// work per part (the inline arm's ns/op over 2). It locates the work per
// part below which handing a part to a parked worker costs more than it
// saves — the measurement behind the serving tier running its shard parts
// on the query's own goroutine. `make poolbench` runs it.
func BenchmarkPoolHandoff(b *testing.B) {
	p := SharedPool()
	for _, n := range []int{40, 640, 6400, 19200, 64000, 80000} {
		fn := func(part int) { spin(part, n) }
		b.Run(fmt.Sprintf("spin=%d/pool", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p.Do(2, fn)
			}
		})
		b.Run(fmt.Sprintf("spin=%d/inline", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fn(0)
				fn(1)
			}
		})
	}
}
