package core

import (
	"context"

	"fesia/internal/stats"
)

// Cooperative cancellation. A serving system needs runaway queries to be
// deadline-bounded and cancellable, so every query body takes a nil-able
// checkpoint: the ctx entry points pass their context, the plain ones pass
// nil. A non-nil checkpoint is tested at coarse granularity — per bitmap-word
// block in dispatch pass 1, per staged-segment block in pass 2, per
// probed-element block in the hash and element-driven cross loops, and per
// candidate in the one-vs-many paths. The blocks are large enough that the
// test is invisible next to the work between tests, yet small enough that
// cancellation and deadlines are honored within microseconds of firing. A
// nil checkpoint runs each loop as one block: the plain and ctx methods share
// one body per arm, and the plain ones pay one nil check per loop.
//
// On cancellation every method returns ctx.Err() (possibly wrapped by the
// caller's context machinery); counts are 0 and any destination buffers hold
// unspecified partial data. No scratch state is corrupted — the executor
// remains valid for further queries.
const (
	// ctxWordBlock is the pass-1 checkpoint unit: bitmap words ANDed (and
	// their surviving pairs staged) between context checks. At a few cycles
	// per word plus staging, 1024 words sit well under 10µs.
	ctxWordBlock = 1024
	// ctxStageBlock is the pass-2 checkpoint unit: staged segment records
	// dispatched to kernels between checks. Segment kernels touch a handful
	// of elements each, so 256 records is microseconds of work.
	ctxStageBlock = 256
	// ctxProbeBlock is the element-probe checkpoint unit: elements probed
	// between checks.
	ctxProbeBlock = 2048
)

// checkpoint is the cancellation test of the query bodies: a context.Context
// satisfies it, and a nil checkpoint marks an uncancellable call.
type checkpoint interface{ Err() error }

// stop is one checkpoint test: ck's error, or nil for a nil checkpoint.
func stop(ck checkpoint) error {
	if ck == nil {
		return nil
	}
	return ck.Err()
}

// stride is a checkpointed loop's block length: block items between tests
// when ck is non-nil, all n at once when it is nil.
func stride(ck checkpoint, block, n int) int {
	if ck == nil {
		return n
	}
	return block
}

// noteCancel records one cancelled query (when stats are enabled) and passes
// the error through. Called once per top-level query, so a cancelled query
// counts once no matter how many checkpoints observed it.
func (e *Executor) noteCancel(err error) error {
	if err != nil && e.st != nil {
		e.st.Inc(stats.CtrCancellations)
	}
	return err
}

// CountCtx is Count with cooperative cancellation: it returns |a ∩ b| with
// the adaptively chosen strategy, or ctx.Err() as soon as a checkpoint
// observes the context done.
func (e *Executor) CountCtx(ctx context.Context, a, b *Set) (int, error) {
	return e.pair(ctx, a, b, armAuto, nil, nil)
}

// IntersectIntoCtx is Intersect with cooperative cancellation. dst must have
// room for min(a.Len(), b.Len()) elements; results land in the order
// Intersect writes. On cancellation it returns (0, ctx.Err()) and dst holds
// unspecified partial data.
func (e *Executor) IntersectIntoCtx(ctx context.Context, dst []uint32, a, b *Set) (int, error) {
	return e.pair(ctx, a, b, armAuto, dst, nil)
}

// CountKCtx is CountK with cooperative cancellation, on the arm CountK
// picks: the bitmap chain checks the context between word blocks, the probe
// chain inside its seed pair's strategy and every ctxProbeBlock elements of
// each compaction pass.
func (e *Executor) CountKCtx(ctx context.Context, sets ...*Set) (int, error) {
	return e.countK(ctx, sets)
}

// CountManyCtx is CountMany with cooperative cancellation, checked once per
// candidate: out[i] is |q ∩ candidates[i]| for every candidate processed
// before the context fired. On cancellation it returns ctx.Err() and the tail
// of out is unspecified.
func (e *Executor) CountManyCtx(ctx context.Context, q *Set, candidates []*Set, out []int) error {
	return e.countMany(ctx, q, candidates, out)
}

// CountManyParallelCtx is CountManyParallel with cooperative cancellation:
// every worker checks the context once per candidate and abandons its
// remaining share when it fires, so a cancelled batch over thousands of
// candidates unwinds within one candidate's worth of work per worker. On
// cancellation it returns ctx.Err() and out holds unspecified partial data.
func (e *Executor) CountManyParallelCtx(ctx context.Context, q *Set, candidates []*Set, out []int, workers int) error {
	return e.countManyParallel(ctx, q, candidates, out, workers)
}
