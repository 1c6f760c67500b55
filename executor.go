package fesia

import (
	"context"
	"slices"
	"sync"

	"fesia/internal/core"
)

// Executor is a reusable query-execution context: it owns all scratch state
// the online intersection phase needs (k-way chain buffers, segment staging,
// parallel per-worker buffers), so that warm queries perform zero heap
// allocations. Build sets once offline, then route every online query through
// an Executor.
//
// An Executor is not safe for concurrent use — give each query goroutine its
// own (they are cheap: buffers grow on demand and are retained). The
// package-level functions (IntersectCount, Intersect, IntersectK, ...) remain
// available as compatibility wrappers over an internal pool of executors.
//
// Ordering contract: methods suffixed Into/Append and the Visit methods
// produce results in segment order — ascending within each segment, segments
// in bitmap order of the driving set — not in ascending value order. This is
// the natural output order of the two-step algorithm; sorting is deferred to
// the caller (or skipped entirely, e.g. when feeding an aggregation).
// Intersect and IntersectK sort before returning, matching the package-level
// functions.
type Executor struct {
	inner *core.Executor
	sets  []*core.Set // k-way unwrapping scratch
}

// NewExecutor returns an empty Executor attached to the shared worker pool.
func NewExecutor() *Executor {
	return &Executor{inner: core.NewExecutor()}
}

// unwrap fills the executor's scratch slice with the inner sets.
func (e *Executor) unwrap(sets []*Set) []*core.Set {
	e.sets = e.sets[:0]
	for _, s := range sets {
		e.sets = append(e.sets, s.inner)
	}
	return e.sets
}

// IntersectCount returns |a ∩ b|, choosing between the two-step merge and
// the hash-probe strategy by the size rule (core.HashSegSeg): input skew
// below 1/4 (Section VI), or on the AVX-512 rung a smaller set of at least 16
// elements. Zero heap allocations.
func (e *Executor) IntersectCount(a, b *Set) int { return e.inner.Count(a.inner, b.inner) }

// MergeCount forces the two-step FESIAmerge strategy (Algorithm 1).
func (e *Executor) MergeCount(a, b *Set) int { return e.inner.CountMerge(a.inner, b.inner) }

// HashCount forces the per-element FESIAhash strategy, O(min(n1, n2)).
func (e *Executor) HashCount(a, b *Set) int { return e.inner.CountHash(a.inner, b.inner) }

// Intersect returns a ∩ b in ascending order. The result slice is freshly
// allocated for the caller; use IntersectInto or Visit on allocation-free hot
// paths.
func (e *Executor) Intersect(a, b *Set) []uint32 {
	dst := make([]uint32, min(a.Len(), b.Len()))
	n := e.inner.Intersect(dst, a.inner, b.inner)
	out := dst[:n]
	slices.Sort(out)
	return out
}

// IntersectInto writes a ∩ b into dst and returns the number of elements
// written. dst must have room for min(a.Len(), b.Len()) elements. Results are
// in segment order (see the Executor ordering contract), NOT ascending; sort
// them if value order matters. This is the allocation-free fast path: a warm
// executor performs zero heap allocations here.
func (e *Executor) IntersectInto(dst []uint32, a, b *Set) int {
	return e.inner.Intersect(dst, a.inner, b.inner)
}

// IntersectAppend appends a ∩ b to dst and returns the extended slice, in
// segment order. It allocates only when dst lacks capacity, so an amortized
// caller loop (dst = dst[:0] between queries) is allocation-free.
func (e *Executor) IntersectAppend(dst []uint32, a, b *Set) []uint32 {
	need := min(a.Len(), b.Len())
	dst = slices.Grow(dst, need)
	n := e.inner.Intersect(dst[len(dst):len(dst)+need], a.inner, b.inner)
	return dst[:len(dst)+n]
}

// Visit streams a ∩ b through fn as matches are found, in segment order,
// without materializing a result. The only allocation is the caller's fn
// closure, if any.
func (e *Executor) Visit(a, b *Set, fn func(uint32)) {
	e.inner.Visit(a.inner, b.inner, core.Visitor(fn))
}

// IntersectCountK returns |s1 ∩ ... ∩ sk|. Two sets take the adaptive
// pair path (IntersectCount); three or more of similar size run the k-way
// bitmap chain of Section VI, O(kn/√w + r); three or more whose smallest ×
// 4 < largest, or of mixed representations, run a probe chain, which
// intersects the two smallest and filters the survivors through the rest
// by membership probe. Zero heap allocations when warm.
func (e *Executor) IntersectCountK(sets ...*Set) int {
	return e.inner.CountK(e.unwrap(sets)...)
}

// IntersectK returns the k-way intersection in ascending order (freshly
// allocated; use IntersectKInto on hot paths).
func (e *Executor) IntersectK(sets ...*Set) []uint32 {
	inner := e.unwrap(sets)
	minLen := inner[0].Len()
	for _, s := range inner[1:] {
		minLen = min(minLen, s.Len())
	}
	dst := make([]uint32, minLen)
	n := e.inner.IntersectK(dst, inner...)
	out := dst[:n]
	slices.Sort(out)
	return out
}

// IntersectKInto writes the k-way intersection into dst and returns the
// count: in segment order of the largest-bitmap set on the bitmap chain, in
// the order IntersectInto writes for the two seed sets on the probe chain
// and for two sets (see IntersectCountK). dst must have room for the
// smallest set's length. Zero heap allocations when warm.
func (e *Executor) IntersectKInto(dst []uint32, sets ...*Set) int {
	return e.inner.IntersectK(dst, e.unwrap(sets)...)
}

// VisitK streams the k-way intersection through fn, in the order
// IntersectKInto writes.
func (e *Executor) VisitK(fn func(uint32), sets ...*Set) {
	e.inner.VisitK(core.Visitor(fn), e.unwrap(sets)...)
}

// IntersectCountMany fills out[i] with |q ∩ candidates[i]| for every
// candidate — the one-vs-many batch engine. Per-candidate results match a
// loop of IntersectCount (including the adaptive strategy switch), but the
// query's bitmap words, memoized hash positions and dispatch scratch stay
// hot across the whole candidate list. out must have at least
// len(candidates) entries. Zero heap allocations once warm.
func (e *Executor) IntersectCountMany(q *Set, candidates []*Set, out []int) {
	e.inner.CountMany(q.inner, e.unwrap(candidates), out)
}

// IntersectManyInto writes q ∩ candidates[i] for every candidate into dst
// back to back, in segment order per candidate (see the ordering contract),
// recording each candidate's count in counts[i] and returning the total
// written. dst must have room for the sum over candidates of
// min(q.Len(), candidate.Len()). Zero heap allocations once warm.
func (e *Executor) IntersectManyInto(dst []uint32, counts []int, q *Set, candidates []*Set) int {
	return e.inner.IntersectManyInto(dst, counts, q.inner, e.unwrap(candidates))
}

// VisitMany streams every q ∩ candidates[i] through fn as (candidate index,
// element) pairs without materializing results, in the order
// IntersectManyInto would write them.
func (e *Executor) VisitMany(q *Set, candidates []*Set, fn func(candidate int, v uint32)) {
	e.inner.VisitMany(q.inner, e.unwrap(candidates), fn)
}

// IntersectCountManyParallel is IntersectCountMany with the candidate list
// partitioned across `workers` parts of the persistent worker pool,
// scheduled in descending candidate size order for balance.
func (e *Executor) IntersectCountManyParallel(q *Set, candidates []*Set, out []int, workers int) {
	e.inner.CountManyParallel(q.inner, e.unwrap(candidates), out, workers)
}

// IntersectCountParallel runs the two-step intersection across `workers`
// parts of the persistent worker pool (Section VI, multicore). No goroutines
// are spawned per call.
func (e *Executor) IntersectCountParallel(a, b *Set, workers int) int {
	return e.inner.CountMergeParallel(a.inner, b.inner, workers)
}

// IntersectCountKParallel runs the k-way intersection across `workers` parts
// of the persistent worker pool.
func (e *Executor) IntersectCountKParallel(workers int, sets ...*Set) int {
	return e.inner.CountKParallel(workers, e.unwrap(sets)...)
}

// Context-aware variants. Serving systems need runaway queries to be
// deadline-bounded and cancellable; these methods check ctx cooperatively at
// coarse checkpoints (per bitmap-word block, per probed-element block, per
// candidate) and return ctx.Err() as soon as one
// observes the context done. Each runs the same loop as its plain
// counterpart above, which passes no context and skips the checks, so both
// return the same results in the same order and are observed the same way.
// On cancellation, counts are zero, destination buffers hold unspecified
// partial data, and the Executor remains valid for further queries.

// IntersectCountCtx is IntersectCount with cooperative cancellation.
func (e *Executor) IntersectCountCtx(ctx context.Context, a, b *Set) (int, error) {
	return e.inner.CountCtx(ctx, a.inner, b.inner)
}

// IntersectIntoCtx is IntersectInto with cooperative cancellation. On
// cancellation it returns (0, ctx.Err()) and dst holds unspecified partial
// data.
func (e *Executor) IntersectIntoCtx(ctx context.Context, dst []uint32, a, b *Set) (int, error) {
	return e.inner.IntersectIntoCtx(ctx, dst, a.inner, b.inner)
}

// IntersectCountKCtx is IntersectCountK with cooperative cancellation.
func (e *Executor) IntersectCountKCtx(ctx context.Context, sets ...*Set) (int, error) {
	return e.inner.CountKCtx(ctx, e.unwrap(sets)...)
}

// IntersectCountManyCtx is IntersectCountMany with cooperative cancellation,
// checked once per candidate: out[i] holds |q ∩ candidates[i]| for every
// candidate processed before the context fired.
func (e *Executor) IntersectCountManyCtx(ctx context.Context, q *Set, candidates []*Set, out []int) error {
	return e.inner.CountManyCtx(ctx, q.inner, e.unwrap(candidates), out)
}

// IntersectCountManyParallelCtx is IntersectCountManyParallel with
// cooperative cancellation: every worker checks the context once per
// candidate, so a cancelled batch over thousands of candidates unwinds within
// one candidate's worth of work per worker.
func (e *Executor) IntersectCountManyParallelCtx(ctx context.Context, q *Set, candidates []*Set, out []int, workers int) error {
	return e.inner.CountManyParallelCtx(ctx, q.inner, e.unwrap(candidates), out, workers)
}

// executors recycles default executors behind the package-level
// compatibility wrappers, so even one-shot calls reuse warm scratch state.
var executors = sync.Pool{New: func() any { return NewExecutor() }}

func getExecutor() *Executor  { return executors.Get().(*Executor) }
func putExecutor(e *Executor) { executors.Put(e) }
