package core

import (
	"sync/atomic"
	"time"

	"fesia/internal/stats"
)

// Observability wiring. The query engine records into the internal/stats
// sharded sink following its ownership model: an Executor owns one
// single-writer Shard for its sequential paths and one per parallel worker
// slot, so the hot loops update plain padded memory with relaxed atomics and
// never contend. Every instrumented site sits behind a `st == nil` check —
// with stats disabled (the default) the hot paths cost exactly that
// predictable branch and nothing else, and the recording code is never
// reached.
//
// Sources without single-writer discipline — the shared worker pool, the
// snapshot codecs — record through the process-global sink's multi-writer
// shard, loaded from an atomic pointer per event (per Do call / per file,
// never per element).

// globalStats is the process-wide sink, set once by EnableStats. Executors
// created after EnableStats attach to it automatically (including the pooled
// default executors behind the package-level wrappers, which attach lazily on
// checkout).
var globalStats atomic.Pointer[stats.Sink]

// EnableStats installs s as the process-global observability sink. Call once
// at startup, before building executors; executors created earlier keep
// running uninstrumented until EnableStats is called on them directly.
// Passing nil stops future attachments but does not detach live executors.
func EnableStats(s *stats.Sink) { globalStats.Store(s) }

// StatsSink returns the process-global sink, or nil when stats are disabled.
func StatsSink() *stats.Sink { return globalStats.Load() }

// statsInc bumps a counter on the global sink's multi-writer shard, if stats
// are enabled. For per-operation events only (snapshot codec outcomes, pool
// bookkeeping) — never per element.
func statsInc(c stats.Counter) {
	if s := globalStats.Load(); s != nil {
		s.Inc(c)
	}
}

// statsOutcome records one operation's success-or-error outcome pair.
func statsOutcome(err error, ok, bad stats.Counter) {
	if err != nil {
		statsInc(bad)
		return
	}
	statsInc(ok)
}

// EnableStats attaches the executor (and its existing parallel worker slots)
// to a sink. Each slot gets its own single-writer shard, so the parallel
// paths record without contention. Calling it again with the same sink is a
// no-op; an executor records into at most one sink for its whole life.
func (e *Executor) EnableStats(s *stats.Sink) {
	if s == nil || e.sink != nil {
		return
	}
	e.sink = s
	e.st = s.NewShard()
	for i := range e.workers {
		e.workers[i].st = s.NewShard()
	}
}

// Stats returns a merged snapshot of the sink this executor records into
// (the whole sink's view, not just this executor's share). The zero Snapshot
// is returned when stats are disabled.
func (e *Executor) Stats() stats.Snapshot {
	if e.sink == nil {
		return stats.Snapshot{}
	}
	return e.sink.Snapshot()
}

// maybeAttachStats wires a fresh executor to the global sink when one is
// installed — the auto-attachment path of NewExecutor and the pooled default
// executors.
func (e *Executor) maybeAttachStats() {
	if e.sink == nil {
		if s := globalStats.Load(); s != nil {
			e.EnableStats(s)
		}
	}
}

// kernelShard returns the shard the lane's current merge query records its
// per-pair kernel-dispatch histogram into, advancing the lane's sample
// sequence: the lane's own shard for 1 in stats.KernelSampleRate merge
// queries, nil otherwise (always nil with stats disabled). The scalar
// counters — segment pairs, segments scanned, latencies — are never sampled;
// they stay exact on every query. Per-pair histogram recording on every query
// costs ~10% on kernel-bound merge workloads, an order of magnitude over the
// <3% enabled-overhead budget, and the dispatch-size distribution is stable
// across queries, so sampling keeps the Table II signal at ~1/8th the cost.
// Each lane samples by its own sequence, so pool workers never touch the
// executor's.
func (l *lane) kernelShard() *stats.Shard {
	if l.st == nil {
		return nil
	}
	q := l.kseq
	l.kseq++
	if q%stats.KernelSampleRate == 0 {
		return l.st
	}
	return nil
}

// clockAnchor is the origin Now reads the clock from. It carries a
// monotonic reading, so every time Now derives from it does too.
var clockAnchor = time.Now()

// Now returns the current time off one monotonic clock read: time.Since of
// a time that carries a monotonic reading reads only the monotonic clock,
// where time.Now reads the wall clock as well. Subtracting two Now stamps
// uses their monotonic readings. A stamp's wall reading is the anchor's plus
// the monotonic time since, so it misses any step the system clock took
// after start; the query path only ever subtracts stamps. Every timed frame
// and the serving tier read the clock through Now.
func Now() time.Time { return clockAnchor.Add(time.Since(clockAnchor)) }

// since reads a timed frame's end stamp, keeps it for TakeEnd and returns
// the time the frame ran from start.
func (e *Executor) since(start time.Time) time.Duration {
	e.end = Now()
	return e.end.Sub(start)
}

// TakeEnd returns the end stamp of the last query frame this executor
// timed, and clears it; ok is false when no frame timed itself since the
// last call. A frame times itself when stats or a trace cell are attached,
// and stamps its end only when it succeeds. A serving tier closes its own
// latency and spans on this stamp instead of reading the clock again.
func (e *Executor) TakeEnd() (end time.Time, ok bool) {
	end, e.end = e.end, time.Time{}
	return end, !end.IsZero()
}

// observeSince records one query's strategy count and its latency from
// start to the frame's end stamp (since) into the executor's shard. A timed
// frame reads the clock twice, once at each end, off the monotonic clock
// (Now).
func (e *Executor) observeSince(q stats.Counter, h stats.LatHist, start time.Time) {
	e.st.Inc(q)
	e.st.Observe(h, e.since(start))
}
