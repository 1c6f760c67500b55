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

// observeSince records one query's strategy count and latency. The two
// time.Now calls around a query are the only instrumentation overhead paid
// at query granularity (~40ns, invisible next to any real intersection).
func observeSince(st *stats.Shard, q stats.Counter, h stats.LatHist, start time.Time) {
	st.Inc(q)
	st.Observe(h, time.Since(start))
}
