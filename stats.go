package fesia

import (
	"io"
	"net/http"

	"fesia/internal/core"
	"fesia/internal/simd"
	"fesia/internal/stats"
)

// Observability. The query engine carries a zero-overhead-when-off stats
// layer: sharded allocation-free counters, power-of-two latency histograms
// per strategy, and a live kernel-dispatch histogram keyed by true segment
// sizes (the online version of the paper's Table II analysis). Disabled — the
// default — the hot paths pay a single nil-check; enabled, recording is a
// handful of unlocked padded-memory updates per query, and the warm paths
// remain allocation-free (proven by TestStatsZeroAllocWarm and the committed
// BenchmarkExecutorStatsOverhead numbers).
//
// Typical serving setup:
//
//	fesia.EnableStats()                      // once, at startup
//	http.Handle("/metrics", fesia.StatsHandler())
//	...
//	snap := fesia.Stats()                    // point-in-time snapshot
//	p99 := snap.Latency(fesia.LatMerge).Quantile(0.99)

// StatsSnapshot is a merged point-in-time view of the stats sink: exact
// monotonic counters, per-strategy latency histograms, and the sparse
// kernel-dispatch histogram in descending count order.
type StatsSnapshot = stats.Snapshot

// Counter and latency-histogram identifiers, re-exported for reading
// snapshots (snap.Counter(fesia.CtrQueriesMerge), snap.Latency(fesia.LatMerge)).
const (
	LatMerge = stats.LatMerge
	LatHash  = stats.LatHash
	LatKWay  = stats.LatKWay
	LatBatch = stats.LatBatch
	LatCross = stats.LatCross
	LatServe = stats.LatServe

	CtrQueriesMerge    = stats.CtrQueriesMerge
	CtrQueriesHash     = stats.CtrQueriesHash
	CtrQueriesKWay     = stats.CtrQueriesKWay
	CtrQueriesBatch    = stats.CtrQueriesBatch
	CtrQueriesCross    = stats.CtrQueriesCross
	CtrBatchCandidates = stats.CtrBatchCandidates
	CtrSegmentsScanned = stats.CtrSegmentsScanned
	CtrSegPairs        = stats.CtrSegPairs
	CtrHashProbes      = stats.CtrHashProbes
	CtrHashSurvivors   = stats.CtrHashSurvivors
	CtrCancellations   = stats.CtrCancellations
	CtrPoolDo          = stats.CtrPoolDo
	CtrPoolDoDone      = stats.CtrPoolDoDone
	CtrPoolPartsPooled = stats.CtrPoolPartsPooled
	CtrPoolPartsInline = stats.CtrPoolPartsInline
	CtrPoolPanics      = stats.CtrPoolPanics
	CtrSnapshotWrites  = stats.CtrSnapshotWrites
	CtrSnapshotReads   = stats.CtrSnapshotReads

	// CtrQueriesKWayProbe counts the k-way queries (3+ sets, all counted by
	// CtrQueriesKWay) that ran the probe chain instead of the bitmap chain.
	CtrQueriesKWayProbe = stats.CtrQueriesKWayProbe

	// Serving-tier counters (internal/serve): admission outcomes, deadline
	// expiries, the queue-depth gauge pair, and hot-swap outcomes.
	CtrServeAdmitted   = stats.CtrServeAdmitted
	CtrServeRejected   = stats.CtrServeRejected
	CtrServeShed       = stats.CtrServeShed
	CtrServeDeadline   = stats.CtrServeDeadline
	CtrServeQueueEnter = stats.CtrServeQueueEnter
	CtrServeQueueExit  = stats.CtrServeQueueExit
	CtrServeSwaps      = stats.CtrServeSwaps
	CtrServeSwapErrors = stats.CtrServeSwapErrors

	// Per-flavor overload rejections (queue depth vs. wait budget; shedding
	// keeps CtrServeShed) and trace-retention tallies by reason.
	CtrServeRejQueueFull = stats.CtrServeRejQueueFull
	CtrServeRejQueueWait = stats.CtrServeRejQueueWait
	CtrTraceSampled      = stats.CtrTraceSampled
	CtrTraceSlow         = stats.CtrTraceSlow
	CtrTraceForced       = stats.CtrTraceForced

	// Planner decision counters: one per (dispatch point, chosen strategy),
	// plus the exploration tally and the count of decisions where the learned
	// model disagreed with the static heuristic.
	CtrPlanSegSegMerge         = stats.CtrPlanSegSegMerge
	CtrPlanSegSegHash          = stats.CtrPlanSegSegHash
	CtrPlanSegDenseFromDense   = stats.CtrPlanSegDenseFromDense
	CtrPlanSegDenseFromSeg     = stats.CtrPlanSegDenseFromSeg
	CtrPlanArrayDenseFromArray = stats.CtrPlanArrayDenseFromArray
	CtrPlanArrayDenseFromDense = stats.CtrPlanArrayDenseFromDense
	CtrPlanExplored            = stats.CtrPlanExplored
	CtrPlanOverrides           = stats.CtrPlanOverrides
)

// Backend reports which rung of the ISA ladder this process dispatches to:
// "avx512" when the AVX-512 compress-store kernels and gathered hash probe
// are active (amd64 with AVX-512 F/VL/CD/DQ and OS ZMM state, not built with
// -tags=noasm), "avx2" for the hand-written AVX2 routines (amd64 with AVX2,
// BMI2 and POPCNT), "scalar" for the pure-Go reference path. Setting the
// FESIA_DISABLE_AVX512 environment variable (to any non-empty value) before
// process start pins the ladder at "avx2" on AVX-512 hardware. The same
// string is exported on /metrics as the fesia_build_info gauge's backend
// label and in the fesiaserve startup log line.
func Backend() string { return simd.Backend() }

// EnableStats turns the observability layer on process-wide and returns the
// snapshot of nothing-yet-recorded. Executors created afterwards (including
// the internal pool behind the package-level wrappers) attach automatically;
// executors created before keep running uninstrumented unless EnableStats is
// called on them directly. Safe to call more than once — subsequent calls are
// no-ops.
func EnableStats() {
	if core.StatsSink() == nil {
		core.EnableStats(stats.New())
	}
}

// StatsEnabled reports whether the process-wide observability layer is on.
func StatsEnabled() bool { return core.StatsSink() != nil }

// Stats returns a merged snapshot of the process-wide sink. The zero
// StatsSnapshot is returned while stats are disabled.
func Stats() StatsSnapshot {
	if s := core.StatsSink(); s != nil {
		return s.Snapshot()
	}
	return StatsSnapshot{}
}

// WriteStatsPrometheus writes the current snapshot in the Prometheus text
// exposition format (version 0.0.4; hand-written, no client dependency):
// fesia_queries_total{strategy=...}, fesia_query_latency_seconds histograms,
// fesia_kernel_dispatch_total{size_a,size_b}, pool and snapshot-codec
// counters. A no-op while stats are disabled.
func WriteStatsPrometheus(w io.Writer) error {
	if s := core.StatsSink(); s != nil {
		return s.WritePrometheus(w)
	}
	return nil
}

// StatsHandler returns an http.Handler serving WriteStatsPrometheus — mount
// it at /metrics and point a Prometheus scraper at it.
func StatsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = WriteStatsPrometheus(w)
	})
}

// PublishStatsExpvar registers the sink under the given expvar name (e.g.
// "fesia"), so GET /debug/vars includes a live JSON rendering of every
// counter, latency percentile and the kernel-dispatch histogram. Like
// expvar.Publish it must be called at most once per name; it panics if stats
// are disabled.
func PublishStatsExpvar(name string) {
	s := core.StatsSink()
	if s == nil {
		panic("fesia: PublishStatsExpvar before EnableStats")
	}
	s.Publish(name)
}

// EnableStats attaches this executor (and its parallel worker slots) to the
// process-wide sink, enabling it first if needed. Use for executors created
// before the global EnableStats call; newer executors attach on construction.
func (e *Executor) EnableStats() {
	EnableStats()
	e.inner.EnableStats(core.StatsSink())
}

// Stats returns a merged snapshot of the sink this executor records into (the
// whole sink's view). The zero StatsSnapshot is returned while the executor
// is unattached.
func (e *Executor) Stats() StatsSnapshot { return e.inner.Stats() }
