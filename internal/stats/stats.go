// Package stats is the observability substrate of the FESIA serving stack:
// sharded, allocation-free counters and power-of-two-bucket histograms for
// the online intersection phase, merged lazily on read.
//
// The design follows the query engine's ownership model. An Executor (and
// each worker of its parallel paths) is single-goroutine by contract, so each
// one owns a private Shard and updates it with relaxed atomics — a plain
// load/add/store pair, which on x86 compiles to two MOVs and an ADD, with no
// LOCK prefix and no contention ever. Shards are padded so two workers'
// hot words never share a cache line. Sources without single-writer
// discipline (the worker pool, the snapshot codecs) use the Sink's shared
// multi-writer shard with real atomic adds; those events are per-query or
// per-file, not per-element, so the LOCK'd add is invisible.
//
// Readers (Snapshot, WritePrometheus, the expvar publisher) walk every shard
// with atomic loads and sum. A snapshot is therefore a consistent-enough
// point-in-time view: individual cells are exact monotonic counters, but the
// set of cells is read without a global lock, the price of keeping writers
// free of one.
//
// Everything here is stdlib-only; the Prometheus exposition is hand-written
// text format (no client_golang dependency).
package stats

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// Counter identifies one monotonic event counter.
type Counter int

// Counter IDs. The observability layer is deliberately enumerated — a fixed
// array indexed by small constants keeps the write path free of maps, hashes
// and interface calls.
const (
	// Per-strategy query counts (one increment per query routed to the
	// strategy; the adaptive dispatcher's live merge-vs-hash split).
	CtrQueriesMerge Counter = iota
	CtrQueriesHash
	CtrQueriesKWay
	CtrQueriesBatch // one-vs-many batch calls (CountMany and friends)
	CtrQueriesCross // pair queries routed to a cross-representation path
	// CtrQueriesKWayProbe counts the k-way queries (3+ sets, all counted by
	// CtrQueriesKWay) that ran the probe chain — seed pair, then membership
	// compaction — instead of the Section VI bitmap chain. It follows the
	// strategy counters rather than sitting in them because it exports as a
	// family of its own, and each family's series must stay contiguous.
	CtrQueriesKWayProbe

	// Per-representation build counts (one increment per set built).
	CtrBuildSegmented
	CtrBuildArray
	CtrBuildDense

	// Cross-representation dispatch matrix: one increment per pair query,
	// keyed by the unordered representation pair it was routed to. SegSeg
	// counts only queries that took the hybrid dispatcher's seg×seg entry
	// (the classic merge/hash strategies keep their own counters above).
	CtrDispSegSeg
	CtrDispSegArray
	CtrDispSegDense
	CtrDispArrayArray
	CtrDispArrayDense
	CtrDispDenseDense

	// Batch shape.
	CtrBatchCandidates // candidates processed across batch calls

	// Bitmap-pass segment survival (merge strategy): segments examined by
	// the word-AND pass vs segment pairs that survived it and reached a
	// kernel. Survived/scanned tracks selectivity (paper Fig. 9/14).
	CtrSegmentsScanned
	CtrSegPairs

	// Hash-probe compaction (hash strategy): elements probed vs probes whose
	// bitmap bit was set (block compaction rate of the staged probe).
	CtrHashProbes
	CtrHashSurvivors

	// Cooperative cancellation: queries that returned ctx.Err().
	CtrCancellations

	// Worker pool: Do calls entered/finished (difference = in-flight gauge),
	// parts handed to a parked worker vs run inline because no worker was
	// free (the saturation signal of the unbuffered handoff), and panics
	// contained by the pool.
	CtrPoolDo
	CtrPoolDoDone
	CtrPoolPartsPooled
	CtrPoolPartsInline
	CtrPoolPanics

	// Snapshot codec outcomes (set + corpus serialization).
	CtrSnapshotWrites
	CtrSnapshotWriteErrors
	CtrSnapshotReads
	CtrSnapshotReadErrors

	// Serving tier (internal/serve): admission, shedding, deadline and hot
	// snapshot-swap outcomes. Enter/exit form the live queue-depth gauge
	// (see Snapshot.ServeQueueDepth), the same derived-gauge idiom as the
	// pool's in-flight pair.
	CtrServeAdmitted   // requests admitted past the concurrency limiter
	CtrServeRejected   // admission rejections (queue full or wait budget blown)
	CtrServeShed       // requests dropped by the latency-driven load shedder
	CtrServeDeadline   // admitted queries that expired their deadline (HTTP 504s)
	CtrServeQueueEnter // requests that entered the bounded admission queue
	CtrServeQueueExit  // requests that left the queue (admitted, timed out or cancelled)
	CtrServeSwaps      // hot corpus swaps completed (pointer flipped, old drained)
	CtrServeSwapErrors // swaps aborted with the old corpus left serving

	// Overload rejections broken out by flavor, so dashboards can tell a
	// depth-bounded queue (queue_full: burst arrival) from a time-bounded one
	// (queue_wait: sustained slowness) without parsing error bodies. The
	// shed flavor keeps its own CtrServeShed counter above; CtrServeRejected
	// stays the queue-side aggregate.
	CtrServeRejQueueFull // rejections with reason queue_full
	CtrServeRejQueueWait // rejections with reason queue_wait

	// Query tracing (internal/trace): retained traces by capture reason —
	// head-sampled 1-in-N, tail-captured past the slow threshold, or forced
	// by a client's X-Fesia-Trace header.
	CtrTraceSampled
	CtrTraceSlow
	CtrTraceForced

	NumCounters // number of counters; keep last
)

// counterNames maps Counter IDs to their stable external names (expvar keys;
// Prometheus names are derived in prometheus.go).
var counterNames = [NumCounters]string{
	CtrQueriesMerge:        "queries_merge",
	CtrQueriesHash:         "queries_hash",
	CtrQueriesKWay:         "queries_kway",
	CtrQueriesBatch:        "queries_batch",
	CtrQueriesCross:        "queries_cross",
	CtrQueriesKWayProbe:    "queries_kway_probe",
	CtrBuildSegmented:      "build_segmented",
	CtrBuildArray:          "build_array",
	CtrBuildDense:          "build_dense",
	CtrDispSegSeg:          "dispatch_seg_seg",
	CtrDispSegArray:        "dispatch_seg_array",
	CtrDispSegDense:        "dispatch_seg_dense",
	CtrDispArrayArray:      "dispatch_array_array",
	CtrDispArrayDense:      "dispatch_array_dense",
	CtrDispDenseDense:      "dispatch_dense_dense",
	CtrBatchCandidates:     "batch_candidates",
	CtrSegmentsScanned:     "segments_scanned",
	CtrSegPairs:            "segment_pairs",
	CtrHashProbes:          "hash_probes",
	CtrHashSurvivors:       "hash_probe_survivors",
	CtrCancellations:       "query_cancellations",
	CtrPoolDo:              "pool_do",
	CtrPoolDoDone:          "pool_do_done",
	CtrPoolPartsPooled:     "pool_parts_pooled",
	CtrPoolPartsInline:     "pool_parts_inline",
	CtrPoolPanics:          "pool_task_panics",
	CtrSnapshotWrites:      "snapshot_writes",
	CtrSnapshotWriteErrors: "snapshot_write_errors",
	CtrSnapshotReads:       "snapshot_reads",
	CtrSnapshotReadErrors:  "snapshot_read_errors",
	CtrServeAdmitted:       "serve_admitted",
	CtrServeRejected:       "serve_rejected",
	CtrServeShed:           "serve_shed",
	CtrServeDeadline:       "serve_deadline_expiries",
	CtrServeQueueEnter:     "serve_queue_enter",
	CtrServeQueueExit:      "serve_queue_exit",
	CtrServeSwaps:          "serve_swaps",
	CtrServeSwapErrors:     "serve_swap_errors",
	CtrServeRejQueueFull:   "serve_rejected_queue_full",
	CtrServeRejQueueWait:   "serve_rejected_queue_wait",
	CtrTraceSampled:        "trace_sampled",
	CtrTraceSlow:           "trace_slow",
	CtrTraceForced:         "trace_forced",
}

// Name returns the counter's stable external name.
func (c Counter) Name() string { return counterNames[c] }

// LatHist identifies one latency histogram.
type LatHist int

// Latency histograms, one per query strategy.
const (
	LatMerge LatHist = iota
	LatHash
	LatKWay
	LatBatch
	LatCross    // cross-representation pair queries
	LatServe    // serving tier: end-to-end latency of admitted queries
	NumLatHists // keep last
)

var latNames = [NumLatHists]string{
	LatMerge: "merge",
	LatHash:  "hash",
	LatKWay:  "kway",
	LatBatch: "batch",
	LatCross: "cross",
	LatServe: "serve",
}

// Name returns the histogram's strategy label.
func (h LatHist) Name() string { return latNames[h] }

// LatBuckets is the number of power-of-two latency buckets. Bucket i counts
// observations with bits.Len64(nanoseconds) == i, i.e. durations in
// [2^(i-1), 2^i) ns; bucket 0 is exactly 0 ns and the last bucket absorbs
// everything at or above 2^(LatBuckets-2) ns (~9 minutes).
const LatBuckets = 40

// KernelDim bounds the kernel-dispatch histogram: segment sizes 0..KernelDim-2
// are recorded exactly (the generated kernel tables cap at 31, Table II), and
// KernelDim-1 aggregates every larger size (generic-kernel territory).
const KernelDim = 34

// KernelSampleRate is the query-level sampling rate of the kernel-dispatch
// histogram: the engine records per-pair kernel dispatches for 1 in
// KernelSampleRate merge queries. Per-pair recording on every query costs
// ~10% on kernel-bound merge workloads — far over the <3% enabled-overhead
// budget — while the dispatch *distribution* is stable across queries, so
// sampling preserves the signal. All scalar counters (segment pairs, probes,
// latencies) remain exact; only the (sizeA, sizeB) histogram is sampled.
const KernelSampleRate = 8

// latBucket returns the histogram bucket of a duration.
func latBucket(d time.Duration) int {
	b := bits.Len64(uint64(d))
	if b >= LatBuckets {
		b = LatBuckets - 1
	}
	return b
}

// kernelSlot returns the dispatch-histogram slot of a true segment-size pair.
func kernelSlot(sizeA, sizeB int) int {
	if sizeA >= KernelDim {
		sizeA = KernelDim - 1
	}
	if sizeB >= KernelDim {
		sizeB = KernelDim - 1
	}
	return sizeA*KernelDim + sizeB
}

// Shard is one writer's private slice of a Sink. A Shard must only ever be
// written by one goroutine at a time (the executor that owns it, or the one
// pool worker running that executor's part); under that discipline its
// relaxed load/store updates are exact, race-free and unlocked. Readers may
// snapshot concurrently from any goroutine.
type Shard struct {
	c      [NumCounters]uint64
	latSum [NumLatHists]uint64
	lat    [NumLatHists][LatBuckets]uint64
	disp   [KernelDim * KernelDim]uint64
	_      [8]uint64 // pad the tail so the next shard's hot words start on a fresh line
}

// relaxedAdd is the single-writer update: an atomic load+store pair instead
// of a LOCK'd read-modify-write. The atomics are for the race detector and
// cross-goroutine visibility to readers, not for mutual exclusion — the
// single-writer contract provides that.
func relaxedAdd(p *uint64, n uint64) {
	atomic.StoreUint64(p, atomic.LoadUint64(p)+n)
}

// Inc adds 1 to a counter.
func (s *Shard) Inc(c Counter) { relaxedAdd(&s.c[c], 1) }

// Add adds n to a counter.
func (s *Shard) Add(c Counter, n uint64) { relaxedAdd(&s.c[c], n) }

// Observe records one query latency into the strategy's histogram.
func (s *Shard) Observe(h LatHist, d time.Duration) {
	if d < 0 {
		d = 0
	}
	relaxedAdd(&s.latSum[h], uint64(d))
	relaxedAdd(&s.lat[h][latBucket(d)], 1)
}

// Kernel records one kernel dispatch for a true segment-size pair — the live
// version of the paper's Table II stride-sampling analysis.
func (s *Shard) Kernel(sizeA, sizeB int) {
	relaxedAdd(&s.disp[kernelSlot(sizeA, sizeB)], 1)
}

// Sink is a collector of Shards: the process- or executor-scoped aggregation
// point the read-side APIs snapshot. The zero value is not usable; construct
// with New.
type Sink struct {
	mu     sync.Mutex
	shards []*Shard
	multi  Shard // shared multi-writer shard (real atomic adds)

	// Optional serving-tier attachments, registered by internal/serve: the
	// per-(shard × slot) serve matrix and the tracing layer's latency
	// exemplars. Atomic pointers so registration never races a snapshot;
	// when several tiers share one sink, the last registration wins.
	serveMatrix    atomic.Pointer[ServeMatrix]
	serveExemplars atomic.Pointer[ExemplarStore]
}

// SetServeMatrix attaches a per-shard serving-metrics matrix; its rows ride
// along in every Snapshot and in the Prometheus/expvar output.
func (k *Sink) SetServeMatrix(m *ServeMatrix) { k.serveMatrix.Store(m) }

// ServeMatrix returns the attached matrix, or nil.
func (k *Sink) ServeMatrix() *ServeMatrix { return k.serveMatrix.Load() }

// SetServeExemplars attaches the tracing layer's LatServe exemplar store.
func (k *Sink) SetServeExemplars(x *ExemplarStore) { k.serveExemplars.Store(x) }

// ServeExemplars returns the attached exemplar store, or nil.
func (k *Sink) ServeExemplars() *ExemplarStore { return k.serveExemplars.Load() }

// New returns an empty Sink.
func New() *Sink { return &Sink{} }

// NewShard registers and returns a fresh single-writer Shard. Shards are
// never unregistered; an executor holds its shards for its whole life, and a
// shard's counts survive the executor (they are part of the sink's history).
func (k *Sink) NewShard() *Shard {
	s := &Shard{}
	k.mu.Lock()
	k.shards = append(k.shards, s)
	k.mu.Unlock()
	return s
}

// NumShards returns the number of registered single-writer shards.
func (k *Sink) NumShards() int {
	k.mu.Lock()
	defer k.mu.Unlock()
	return len(k.shards)
}

// Inc adds 1 to a counter on the shared multi-writer shard. Safe from any
// goroutine; used by sources without single-writer discipline (worker pool,
// snapshot codecs).
func (k *Sink) Inc(c Counter) { atomic.AddUint64(&k.multi.c[c], 1) }

// Add adds n to a counter on the shared multi-writer shard.
func (k *Sink) Add(c Counter, n uint64) { atomic.AddUint64(&k.multi.c[c], n) }

// Observe records a latency on the shared multi-writer shard.
func (k *Sink) Observe(h LatHist, d time.Duration) {
	if d < 0 {
		d = 0
	}
	atomic.AddUint64(&k.multi.latSum[h], uint64(d))
	atomic.AddUint64(&k.multi.lat[h][latBucket(d)], 1)
}

// ---------------------------------------------------------------------------
// Read side.
// ---------------------------------------------------------------------------

// KernelBucket is one non-zero cell of the kernel-dispatch histogram.
type KernelBucket struct {
	SizeA, SizeB int    // true segment sizes (KernelDim-1 = "and above")
	Count        uint64 // dispatches observed
}

// LatencyStats is one strategy's merged latency histogram.
type LatencyStats struct {
	Count    uint64             // observations
	SumNanos uint64             // total observed nanoseconds
	Buckets  [LatBuckets]uint64 // power-of-two buckets (see LatBuckets)
}

// Mean returns the mean observed latency (0 when empty).
func (l LatencyStats) Mean() time.Duration {
	if l.Count == 0 {
		return 0
	}
	return time.Duration(l.SumNanos / l.Count)
}

// Quantile returns an upper-bound estimate of the q-quantile (0 < q <= 1):
// the upper edge of the power-of-two bucket holding the q-th observation.
// Within a factor of two of the true value by construction.
func (l LatencyStats) Quantile(q float64) time.Duration {
	if l.Count == 0 {
		return 0
	}
	target := uint64(q * float64(l.Count))
	if target < 1 {
		target = 1
	}
	var cum uint64
	for i, c := range l.Buckets {
		cum += c
		if cum >= target {
			if i == 0 {
				return 0
			}
			return time.Duration(uint64(1) << uint(i))
		}
	}
	return time.Duration(uint64(1) << uint(LatBuckets-1))
}

// Snapshot is a merged point-in-time view of a Sink. Counters are exact
// monotonic sums across all shards; the kernel histogram is reported sparsely
// (non-zero cells only), ordered by descending count.
type Snapshot struct {
	Counters  [NumCounters]uint64
	Latencies [NumLatHists]LatencyStats
	Kernels   []KernelBucket
	NumShards int // single-writer shards merged (excludes the shared shard)

	// ServeShards is the per-document-shard serving view (one row per shard,
	// slots merged away); empty unless a ServeMatrix is attached to the sink.
	ServeShards []ServeShardStats
	// ServeExemplars links LatServe buckets to recent retained trace IDs;
	// empty unless the tracing layer attached an ExemplarStore.
	ServeExemplars []LatencyExemplar
}

// Counter returns one merged counter value.
func (s *Snapshot) Counter(c Counter) uint64 { return s.Counters[c] }

// Latency returns one strategy's merged latency histogram.
func (s *Snapshot) Latency(h LatHist) LatencyStats { return s.Latencies[h] }

// PoolInFlight returns the pool's current in-flight Do gauge, derived from
// the entered/finished counter pair.
func (s *Snapshot) PoolInFlight() uint64 {
	d, f := s.Counters[CtrPoolDo], s.Counters[CtrPoolDoDone]
	if d < f {
		return 0 // torn read across the two cells; clamp
	}
	return d - f
}

// ServeQueueDepth returns the serving tier's current admission-queue depth,
// derived from the enter/exit counter pair.
func (s *Snapshot) ServeQueueDepth() uint64 {
	in, out := s.Counters[CtrServeQueueEnter], s.Counters[CtrServeQueueExit]
	if in < out {
		return 0 // torn read across the two cells; clamp
	}
	return in - out
}

// Snapshot merges every shard (and the shared multi-writer shard) into a
// consistent-enough point-in-time view. It allocates only the sparse kernel
// list; safe to call concurrently with writers.
func (k *Sink) Snapshot() Snapshot {
	k.mu.Lock()
	shards := k.shards[:len(k.shards):len(k.shards)]
	k.mu.Unlock()

	var snap Snapshot
	snap.NumShards = len(shards)
	var disp [KernelDim * KernelDim]uint64
	merge := func(s *Shard) {
		for i := range s.c {
			snap.Counters[i] += atomic.LoadUint64(&s.c[i])
		}
		for h := 0; h < int(NumLatHists); h++ {
			snap.Latencies[h].SumNanos += atomic.LoadUint64(&s.latSum[h])
			for b := range s.lat[h] {
				n := atomic.LoadUint64(&s.lat[h][b])
				snap.Latencies[h].Buckets[b] += n
				snap.Latencies[h].Count += n
			}
		}
		for i := range s.disp {
			disp[i] += atomic.LoadUint64(&s.disp[i])
		}
	}
	merge(&k.multi)
	for _, s := range shards {
		merge(s)
	}
	for slot, n := range disp {
		if n != 0 {
			snap.Kernels = append(snap.Kernels,
				KernelBucket{SizeA: slot / KernelDim, SizeB: slot % KernelDim, Count: n})
		}
	}
	// Descending count order: dumps and dashboards want the hot kernels first.
	for i := 1; i < len(snap.Kernels); i++ {
		for j := i; j > 0 && snap.Kernels[j].Count > snap.Kernels[j-1].Count; j-- {
			snap.Kernels[j], snap.Kernels[j-1] = snap.Kernels[j-1], snap.Kernels[j]
		}
	}
	if m := k.serveMatrix.Load(); m != nil {
		snap.ServeShards = m.Snapshot()
	}
	if x := k.serveExemplars.Load(); x != nil {
		snap.ServeExemplars = x.Snapshot()
	}
	return snap
}
