package stats

import (
	"sync/atomic"
	"time"
)

// Per-shard serving metrics. The tier's aggregate LatServe histogram answers
// "how slow is the tier?" but cannot answer "which shard is dragging it?" —
// a straggler shard hides inside the query's sum over shards. The
// ServeMatrix breaks the serve-side counters out per document shard,
// following the tier's single-writer slot discipline: cell (shard s, slot c)
// is written only by the one admitted query holding slot c while it runs its
// shard-s part, so updates are relaxed load/store pairs with no locks and no
// contention. Readers merge the slot dimension away lazily, leaving one row
// per shard for the `shard`-labelled Prometheus/expvar series.

// serveCell is one (shard × slot) cell of the matrix: query/error/deadline
// counts, the enter/exit pair deriving the per-shard in-flight gauge, and a
// latency histogram of that shard's part executions. Padded so neighbouring
// slots' hot words never share a cache line.
type serveCell struct {
	queries  uint64
	errors   uint64
	enter    uint64
	exit     uint64
	sumNanos uint64
	lat      [LatBuckets]uint64
	_        [3]uint64 // pad to a multiple of 64 bytes (45 words -> 48)
}

// ServeMatrix is the per-(shard × slot) serving-metrics matrix. Construct
// with NewServeMatrix and register it on the tier's Sink with
// SetServeMatrix; safe for concurrent use under the single-writer-per-cell
// contract.
type ServeMatrix struct {
	shards int
	slots  int
	cells  []serveCell
}

// NewServeMatrix returns a zeroed matrix for `shards` document shards and
// `slots` admission slots.
func NewServeMatrix(shards, slots int) *ServeMatrix {
	return &ServeMatrix{
		shards: shards,
		slots:  slots,
		cells:  make([]serveCell, shards*slots),
	}
}

// NumShards returns the matrix's shard dimension.
func (m *ServeMatrix) NumShards() int { return m.shards }

// NumSlots returns the matrix's slot dimension.
func (m *ServeMatrix) NumSlots() int { return m.slots }

func (m *ServeMatrix) cell(shard, slot int) *serveCell {
	return &m.cells[shard*m.slots+slot]
}

// Enter marks one scatter part starting on (shard, slot) — the increment
// half of the per-shard in-flight gauge.
func (m *ServeMatrix) Enter(shard, slot int) {
	relaxedAdd(&m.cell(shard, slot).enter, 1)
}

// ExitOK marks one scatter part finishing successfully on (shard, slot),
// recording its latency into the shard's histogram.
func (m *ServeMatrix) ExitOK(shard, slot int, d time.Duration) {
	if d < 0 {
		d = 0
	}
	c := m.cell(shard, slot)
	relaxedAdd(&c.exit, 1)
	relaxedAdd(&c.queries, 1)
	relaxedAdd(&c.sumNanos, uint64(d))
	relaxedAdd(&c.lat[latBucket(d)], 1)
}

// ExitErr marks one scatter part finishing with an error (cancellation,
// deadline, fault) on (shard, slot).
func (m *ServeMatrix) ExitErr(shard, slot int) {
	c := m.cell(shard, slot)
	relaxedAdd(&c.exit, 1)
	relaxedAdd(&c.errors, 1)
}

// ServeShardStats is one shard's row of the matrix, merged across slots.
type ServeShardStats struct {
	Shard    int
	Queries  uint64 // scatter parts completed successfully on this shard
	Errors   uint64 // scatter parts that returned an error
	InFlight uint64 // parts currently executing (derived enter/exit gauge)
	Latency  LatencyStats
}

// Snapshot merges the slot dimension away, returning one row per shard.
// Safe to call concurrently with writers; allocates the result rows only.
func (m *ServeMatrix) Snapshot() []ServeShardStats {
	rows := make([]ServeShardStats, m.shards)
	for s := 0; s < m.shards; s++ {
		r := &rows[s]
		r.Shard = s
		var enter, exit uint64
		for c := 0; c < m.slots; c++ {
			cell := m.cell(s, c)
			r.Queries += atomic.LoadUint64(&cell.queries)
			r.Errors += atomic.LoadUint64(&cell.errors)
			enter += atomic.LoadUint64(&cell.enter)
			exit += atomic.LoadUint64(&cell.exit)
			r.Latency.SumNanos += atomic.LoadUint64(&cell.sumNanos)
			for b := range cell.lat {
				n := atomic.LoadUint64(&cell.lat[b])
				r.Latency.Buckets[b] += n
				r.Latency.Count += n
			}
		}
		if enter > exit { // torn read across cells; clamp like PoolInFlight
			r.InFlight = enter - exit
		}
	}
	return rows
}

// ---------------------------------------------------------------------------
// Histogram exemplars.
// ---------------------------------------------------------------------------

// ExemplarStore links latency-histogram buckets to recent trace IDs: when the
// tracing layer retains a query, it stamps the query's trace ID into the
// bucket its end-to-end latency landed in. A dashboard reader going "what is
// sitting in that slow bucket?" can then jump straight from the histogram to
// a concrete retained trace on /debug/traces. Cells are plain atomics — last
// writer wins, which is exactly the "a recent example" contract.
type ExemplarStore struct {
	ids  [LatBuckets]atomic.Uint64 // trace ID per bucket; 0 = none yet
	durs [LatBuckets]atomic.Uint64 // the exemplar's observed nanoseconds
}

// NewExemplarStore returns an empty store.
func NewExemplarStore() *ExemplarStore { return &ExemplarStore{} }

// Put records trace id as the exemplar of the bucket holding d.
func (x *ExemplarStore) Put(id uint64, d time.Duration) {
	if d < 0 {
		d = 0
	}
	b := latBucket(d)
	x.durs[b].Store(uint64(d))
	x.ids[b].Store(id)
}

// Get returns the exemplar of one bucket, or ok=false when none was recorded.
func (x *ExemplarStore) Get(bucket int) (id uint64, d time.Duration, ok bool) {
	id = x.ids[bucket].Load()
	if id == 0 {
		return 0, 0, false
	}
	return id, time.Duration(x.durs[bucket].Load()), true
}

// LatencyExemplar is one bucket's exemplar in a snapshot.
type LatencyExemplar struct {
	Bucket  int           // power-of-two bucket index (see LatBuckets)
	TraceID uint64        // retained trace whose latency landed in the bucket
	Dur     time.Duration // that trace's observed end-to-end latency
}

// Snapshot returns every recorded exemplar, in bucket order.
func (x *ExemplarStore) Snapshot() []LatencyExemplar {
	var out []LatencyExemplar
	for b := 0; b < LatBuckets; b++ {
		if id, d, ok := x.Get(b); ok {
			out = append(out, LatencyExemplar{Bucket: b, TraceID: id, Dur: d})
		}
	}
	return out
}
