package stats

import (
	"sync/atomic"
	"time"
)

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
