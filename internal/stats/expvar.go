package stats

import (
	"expvar"
	"fmt"
)

// Map renders the snapshot as a JSON-marshalable tree — the expvar payload.
// Counters appear under their stable names; latency histograms report count,
// mean and coarse percentiles per strategy; the kernel histogram is a sparse
// list of [sizeA, sizeB, count] triples in descending count order.
func (s *Snapshot) Map() map[string]any {
	m := make(map[string]any, int(NumCounters)+3)
	for c := Counter(0); c < NumCounters; c++ {
		m[c.Name()] = s.Counters[c]
	}
	m["pool_inflight"] = s.PoolInFlight()
	m["serve_queue_depth"] = s.ServeQueueDepth()
	m["serve_inflight"] = s.ServeInFlight
	lat := make(map[string]any, NumLatHists)
	for h := LatHist(0); h < NumLatHists; h++ {
		l := s.Latencies[h]
		if l.Count == 0 {
			continue
		}
		lat[h.Name()] = map[string]any{
			"count":     l.Count,
			"sum_ns":    l.SumNanos,
			"mean_ns":   uint64(l.Mean()),
			"p50_ns":    uint64(l.Quantile(0.50)),
			"p90_ns":    uint64(l.Quantile(0.90)),
			"p99_ns":    uint64(l.Quantile(0.99)),
			"p999_ns":   uint64(l.Quantile(0.999)),
			"max_le_ns": uint64(l.Quantile(1.0)),
		}
	}
	m["latency"] = lat
	if len(s.ServeExemplars) > 0 {
		exs := make([]map[string]any, 0, len(s.ServeExemplars))
		for _, ex := range s.ServeExemplars {
			exs = append(exs, map[string]any{
				"bucket":   ex.Bucket,
				"trace_id": fmt.Sprintf("%016x", ex.TraceID),
				"dur_ns":   uint64(ex.Dur),
			})
		}
		m["serve_exemplars"] = exs
	}
	kernels := make([][3]uint64, 0, len(s.Kernels))
	for _, kb := range s.Kernels {
		kernels = append(kernels, [3]uint64{uint64(kb.SizeA), uint64(kb.SizeB), kb.Count})
	}
	m["kernel_dispatch"] = kernels
	return m
}

// ExpvarFunc returns an expvar.Func that snapshots the sink on every render,
// so `GET /debug/vars` always shows live values.
func (k *Sink) ExpvarFunc() expvar.Func {
	return expvar.Func(func() any {
		snap := k.Snapshot()
		return snap.Map()
	})
}

// Publish registers the sink under the given expvar name. Like
// expvar.Publish it must be called at most once per name per process.
func (k *Sink) Publish(name string) {
	expvar.Publish(name, k.ExpvarFunc())
}
