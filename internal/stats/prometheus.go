package stats

import (
	"fmt"
	"io"
	"strconv"

	"fesia/internal/simd"
)

// promCounter maps a Counter to its Prometheus series. Counters sharing a
// family are exported with distinguishing labels.
type promSeries struct {
	family string
	labels string // rendered label set including braces, "" for none
	help   string
}

var promCounters = [NumCounters]promSeries{
	CtrQueriesMerge:        {"fesia_queries_total", `{strategy="merge"}`, "Queries answered, by intersection strategy."},
	CtrQueriesHash:         {"fesia_queries_total", `{strategy="hash"}`, ""},
	CtrQueriesKWay:         {"fesia_queries_total", `{strategy="kway"}`, ""},
	CtrQueriesBatch:        {"fesia_queries_total", `{strategy="batch"}`, ""},
	CtrQueriesCross:        {"fesia_queries_total", `{strategy="cross"}`, ""},
	CtrQueriesKWayProbe:    {"fesia_kway_probe_queries_total", "", "K-way queries (3+ sets) that ran the probe chain; fesia_queries_total{strategy=\"kway\"} counts them too."},
	CtrBuildSegmented:      {"fesia_sets_built_total", `{rep="segmented"}`, "Sets built, by physical representation."},
	CtrBuildArray:          {"fesia_sets_built_total", `{rep="array"}`, ""},
	CtrBuildDense:          {"fesia_sets_built_total", `{rep="dense"}`, ""},
	CtrDispSegSeg:          {"fesia_rep_dispatch_total", `{pair="seg_seg"}`, "Pair queries routed through the cross-representation dispatch matrix, by unordered representation pair."},
	CtrDispSegArray:        {"fesia_rep_dispatch_total", `{pair="seg_array"}`, ""},
	CtrDispSegDense:        {"fesia_rep_dispatch_total", `{pair="seg_dense"}`, ""},
	CtrDispArrayArray:      {"fesia_rep_dispatch_total", `{pair="array_array"}`, ""},
	CtrDispArrayDense:      {"fesia_rep_dispatch_total", `{pair="array_dense"}`, ""},
	CtrDispDenseDense:      {"fesia_rep_dispatch_total", `{pair="dense_dense"}`, ""},
	CtrBatchCandidates:     {"fesia_batch_candidates_total", "", "Candidates processed by one-vs-many batch queries."},
	CtrSegmentsScanned:     {"fesia_segments_scanned_total", "", "Segments examined by the bitmap word-AND pass (merge strategy)."},
	CtrSegPairs:            {"fesia_segment_pairs_total", "", "Segment pairs surviving the bitmap filter and dispatched to kernels."},
	CtrHashProbes:          {"fesia_hash_probes_total", "", "Elements probed by the hash strategy."},
	CtrHashSurvivors:       {"fesia_hash_probe_survivors_total", "", "Hash probes whose bitmap bit was set (entered the segment scan)."},
	CtrCancellations:       {"fesia_query_cancellations_total", "", "Queries that returned ctx.Err() at a cooperative checkpoint."},
	CtrPoolDo:              {"fesia_pool_do_total", "", "Parallel Do calls entered on the worker pool."},
	CtrPoolDoDone:          {"fesia_pool_do_done_total", "", "Parallel Do calls completed on the worker pool."},
	CtrPoolPartsPooled:     {"fesia_pool_parts_total", `{mode="pooled"}`, "Task parts, by whether a parked worker took them or they ran inline."},
	CtrPoolPartsInline:     {"fesia_pool_parts_total", `{mode="inline"}`, ""},
	CtrPoolPanics:          {"fesia_pool_task_panics_total", "", "Panics contained by the worker pool."},
	CtrSnapshotWrites:      {"fesia_snapshot_ops_total", `{op="write",outcome="ok"}`, "Snapshot codec operations, by direction and outcome."},
	CtrSnapshotWriteErrors: {"fesia_snapshot_ops_total", `{op="write",outcome="error"}`, ""},
	CtrSnapshotReads:       {"fesia_snapshot_ops_total", `{op="read",outcome="ok"}`, ""},
	CtrSnapshotReadErrors:  {"fesia_snapshot_ops_total", `{op="read",outcome="error"}`, ""},
	CtrServeAdmitted:       {"fesia_serve_requests_total", `{outcome="admitted"}`, "Serving-tier requests, by admission outcome."},
	CtrServeRejected:       {"fesia_serve_requests_total", `{outcome="rejected"}`, ""},
	CtrServeShed:           {"fesia_serve_requests_total", `{outcome="shed"}`, ""},
	CtrServeDeadline:       {"fesia_serve_deadline_expiries_total", "", "Admitted serving-tier queries that expired their deadline (HTTP 504s)."},
	CtrServeQueueEnter:     {"fesia_serve_queue_events_total", `{event="enter"}`, "Admission-queue entries and exits (difference = live queue depth)."},
	CtrServeQueueExit:      {"fesia_serve_queue_events_total", `{event="exit"}`, ""},
	CtrServeSwaps:          {"fesia_serve_swaps_total", `{outcome="ok"}`, "Hot corpus snapshot swaps, by outcome."},
	CtrServeSwapErrors:     {"fesia_serve_swaps_total", `{outcome="error"}`, ""},
	CtrServeRejQueueFull:   {"fesia_serve_rejections_total", `{reason="queue_full"}`, "Admission-queue rejections by overload flavor (the shed flavor is fesia_serve_requests_total{outcome=\"shed\"})."},
	CtrServeRejQueueWait:   {"fesia_serve_rejections_total", `{reason="queue_wait"}`, ""},
	CtrTraceSampled:        {"fesia_trace_captured_total", `{reason="sampled"}`, "Queries retained by the tracing layer, by capture reason."},
	CtrTraceSlow:           {"fesia_trace_captured_total", `{reason="slow"}`, ""},
	CtrTraceForced:         {"fesia_trace_captured_total", `{reason="forced"}`, ""},
}

// WritePrometheus renders a snapshot in the Prometheus text exposition format
// (version 0.0.4), with no external dependencies. Latency histograms use the
// native power-of-two buckets as cumulative `le` buckets in seconds; the
// kernel-dispatch histogram is exported as a labelled counter family.
func WritePrometheus(w io.Writer, s *Snapshot) error {
	// Build-info gauge: a constant 1 whose labels identify the ladder rung
	// actually dispatching in this process ("avx512" when the compress-store
	// kernels and gathered probe are active, "avx2" for the AVX2 assembly
	// tier, "scalar" for the pure-Go reference). Scrapers join it against the
	// query counters to attribute performance shifts to the backend in play.
	if _, err := fmt.Fprintf(w, "# HELP fesia_build_info Constant 1, labelled with the active intersection backend.\n# TYPE fesia_build_info gauge\nfesia_build_info{backend=%q} 1\n", simd.Backend()); err != nil {
		return err
	}

	// Counters, grouped so each family's HELP/TYPE header appears once.
	lastFamily := ""
	for c := Counter(0); c < NumCounters; c++ {
		ps := promCounters[c]
		if ps.family != lastFamily {
			if ps.help != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", ps.family, ps.help); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s counter\n", ps.family); err != nil {
				return err
			}
			lastFamily = ps.family
		}
		if _, err := fmt.Fprintf(w, "%s%s %d\n", ps.family, ps.labels, s.Counters[c]); err != nil {
			return err
		}
	}

	// Pool in-flight gauge, derived from the Do counter pair.
	if _, err := fmt.Fprintf(w, "# HELP fesia_pool_inflight Parallel Do calls currently in flight.\n# TYPE fesia_pool_inflight gauge\nfesia_pool_inflight %d\n", s.PoolInFlight()); err != nil {
		return err
	}

	// Serving-tier queue-depth gauge, derived from the enter/exit counter pair.
	if _, err := fmt.Fprintf(w, "# HELP fesia_serve_queue_depth Requests currently waiting in the admission queue.\n# TYPE fesia_serve_queue_depth gauge\nfesia_serve_queue_depth %d\n", s.ServeQueueDepth()); err != nil {
		return err
	}

	// Per-shard serving rows (slots merged away): counts, the in-flight
	// gauge, and latency sum/count plus a p99 gauge per shard — enough to
	// spot a straggler shard on a dashboard without tracing enabled.
	if len(s.ServeShards) > 0 {
		if _, err := fmt.Fprintf(w, "# HELP fesia_serve_shard_queries_total Scatter parts completed, by document shard.\n# TYPE fesia_serve_shard_queries_total counter\n"); err != nil {
			return err
		}
		for _, r := range s.ServeShards {
			if _, err := fmt.Fprintf(w, "fesia_serve_shard_queries_total{shard=\"%d\"} %d\n", r.Shard, r.Queries); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# HELP fesia_serve_shard_errors_total Scatter parts that returned an error, by document shard.\n# TYPE fesia_serve_shard_errors_total counter\n"); err != nil {
			return err
		}
		for _, r := range s.ServeShards {
			if _, err := fmt.Fprintf(w, "fesia_serve_shard_errors_total{shard=\"%d\"} %d\n", r.Shard, r.Errors); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# HELP fesia_serve_shard_inflight Scatter parts currently executing, by document shard.\n# TYPE fesia_serve_shard_inflight gauge\n"); err != nil {
			return err
		}
		for _, r := range s.ServeShards {
			if _, err := fmt.Fprintf(w, "fesia_serve_shard_inflight{shard=\"%d\"} %d\n", r.Shard, r.InFlight); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# HELP fesia_serve_shard_latency_seconds_sum Total scatter-part latency, by document shard.\n# TYPE fesia_serve_shard_latency_seconds_sum counter\n"); err != nil {
			return err
		}
		for _, r := range s.ServeShards {
			if _, err := fmt.Fprintf(w, "fesia_serve_shard_latency_seconds_sum{shard=\"%d\"} %g\n", r.Shard, float64(r.Latency.SumNanos)/1e9); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# HELP fesia_serve_shard_p99_seconds Upper-bound p99 of scatter-part latency, by document shard.\n# TYPE fesia_serve_shard_p99_seconds gauge\n"); err != nil {
			return err
		}
		for _, r := range s.ServeShards {
			if _, err := fmt.Fprintf(w, "fesia_serve_shard_p99_seconds{shard=\"%d\"} %g\n", r.Shard, r.Latency.Quantile(0.99).Seconds()); err != nil {
				return err
			}
		}
	}

	// LatServe exemplars: one recent retained trace ID per occupied latency
	// bucket, the histogram-to-trace pivot. Exported as a labelled gauge (a
	// valid 0.0.4 family) rather than OpenMetrics inline exemplars, so the
	// hand-rolled text format stays parseable by classic scrapers.
	if len(s.ServeExemplars) > 0 {
		if _, err := fmt.Fprintf(w, "# HELP fesia_serve_latency_exemplar Recent retained trace per serve-latency bucket; value is that trace's latency in seconds.\n# TYPE fesia_serve_latency_exemplar gauge\n"); err != nil {
			return err
		}
		for _, ex := range s.ServeExemplars {
			le := float64(uint64(1)<<uint(ex.Bucket)) / 1e9
			if _, err := fmt.Fprintf(w, "fesia_serve_latency_exemplar{le=%q,trace_id=\"%016x\"} %g\n",
				strconv.FormatFloat(le, 'g', -1, 64), ex.TraceID, ex.Dur.Seconds()); err != nil {
				return err
			}
		}
	}

	// Latency histograms.
	const latFamily = "fesia_query_latency_seconds"
	if _, err := fmt.Fprintf(w, "# HELP %s Query latency, by intersection strategy.\n# TYPE %s histogram\n", latFamily, latFamily); err != nil {
		return err
	}
	for h := LatHist(0); h < NumLatHists; h++ {
		l := s.Latencies[h]
		var cum uint64
		for b := 0; b < LatBuckets-1; b++ {
			cum += l.Buckets[b]
			if l.Buckets[b] == 0 && b > 0 {
				continue // keep the exposition compact: only emit buckets that changed the sum
			}
			le := float64(uint64(1)<<uint(b)) / 1e9
			if _, err := fmt.Fprintf(w, "%s_bucket{strategy=%q,le=%q} %d\n",
				latFamily, h.Name(), strconv.FormatFloat(le, 'g', -1, 64), cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{strategy=%q,le=\"+Inf\"} %d\n", latFamily, h.Name(), l.Count); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum{strategy=%q} %g\n", latFamily, h.Name(), float64(l.SumNanos)/1e9); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_count{strategy=%q} %d\n", latFamily, h.Name(), l.Count); err != nil {
			return err
		}
	}

	// Kernel-dispatch histogram (sparse).
	const kFamily = "fesia_kernel_dispatch_total"
	if _, err := fmt.Fprintf(w, "# HELP %s Kernel dispatches by true segment-size pair (%d = that size and above).\n# TYPE %s counter\n", kFamily, KernelDim-1, kFamily); err != nil {
		return err
	}
	for _, kb := range s.Kernels {
		if _, err := fmt.Fprintf(w, "%s{size_a=\"%d\",size_b=\"%d\"} %d\n", kFamily, kb.SizeA, kb.SizeB, kb.Count); err != nil {
			return err
		}
	}

	return nil
}

// WritePrometheus renders the sink's current state; see the free function.
func (k *Sink) WritePrometheus(w io.Writer) error {
	snap := k.Snapshot()
	return WritePrometheus(w, &snap)
}
