package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"testing"
	"time"

	"fesia/internal/stats"
	"fesia/internal/trace"
)

// traceTier builds a tier over a moderate corpus with tracing enabled.
func traceTier(t *testing.T, cfg Config) (*Tier, [][]uint32) {
	t.Helper()
	lists := genLists(48, 4000, 0.2, 7)
	tier, err := NewTier(lists, cfg)
	if err != nil {
		t.Fatalf("NewTier: %v", err)
	}
	t.Cleanup(func() { tier.Shutdown(context.Background()) })
	return tier, lists
}

func TestTracerNilWhenDisabled(t *testing.T) {
	tier, _ := traceTier(t, Config{})
	if tier.Tracer() != nil {
		t.Fatal("tracing off by default, but tier has a tracer")
	}
	n, capd, err := tier.QueryCountTraced(context.Background(), 1, 2)
	if err != nil {
		t.Fatalf("QueryCountTraced without tracer: %v", err)
	}
	if capd != nil {
		t.Fatalf("capture without tracer: %+v", capd)
	}
	if ctr(tier, stats.CtrTraceForced) != 0 {
		t.Fatal("forced counter bumped without tracer")
	}
	_ = n
}

// TestForcedCaptureBreakdown is the acceptance-criteria test: a forced
// capture returns a span breakdown whose stage durations (queue + scatter)
// sum to within 10% of the root span's end-to-end latency, and the query's
// part span carries the executor-level strategy detail.
func TestForcedCaptureBreakdown(t *testing.T) {
	tier, lists := traceTier(t, Config{TraceSample: 0, SlowQuery: time.Hour})
	items := []uint32{2, 5, 9}
	want := bruteCount(lists, items)

	var capd *trace.Captured
	// Warm up, then capture a steady-state query (the first queries pay
	// build/warm-up noise that has nothing to do with stage attribution).
	for i := 0; i < 50; i++ {
		n, c, err := tier.QueryCountTraced(context.Background(), items...)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if n != want {
			t.Fatalf("query %d: count %d, want %d", i, n, want)
		}
		capd = c
	}
	if capd == nil || capd.Reason != "forced" {
		t.Fatalf("no forced capture: %+v", capd)
	}

	var root, queue, scatter *trace.Span
	shardSpans := 0
	strategySpans := 0
	for i := range capd.Spans {
		sp := &capd.Spans[i]
		switch sp.Kind {
		case "query":
			root = sp
		case "queue":
			queue = sp
		case "scatter":
			scatter = sp
		case "shard":
			shardSpans++
		case "strategy":
			strategySpans++
		}
	}
	if root == nil || queue == nil || scatter == nil {
		t.Fatalf("missing tier spans: %+v", capd.Spans)
	}
	if shardSpans != 1 {
		t.Fatalf("%d shard spans, want 1", shardSpans)
	}
	if strategySpans == 0 {
		t.Fatalf("no strategy spans in capture: %+v", capd.Spans)
	}
	if root.V1 != uint64(len(items)) || root.V2 != uint64(want) {
		t.Fatalf("root payload mismatch: %+v", root)
	}
	stages := queue.DurNs + scatter.DurNs
	if root.DurNs == 0 {
		t.Fatal("root span has zero duration")
	}
	diff := float64(root.DurNs) - float64(stages)
	if diff < 0 {
		diff = -diff
	}
	if diff/float64(root.DurNs) > 0.10 {
		t.Fatalf("stage sum %dns vs end-to-end %dns: gap %.1f%% > 10%%",
			stages, root.DurNs, 100*diff/float64(root.DurNs))
	}
	for _, sp := range capd.Spans {
		if sp.Kind == "strategy" && sp.Arm != "kway" {
			t.Fatalf("equal-size 3-keyword query ran arm %q, want kway: %+v", sp.Arm, sp)
		}
	}
	// The query's part runs on the slot owner: its span fits inside the
	// scatter span. Spans arrive sorted by start offset.
	at := scatter.StartNs
	for _, sp := range capd.Spans {
		if sp.Kind != "shard" {
			continue
		}
		if sp.StartNs < at {
			t.Fatalf("shard %d span starts at %dns, before the scatter start %dns: %+v",
				sp.Shard, sp.StartNs, at, capd.Spans)
		}
		at = sp.StartNs + sp.DurNs
	}
	if end := scatter.StartNs + scatter.DurNs; at > end {
		t.Fatalf("shard span ends at %dns, after the scatter span's end %dns: %+v", at, end, capd.Spans)
	}

	// A skewed 3-keyword query — a list of ~1% of the documents against two
	// of ~20% — runs the probe chain: the strategy span and the tier's
	// counters name the same arm.
	lists = append(lists, genLists(1, 4000, 0.01, 8)...)
	skewed, err := NewTier(lists, Config{SlowQuery: time.Hour})
	if err != nil {
		t.Fatalf("NewTier: %v", err)
	}
	t.Cleanup(func() { skewed.Shutdown(context.Background()) })
	items = []uint32{2, uint32(len(lists) - 1), 5}
	n, capd, err := skewed.QueryCountTraced(context.Background(), items...)
	if err != nil || n != bruteCount(lists, items) {
		t.Fatalf("skewed query = %d, %v, want %d", n, err, bruteCount(lists, items))
	}
	probeSpans := 0
	for _, sp := range capd.Spans {
		if sp.Kind != "strategy" {
			continue
		}
		if sp.Arm != "kway-probe" || sp.V1 != uint64(len(items)) {
			t.Fatalf("skewed query strategy span %+v, want arm kway-probe over %d sets", sp, len(items))
		}
		probeSpans++
	}
	if probeSpans != 1 {
		t.Fatalf("%d kway-probe strategy spans, want 1", probeSpans)
	}
	if got := ctr(skewed, stats.CtrQueriesKWayProbe); got != 1 {
		t.Fatalf("probe-chain counter = %d, want 1", got)
	}
}

// TestSlowShardForensics is the second acceptance-criteria test: the
// query's part is deliberately slowed, and the straggler must be
// identifiable from the /debug/slow output — its part span dominates the
// breakdown.
func TestSlowShardForensics(t *testing.T) {
	const delay = 8 * time.Millisecond
	tier, _ := traceTier(t, Config{SlowQuery: 3 * time.Millisecond})
	tier.partDelay = func(int) { time.Sleep(delay) }
	if _, err := tier.QueryCount(context.Background(), 2, 5); err != nil {
		t.Fatalf("query: %v", err)
	}

	rec := httptest.NewRecorder()
	tier.Tracer().SlowHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/slow", nil))
	var body struct {
		Slow []trace.SlowEntry `json:"slow"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("/debug/slow not JSON: %v", err)
	}
	if len(body.Slow) == 0 {
		t.Fatal("/debug/slow empty after a slow query")
	}
	e := body.Slow[0]
	if e.Reason != "slow" {
		t.Fatalf("slow entry reason %q, want slow", e.Reason)
	}
	// The part span must hold the injected delay and most of the query's
	// time, by a wide margin over every span it does not contain.
	var part, root, otherMax uint64
	for _, sp := range e.Spans {
		switch sp.Kind {
		case "shard":
			part = sp.DurNs
		case "query":
			root = sp.DurNs
		case "scatter":
		default:
			otherMax = max(otherMax, sp.DurNs)
		}
	}
	if part < uint64(delay) || 2*part < root || part < 2*otherMax {
		t.Fatalf("slow part not clearly identifiable: part %dns, query %dns, next span %dns (spans: %+v)",
			part, root, otherMax, e.Spans)
	}
	// And the serve latency histogram shows the same straggler without
	// tracing.
	snap := tier.Stats()
	if m := snap.Latency(stats.LatServe).Mean(); m < delay {
		t.Fatalf("LatServe mean %v does not show the injected %v delay", m, delay)
	}
}

func TestTraceRetentionCountersAndExemplars(t *testing.T) {
	tier, _ := traceTier(t, Config{TraceSample: 4, SlowQuery: time.Hour})
	for i := 0; i < 32; i++ {
		if _, err := tier.QueryCount(context.Background(), 1, 3); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	snap := tier.Stats()
	// Sampling is per slot; with sequential queries all land on one slot —
	// but slot choice is whichever the semaphore hands out. Accept any
	// positive sample count bounded by total/4 rounded across slots.
	if got := ctr(tier, stats.CtrTraceSampled); got == 0 || got > 8 {
		t.Fatalf("sampled counter %d after 32 queries at 1-in-4", got)
	}
	if len(snap.ServeExemplars) == 0 {
		t.Fatal("no latency exemplars after sampled queries")
	}
	// Forced capture bumps its own counter.
	if _, _, err := tier.QueryCountTraced(context.Background(), 1, 3); err != nil {
		t.Fatalf("traced query: %v", err)
	}
	if got := ctr(tier, stats.CtrTraceForced); got != 1 {
		t.Fatalf("forced counter %d, want 1", got)
	}
}

func TestOverloadFlavorCounters(t *testing.T) {
	lists := genLists(16, 200, 0.2, 3)
	tier, err := NewTier(lists, Config{
		MaxConcurrent: 1, MaxQueue: 1,
		MaxQueueWait: 100 * time.Millisecond, ShedTargetP99: -1,
	})
	if err != nil {
		t.Fatalf("NewTier: %v", err)
	}
	defer tier.Shutdown(context.Background())

	// Occupy the only slot. A failed assertion must still return it, or
	// the deferred Shutdown waits for it forever.
	slot, _, err := tier.lim.acquire(context.Background(), nil)
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	held := true
	defer func() {
		if held {
			tier.lim.release(slot)
		}
	}()
	// First waiter joins the queue and times out -> queue_wait.
	waitErr := make(chan error, 1)
	go func() {
		_, err := tier.QueryCount(context.Background(), 1)
		waitErr <- err
	}()
	// Once the waiter holds the queue's one seat, overflow it -> queue_full.
	for i := 0; tier.lim.queued.Load() == 0; i++ {
		if i > 5000 {
			t.Fatal("waiter never queued")
		}
		time.Sleep(10 * time.Microsecond)
	}
	_, fullErr := tier.QueryCount(context.Background(), 1)
	var oe *OverloadError
	if !errors.As(fullErr, &oe) || oe.Reason != ReasonQueueFull {
		t.Fatalf("overflow rejection = %v, want queue_full", fullErr)
	}
	if err := <-waitErr; !errors.As(err, &oe) || oe.Reason != ReasonQueueWait {
		t.Fatalf("queued rejection = %v, want queue_wait", err)
	}
	tier.lim.release(slot)
	held = false

	if got := ctr(tier, stats.CtrServeRejQueueFull); got != 1 {
		t.Fatalf("queue_full counter %d, want 1", got)
	}
	if got := ctr(tier, stats.CtrServeRejQueueWait); got != 1 {
		t.Fatalf("queue_wait counter %d, want 1", got)
	}
	if got := ctr(tier, stats.CtrServeRejected); got != 2 {
		t.Fatalf("aggregate rejected counter %d, want 2", got)
	}
}

// TestTraceZeroAllocWarm pins the warm allocation count of the whole serve
// path: a warm query allocates nothing with tracing off, and a tier
// with tracing at default sampling must allocate exactly as much.
func TestTraceZeroAllocWarm(t *testing.T) {
	measure := func(cfg Config) float64 {
		lists := genLists(32, 2000, 0.2, 5)
		tier, err := NewTier(lists, cfg)
		if err != nil {
			t.Fatalf("NewTier: %v", err)
		}
		defer tier.Shutdown(context.Background())
		ctx := context.Background()
		for i := 0; i < 200; i++ { // warm executors, rings, slow log
			if _, err := tier.QueryCount(ctx, 2, 7); err != nil {
				t.Fatalf("warm-up query: %v", err)
			}
		}
		return testing.AllocsPerRun(300, func() {
			if _, err := tier.QueryCount(ctx, 2, 7); err != nil {
				t.Fatalf("query: %v", err)
			}
		})
	}
	off := measure(Config{ShedTargetP99: -1})
	if off != 0 {
		t.Fatalf("untraced tier allocates %.2f per warm query, want 0", off)
	}
	on := measure(Config{ShedTargetP99: -1, TraceSample: 64, SlowQuery: 20 * time.Millisecond})
	if on != off {
		t.Fatalf("tracing on allocates %.2f per warm query vs %.2f off; tracing must add 0", on, off)
	}
}

func TestTracedQueryMatchesBrute(t *testing.T) {
	tier, lists := traceTier(t, Config{TraceSample: 2, SlowQuery: time.Millisecond})
	queries := [][]uint32{{1}, {2, 6}, {3, 8, 12}, {4, 9, 14, 21}}
	for _, q := range queries {
		n, _, err := tier.QueryCountTraced(context.Background(), q...)
		if err != nil {
			t.Fatalf("query %v: %v", q, err)
		}
		if want := bruteCount(lists, q); n != want {
			t.Fatalf("query %v: count %d, want %d", q, n, want)
		}
	}
	// Every forced query is retained; /debug/traces must assemble them.
	traces := tier.Tracer().Traces(0)
	if len(traces) < len(queries) {
		t.Fatalf("assembled %d traces, want >= %d", len(traces), len(queries))
	}
}
