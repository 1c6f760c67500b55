package stats

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// TestShardedMergeCorrectness drives a deterministic pattern of updates
// through many shards plus the shared shard and checks the merged snapshot
// is the exact sum — the aggregation the read-side APIs depend on.
func TestShardedMergeCorrectness(t *testing.T) {
	k := New()
	const shards = 7
	for w := 0; w < shards; w++ {
		s := k.NewShard()
		for i := 0; i <= w; i++ {
			s.Inc(CtrQueriesMerge)
			s.Add(CtrSegPairs, uint64(10*(w+1)))
			s.Kernel(w, w+1)
			s.Observe(LatMerge, time.Duration(1)<<uint(w)*time.Microsecond)
		}
	}
	k.Inc(CtrPoolPanics)
	k.Add(CtrSnapshotReads, 3)
	k.Observe(LatMerge, time.Millisecond)

	snap := k.Snapshot()
	if snap.NumShards != shards {
		t.Fatalf("NumShards = %d, want %d", snap.NumShards, shards)
	}
	// sum over w of (w+1) increments = shards*(shards+1)/2
	wantQ := uint64(shards * (shards + 1) / 2)
	if got := snap.Counter(CtrQueriesMerge); got != wantQ {
		t.Errorf("QueriesMerge = %d, want %d", got, wantQ)
	}
	var wantPairs uint64
	for w := 0; w < shards; w++ {
		wantPairs += uint64((w + 1) * 10 * (w + 1))
	}
	if got := snap.Counter(CtrSegPairs); got != wantPairs {
		t.Errorf("SegPairs = %d, want %d", got, wantPairs)
	}
	if got := snap.Counter(CtrPoolPanics); got != 1 {
		t.Errorf("PoolPanics = %d, want 1", got)
	}
	if got := snap.Counter(CtrSnapshotReads); got != 3 {
		t.Errorf("SnapshotReads = %d, want 3", got)
	}

	lat := snap.Latency(LatMerge)
	if lat.Count != wantQ+1 {
		t.Errorf("latency count = %d, want %d", lat.Count, wantQ+1)
	}
	var wantSum uint64
	for w := 0; w < shards; w++ {
		wantSum += uint64(w+1) * uint64(time.Duration(1)<<uint(w)*time.Microsecond)
	}
	wantSum += uint64(time.Millisecond)
	if lat.SumNanos != wantSum {
		t.Errorf("latency sum = %d, want %d", lat.SumNanos, wantSum)
	}

	// Kernel histogram: shard w recorded (w, w+1) w+1 times.
	got := make(map[[2]int]uint64)
	for _, kb := range snap.Kernels {
		got[[2]int{kb.SizeA, kb.SizeB}] = kb.Count
	}
	for w := 0; w < shards; w++ {
		if got[[2]int{w, w + 1}] != uint64(w+1) {
			t.Errorf("kernel (%d,%d) = %d, want %d", w, w+1, got[[2]int{w, w + 1}], w+1)
		}
	}
	// Descending order.
	for i := 1; i < len(snap.Kernels); i++ {
		if snap.Kernels[i].Count > snap.Kernels[i-1].Count {
			t.Errorf("kernel list not in descending count order at %d", i)
		}
	}
}

func TestLatBucketEdges(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 0},
		{1, 1},
		{2, 2},
		{3, 2},
		{4, 3},
		{1023, 10},
		{1024, 11},
		{time.Duration(1) << 62, LatBuckets - 1},
	}
	for _, c := range cases {
		if got := latBucket(c.d); got != c.want {
			t.Errorf("latBucket(%d) = %d, want %d", c.d, got, c.want)
		}
	}
}

func TestKernelSlotClamp(t *testing.T) {
	s := &Shard{}
	s.Kernel(5, 1000) // sizeB far past the clamp
	s.Kernel(KernelDim+7, KernelDim-1)
	k := New()
	k.mu.Lock()
	k.shards = append(k.shards, s)
	k.mu.Unlock()
	snap := k.Snapshot()
	got := make(map[[2]int]uint64)
	for _, kb := range snap.Kernels {
		got[[2]int{kb.SizeA, kb.SizeB}] = kb.Count
	}
	if got[[2]int{5, KernelDim - 1}] != 1 {
		t.Errorf("clamped (5, big) missing: %v", snap.Kernels)
	}
	if got[[2]int{KernelDim - 1, KernelDim - 1}] != 1 {
		t.Errorf("clamped (big, big) missing: %v", snap.Kernels)
	}
}

func TestQuantile(t *testing.T) {
	var l LatencyStats
	if l.Quantile(0.5) != 0 || l.Mean() != 0 {
		t.Fatal("empty histogram should report zero")
	}
	// 90 observations in bucket 10 ([512, 1024) ns), 10 in bucket 20.
	l.Buckets[10] = 90
	l.Buckets[20] = 10
	l.Count = 100
	l.SumNanos = 90*700 + 10*600_000
	if got := l.Quantile(0.5); got != time.Duration(1<<10) {
		t.Errorf("p50 = %v, want %v", got, time.Duration(1<<10))
	}
	if got := l.Quantile(0.99); got != time.Duration(1<<20) {
		t.Errorf("p99 = %v, want %v", got, time.Duration(1<<20))
	}
	if got := l.Quantile(0.90); got != time.Duration(1<<10) {
		t.Errorf("p90 = %v, want %v", got, time.Duration(1<<10))
	}
	wantMean := time.Duration(l.SumNanos / 100)
	if got := l.Mean(); got != wantMean {
		t.Errorf("mean = %v, want %v", got, wantMean)
	}
}

func TestWritePrometheus(t *testing.T) {
	k := New()
	s := k.NewShard()
	s.Inc(CtrQueriesMerge)
	s.Inc(CtrQueriesMerge)
	s.Inc(CtrQueriesHash)
	s.Inc(CtrQueriesKWay)
	s.Inc(CtrQueriesKWayProbe)
	s.Add(CtrSegPairs, 42)
	s.Kernel(3, 5)
	s.Observe(LatMerge, 800*time.Nanosecond)
	s.Observe(LatMerge, 3*time.Microsecond)
	k.Inc(CtrSnapshotWriteErrors)

	var b strings.Builder
	if err := k.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`fesia_queries_total{strategy="merge"} 2`,
		`fesia_queries_total{strategy="hash"} 1`,
		`fesia_queries_total{strategy="kway"} 1`,
		"fesia_kway_probe_queries_total 1",
		"fesia_segment_pairs_total 42",
		`fesia_kernel_dispatch_total{size_a="3",size_b="5"} 1`,
		`fesia_snapshot_ops_total{op="write",outcome="error"} 1`,
		`fesia_query_latency_seconds_count{strategy="merge"} 2`,
		`fesia_query_latency_seconds_bucket{strategy="merge",le="+Inf"} 2`,
		"# TYPE fesia_query_latency_seconds histogram",
		"# TYPE fesia_queries_total counter",
		"fesia_pool_inflight 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q\n---\n%s", want, out)
		}
	}
	// Each family's series are contiguous: one TYPE line per family.
	types := map[string]bool{}
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			if types[line] {
				t.Errorf("family split in two: %q appears twice", line)
			}
			types[line] = true
		}
	}
	// Cumulative le buckets must be monotonically non-decreasing.
	var prev, nbuckets int
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, `fesia_query_latency_seconds_bucket{strategy="merge"`) {
			var v int
			if _, err := fmtSscanLast(line, &v); err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
			if v < prev {
				t.Errorf("non-monotonic cumulative bucket: %q after %d", line, prev)
			}
			prev = v
			nbuckets++
		}
	}
	if nbuckets < 2 {
		t.Errorf("expected at least 2 merge latency buckets, got %d", nbuckets)
	}
}

// fmtSscanLast parses the trailing integer of a prometheus sample line.
func fmtSscanLast(line string, v *int) (int, error) {
	i := strings.LastIndexByte(line, ' ')
	n, err := parseInt(line[i+1:])
	*v = n
	return 1, err
}

func parseInt(s string) (int, error) {
	var n int
	_, err := jsonUnmarshalInt(s, &n)
	return n, err
}

func jsonUnmarshalInt(s string, n *int) (bool, error) {
	return true, json.Unmarshal([]byte(s), n)
}

func TestExpvarMap(t *testing.T) {
	k := New()
	s := k.NewShard()
	s.Inc(CtrQueriesBatch)
	s.Add(CtrBatchCandidates, 128)
	s.Observe(LatBatch, 2*time.Millisecond)
	s.Kernel(1, 2)

	payload := k.ExpvarFunc().Value()
	raw, err := json.Marshal(payload)
	if err != nil {
		t.Fatalf("expvar payload not marshalable: %v", err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if m["queries_batch"].(float64) != 1 {
		t.Errorf("queries_batch = %v, want 1", m["queries_batch"])
	}
	if m["batch_candidates"].(float64) != 128 {
		t.Errorf("batch_candidates = %v, want 128", m["batch_candidates"])
	}
	lat := m["latency"].(map[string]any)
	if _, ok := lat["batch"]; !ok {
		t.Errorf("latency.batch missing: %v", lat)
	}
	if len(m["kernel_dispatch"].([]any)) != 1 {
		t.Errorf("kernel_dispatch = %v, want one entry", m["kernel_dispatch"])
	}
}
