package stats

import (
	"strings"
	"testing"
	"time"
)

func TestExemplarStore(t *testing.T) {
	x := NewExemplarStore()
	if _, _, ok := x.Get(5); ok {
		t.Fatal("empty store returned an exemplar")
	}
	x.Put(7, 3*time.Millisecond)
	x.Put(9, 100*time.Microsecond)
	x.Put(11, 3500*time.Microsecond) // same bucket as 3ms: last writer wins
	snap := x.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot has %d exemplars, want 2", len(snap))
	}
	// Bucket order: the 100µs exemplar first.
	if snap[0].TraceID != 9 || snap[0].Dur != 100*time.Microsecond {
		t.Fatalf("first exemplar mismatch: %+v", snap[0])
	}
	if snap[1].TraceID != 11 || snap[1].Dur != 3500*time.Microsecond {
		t.Fatalf("overwritten exemplar mismatch: %+v", snap[1])
	}
	allocs := testing.AllocsPerRun(100, func() { x.Put(3, time.Millisecond) })
	if allocs != 0 {
		t.Fatalf("Put allocates %.1f, want 0", allocs)
	}
}

func TestSinkSnapshotCarriesServeInFlightAndExemplars(t *testing.T) {
	k := New()
	k.SetServeInFlight(func() uint64 { return 3 })
	x := NewExemplarStore()
	x.Put(0xabc, 2*time.Millisecond)
	k.SetServeExemplars(x)

	snap := k.Snapshot()
	if snap.ServeInFlight != 3 {
		t.Fatalf("snapshot serve in-flight = %d, want 3", snap.ServeInFlight)
	}
	if len(snap.ServeExemplars) != 1 || snap.ServeExemplars[0].TraceID != 0xabc {
		t.Fatalf("snapshot exemplars mismatch: %+v", snap.ServeExemplars)
	}

	var sb strings.Builder
	if err := k.WritePrometheus(&sb); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out := sb.String()
	for _, want := range []string{
		"fesia_serve_inflight 3\n",
		`fesia_serve_latency_exemplar{`,
		`trace_id="0000000000000abc"`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "fesia_serve_shard_") {
		t.Fatalf("prometheus output still carries a per-shard serve family:\n%s", out)
	}

	mp := snap.Map()
	if got, ok := mp["serve_inflight"]; !ok || got != uint64(3) {
		t.Fatalf("expvar serve_inflight = %v (present %v), want 3", got, ok)
	}
	if _, ok := mp["serve_exemplars"]; !ok {
		t.Fatalf("expvar map missing serve_exemplars: %v", mp)
	}
}
