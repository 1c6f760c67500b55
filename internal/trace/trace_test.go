package trace

import (
	"encoding/json"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

func TestCellStagingAndTruncation(t *testing.T) {
	var c Cell
	base := time.Now()
	c.Reset(base)
	c.Event(KindKernel, ArmMerge, FlagError, 10, 20)
	c.Span(KindStrategy, ArmHash, 0, base.Add(time.Microsecond), 2*time.Microsecond, 5, 6)
	if c.n != 2 {
		t.Fatalf("staged %d records, want 2", c.n)
	}
	ev, sp := c.recs[0], c.recs[1]
	if ev.Kind != KindKernel || ev.Arm != ArmMerge || ev.Start != 0 || ev.Dur != 0 || ev.V1 != 10 || ev.V2 != 20 {
		t.Fatalf("event record mismatch: %+v", ev)
	}
	if ev.Flags != FlagError {
		t.Fatalf("event flags mismatch: %#x", ev.Flags)
	}
	if sp.Kind != KindStrategy || sp.Arm != ArmHash {
		t.Fatalf("span record mismatch: %+v", sp)
	}
	if sp.Start != uint64(time.Microsecond) || sp.Dur != uint64(2*time.Microsecond) {
		t.Fatalf("span timing mismatch: start=%d dur=%d", sp.Start, sp.Dur)
	}
	for i := 0; i < 2*MaxSpans; i++ {
		c.Event(KindKernel, ArmMerge, 0, 0, 0)
	}
	if c.n != MaxSpans || !c.Truncated() {
		t.Fatalf("overflow not truncated: n=%d trunc=%v", c.n, c.Truncated())
	}
	c.Reset(base)
	if c.n != 0 || c.Truncated() {
		t.Fatalf("reset did not clear the cell")
	}
}

func TestSpanClampsNegativeOffsets(t *testing.T) {
	var c Cell
	base := time.Now()
	c.Reset(base)
	c.Span(KindQueue, ArmNone, 0, base.Add(-time.Second), -time.Second, 0, 0)
	if c.recs[0].Start != 0 || c.recs[0].Dur != 0 {
		t.Fatalf("negative offsets not clamped: %+v", c.recs[0])
	}
}

func TestRingPublishSnapshot(t *testing.T) {
	var r ring
	r.init(8)
	recs := []Rec{
		{Kind: KindQuery, Arm: ArmNone, Start: 1, Dur: 100, V1: 2, V2: 3},
		{Kind: KindShard, Arm: ArmNone, Start: 5, Dur: 50, V1: 7},
	}
	r.publish(42, 1, recs)
	var got []Rec
	var ids []uint64
	var shards []int
	r.snapshot(func(id uint64, shard int, rec Rec) {
		ids = append(ids, id)
		shards = append(shards, shard)
		got = append(got, rec)
	})
	if len(got) != 2 {
		t.Fatalf("snapshot returned %d records, want 2", len(got))
	}
	for i := range got {
		if ids[i] != 42 || shards[i] != 1 {
			t.Fatalf("record %d: id=%d shard=%d", i, ids[i], shards[i])
		}
		if got[i] != recs[i] {
			t.Fatalf("record %d mismatch: got %+v want %+v", i, got[i], recs[i])
		}
	}
}

func TestRingWrapKeepsNewest(t *testing.T) {
	var r ring
	r.init(4)
	for i := 0; i < 10; i++ {
		r.publish(uint64(i+1), -1, []Rec{{Kind: KindQuery, V1: uint64(i)}})
	}
	var v1s []uint64
	r.snapshot(func(id uint64, shard int, rec Rec) { v1s = append(v1s, rec.V1) })
	if len(v1s) != 4 {
		t.Fatalf("snapshot returned %d records, want 4", len(v1s))
	}
	for i, v := range v1s {
		if v != uint64(6+i) {
			t.Fatalf("record %d: v1=%d, want %d (newest 4, oldest first)", i, v, 6+i)
		}
	}
}

// TestRingConcurrentReaders hammers one ring with a writer and two readers;
// under -race this pins the atomic word discipline, and every record a
// reader accepts must be internally consistent (id == v1 by construction).
func TestRingConcurrentReaders(t *testing.T) {
	var r ring
	r.init(16)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				r.snapshot(func(id uint64, shard int, rec Rec) {
					if rec.V1 != id || rec.V2 != id {
						t.Errorf("torn record escaped: id=%d v1=%d v2=%d", id, rec.V1, rec.V2)
					}
				})
			}
		}()
	}
	for i := uint64(1); i <= 5000; i++ {
		r.publish(i, 0, []Rec{{Kind: KindQuery, V1: i, V2: i}})
	}
	close(stop)
	wg.Wait()
}

func newTestTracer(sampleN int, slow time.Duration) *Tracer {
	return New(Config{Shards: 2, Slots: 2, SampleN: sampleN, Slow: slow, RingRecs: 32, SlowCap: 4})
}

// stage fakes one query's staging on a slot: tier row + both shard rows.
func stage(tr *Tracer, slot int, base time.Time, d time.Duration) {
	tr.Begin(slot, base)
	tr.TierCell(slot).Span(KindQueue, ArmNone, 0, base, time.Microsecond, 0, 0)
	for sh := 0; sh < 2; sh++ {
		c := tr.ShardCell(sh, slot)
		c.Reset(base)
		c.Span(KindShard, ArmNone, 0, base.Add(time.Microsecond), d, 1, 0)
	}
	tr.TierCell(slot).Span(KindQuery, ArmNone, 0, base, d, 2, 9)
}

func TestFinishHeadSampling(t *testing.T) {
	tr := newTestTracer(4, 0)
	base := time.Now()
	retained := 0
	for i := 0; i < 16; i++ {
		stage(tr, 0, base, time.Millisecond)
		v := tr.Finish(0, time.Millisecond, false)
		if v.Retained() {
			retained++
			if v.Reason != ReasonSampled {
				t.Fatalf("reason %v, want sampled", v.Reason)
			}
		}
	}
	if retained != 4 {
		t.Fatalf("retained %d of 16 at 1-in-4, want 4", retained)
	}
}

func TestFinishTailCapture(t *testing.T) {
	tr := newTestTracer(0, 10*time.Millisecond)
	base := time.Now()
	stage(tr, 1, base, time.Millisecond)
	if v := tr.Finish(1, time.Millisecond, false); v.Retained() {
		t.Fatalf("fast query retained: %+v", v)
	}
	stage(tr, 1, base, 20*time.Millisecond)
	v := tr.Finish(1, 20*time.Millisecond, false)
	if v.Reason != ReasonSlow {
		t.Fatalf("slow query reason %v, want slow", v.Reason)
	}
	slow := tr.SlowQueries()
	if len(slow) != 1 {
		t.Fatalf("slow log has %d entries, want 1", len(slow))
	}
	e := slow[0]
	if e.Reason != "slow" || e.DurNs != uint64(20*time.Millisecond) {
		t.Fatalf("slow entry mismatch: %+v", e)
	}
	// Tier row (queue + query) plus two shard rows with one span each.
	if len(e.Spans) != 4 {
		t.Fatalf("slow entry has %d spans, want 4", len(e.Spans))
	}
	shardsSeen := map[int]bool{}
	for _, sp := range e.Spans {
		shardsSeen[sp.Shard] = true
	}
	for _, want := range []int{-1, 0, 1} {
		if !shardsSeen[want] {
			t.Fatalf("slow entry missing shard %d rows: %+v", want, e.Spans)
		}
	}
}

func TestFinishForcedWinsAndCaptures(t *testing.T) {
	tr := newTestTracer(1, time.Nanosecond) // everything also samples + slow
	base := time.Now()
	stage(tr, 0, base, time.Millisecond)
	v := tr.Finish(0, time.Millisecond, true)
	if v.Reason != ReasonForced {
		t.Fatalf("reason %v, want forced", v.Reason)
	}
	capd := tr.Capture(0, v)
	if capd.TraceID != formatID(v.ID) || capd.Reason != "forced" {
		t.Fatalf("capture header mismatch: %+v", capd)
	}
	if len(capd.Spans) != 4 {
		t.Fatalf("capture has %d spans, want 4", len(capd.Spans))
	}
	for i := 1; i < len(capd.Spans); i++ {
		if capd.Spans[i].StartNs < capd.Spans[i-1].StartNs {
			t.Fatalf("spans not sorted by start: %+v", capd.Spans)
		}
	}
}

func TestSlowLogBoundedMostRecentFirst(t *testing.T) {
	tr := newTestTracer(0, time.Nanosecond)
	base := time.Now()
	for i := 0; i < 10; i++ {
		stage(tr, 0, base, time.Duration(i+1)*time.Millisecond)
		tr.Finish(0, time.Duration(i+1)*time.Millisecond, false)
	}
	slow := tr.SlowQueries()
	if len(slow) != 4 { // SlowCap in newTestTracer
		t.Fatalf("slow log has %d entries, want 4", len(slow))
	}
	for i := 1; i < len(slow); i++ {
		if slow[i].DurNs > slow[i-1].DurNs {
			t.Fatalf("slow log not most-recent-first: %+v", slow)
		}
	}
	if slow[0].DurNs != uint64(10*time.Millisecond) {
		t.Fatalf("newest slow entry dur %d, want 10ms", slow[0].DurNs)
	}
}

func TestTracesMergesRings(t *testing.T) {
	tr := newTestTracer(1, 0) // sample every query
	base := time.Now()
	for i := 0; i < 3; i++ {
		stage(tr, i%2, base, time.Millisecond)
		tr.Finish(i%2, time.Millisecond, false)
	}
	traces := tr.Traces(0)
	if len(traces) != 3 {
		t.Fatalf("assembled %d traces, want 3", len(traces))
	}
	// Most recent first: IDs are monotonic.
	if traces[0].TraceID <= traces[1].TraceID {
		t.Fatalf("traces not most-recent-first: %s then %s", traces[0].TraceID, traces[1].TraceID)
	}
	for _, trc := range traces {
		if len(trc.Spans) != 4 {
			t.Fatalf("trace %s has %d spans, want 4", trc.TraceID, len(trc.Spans))
		}
	}
	if got := tr.Traces(2); len(got) != 2 {
		t.Fatalf("Traces(2) returned %d traces", len(got))
	}
}

func TestHandlersServeJSON(t *testing.T) {
	tr := newTestTracer(1, time.Nanosecond)
	base := time.Now()
	stage(tr, 0, base, time.Millisecond)
	tr.Finish(0, time.Millisecond, false)

	rec := httptest.NewRecorder()
	tr.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces?n=5", nil))
	if rec.Code != 200 {
		t.Fatalf("/debug/traces status %d", rec.Code)
	}
	var body struct {
		Traces []TraceJSON `json:"traces"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("/debug/traces not JSON: %v", err)
	}
	if len(body.Traces) != 1 {
		t.Fatalf("/debug/traces returned %d traces, want 1", len(body.Traces))
	}

	rec = httptest.NewRecorder()
	tr.SlowHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/slow", nil))
	var slowBody struct {
		Slow []SlowEntry `json:"slow"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &slowBody); err != nil {
		t.Fatalf("/debug/slow not JSON: %v", err)
	}
	if len(slowBody.Slow) != 1 {
		t.Fatalf("/debug/slow returned %d entries, want 1", len(slowBody.Slow))
	}
}

// TestFinishZeroAllocWarm pins the commit path's allocation-free contract —
// staging, retention, ring publication and slow-log push all run on
// pre-allocated storage.
func TestFinishZeroAllocWarm(t *testing.T) {
	tr := newTestTracer(2, time.Nanosecond) // alternate sampling; everything slow-logged
	base := time.Now()
	allocs := testing.AllocsPerRun(200, func() {
		stage(tr, 0, base, time.Millisecond)
		tr.Finish(0, time.Millisecond, false)
	})
	if allocs != 0 {
		t.Fatalf("stage+Finish allocates %.1f per query, want 0", allocs)
	}
}

func TestMetaPackRoundTrip(t *testing.T) {
	rec := Rec{Kind: KindStrategy, Arm: ArmKWay, Flags: FlagError | FlagTruncated}
	for _, shard := range []int{-1, 0, 1, 255, 32767} {
		kind, arm, sh, flags := unpackMeta(packMeta(rec, shard))
		if kind != rec.Kind || arm != rec.Arm || sh != shard || flags != rec.Flags {
			t.Fatalf("meta round-trip failed for shard %d: %v %d %d %#x", shard, kind, arm, sh, flags)
		}
	}
}
