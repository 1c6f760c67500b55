package planner

import (
	"testing"
	"time"

	"fesia/internal/simd"
)

// onEachRung runs f with the AVX-512 rung off, then (where the host has it)
// on, and restores the dispatch state: the seg×seg rule and its priors
// differ between the two.
func onEachRung(f func(gathered bool)) {
	prevAsm, prevAvx512 := simd.SetAsmEnabled(true), simd.SetAvx512Enabled(false)
	defer func() {
		simd.SetAvx512Enabled(prevAvx512)
		simd.SetAsmEnabled(prevAsm)
	}()
	f(false)
	if simd.SetAvx512Enabled(true); simd.GatherProbeActive() {
		f(true)
	}
}

// TestPriorMatchesStatic sweeps work-size pairs across every decision kind
// and checks that a cold model (prior costs only) reproduces the static size
// rules bit for bit on each rung, including the boundary tie-breaks: merge
// at small == large/4 (below the hash floor, or off the AVX-512 rung),
// seg-probes-dense at den == seg, array-probes-dense at arr == den. The model
// is built before the rungs are walked, so its priors must follow a toggle.
func TestPriorMatchesStatic(t *testing.T) {
	m := New(WithMode(ModePrior))
	h := m.NewHandle()
	sizes := []int{0, 1, 3, 15, 16, 17, 31, 32, 63, 64, 255, 1024, 4096, 65536, 1 << 20, 1 << 26, 1 << 28}
	onEachRung(func(gathered bool) {
		for _, a := range sizes {
			for _, b := range sizes {
				// seg×seg: arm 1 (hash) iff small < large/4, or, on the
				// AVX-512 rung, small holds at least 16 elements.
				small, large := a, b
				if small > large {
					small, large = large, small
				}
				wantHash := 4*small < large || gathered && small >= 16
				if HashSegSeg(small, large) != wantHash {
					t.Errorf("gathered=%v HashSegSeg(%d, %d) = %v, want %v", gathered, small, large, !wantHash, wantHash)
				}
				if got := h.Decide(DecSegSeg, large, small).Arm == 1; got != wantHash {
					t.Errorf("gathered=%v DecSegSeg(%d, %d): hash=%v, static wants %v", gathered, large, small, got, wantHash)
				}
				// seg×dense: arm 0 (probe from dense) iff den.n < seg.n.
				den, seg := a, b
				wantFromDense := den < seg
				if got := h.Decide(DecSegDense, den, seg).Arm == 0; got != wantFromDense {
					t.Errorf("DecSegDense(den=%d, seg=%d): fromDense=%v, static wants %v", den, seg, got, wantFromDense)
				}
				// array×dense: arm 0 (probe from array) iff arr.n <= den.n.
				arr, dn := a, b
				wantFromArray := arr <= dn
				if got := h.Decide(DecArrayDense, arr, dn).Arm == 0; got != wantFromArray {
					t.Errorf("DecArrayDense(arr=%d, den=%d): fromArray=%v, static wants %v", arr, dn, got, wantFromArray)
				}
			}
		}
		// Boundary cases called out explicitly: the exact quarter ratio
		// stays merge below the floor, and off the AVX-512 rung above it.
		for _, large := range []int{4, 60, 400, 1 << 20} {
			wantHash := gathered && large/4 >= HashFloor
			if got := h.Decide(DecSegSeg, large, large/4).Arm == 1; got != wantHash {
				t.Errorf("gathered=%v DecSegSeg(%d, %d): hash=%v at the quarter boundary, want %v", gathered, large, large/4, got, wantHash)
			}
		}
	})
	if h.Decide(DecSegDense, 512, 512).Arm != 1 {
		t.Error("DecSegDense tie must probe from the segmented side (arm 1)")
	}
	if h.Decide(DecArrayDense, 512, 512).Arm != 0 {
		t.Error("DecArrayDense tie must probe from the array side (arm 0)")
	}
}

// TestHashFloorIsBucketBoundary: the priors carry the hash floor exactly
// only because a size bucket starts at it.
func TestHashFloorIsBucketBoundary(t *testing.T) {
	if bucketMin(bucketOf(HashFloor)) != HashFloor {
		t.Fatalf("HashFloor %d does not start a size bucket", HashFloor)
	}
}

// TestPriorModeNeverMeasures: prior handles carry no shard and must never ask
// for measurement or explore.
func TestPriorModeNeverMeasures(t *testing.T) {
	h := New(WithMode(ModePrior), WithSampleEvery(1), WithExploreEvery(1)).NewHandle()
	for i := 0; i < 1000; i++ {
		ch := h.Decide(DecSegSeg, 1000, 100)
		if ch.Measure() || ch.Explored {
			t.Fatal("prior-mode decision flagged for measurement or exploration")
		}
	}
}

// TestLearnedFlipsDecision: feeding the model measurements that contradict
// the prior must flip the preferred arm after a re-fit.
func TestLearnedFlipsDecision(t *testing.T) {
	m := New(WithMode(ModeLearned), WithSampleEvery(1), WithExploreEvery(0))
	h := m.NewHandle()
	// Priors pick merge for (large=12, small=8) on every rung, the smaller
	// side being under the hash floor: est0 = 12 < est1 = 32.
	if h.Decide(DecSegSeg, 12, 8).Arm != 0 {
		t.Fatal("priors should pick merge at ratio 2/3 below the hash floor")
	}
	// Measure merge as catastrophically slow (100ns per element) for as long
	// as the model keeps picking it.
	for i := 0; i < 64; i++ {
		ch := h.Decide(DecSegSeg, 12, 8)
		if ch.Arm == 1 {
			break // flipped
		}
		if !ch.Measure() {
			t.Fatal("sampleEvery=1 must measure every decision")
		}
		h.Record(ch, 100_000*time.Nanosecond)
		m.Refit()
	}
	if h.Decide(DecSegSeg, 12, 8).Arm != 1 {
		t.Fatal("measured merge cost 100ns/elem should flip the decision to hash")
	}
	// The same ratio in a different bucket is unaffected.
	if h.Decide(DecSegSeg, 6, 4).Arm != 0 {
		t.Error("a different size bucket must keep its prior")
	}
}

// TestExplorationRate: explored decisions arrive at roughly 1/exploreEvery.
func TestExplorationRate(t *testing.T) {
	h := New(WithMode(ModeLearned), WithExploreEvery(8), WithSampleEvery(1<<30)).NewHandle()
	const n = 64_000
	explored := 0
	for i := 0; i < n; i++ {
		if h.Decide(DecSegSeg, 1000, 999).Explored {
			explored++
		}
	}
	want := n / 8
	if explored < want*7/10 || explored > want*13/10 {
		t.Fatalf("explored %d of %d decisions, want about %d", explored, n, want)
	}
}

// TestRefitConsumesDeltas: a re-fit folds only samples recorded since the
// previous one, so repeating identical observations converges the EWMA toward
// the observed cost rather than re-applying stale history.
func TestRefitConsumesDeltas(t *testing.T) {
	m := New(WithMode(ModeLearned), WithSampleEvery(1), WithExploreEvery(0))
	h := m.NewHandle()
	cost := func() float64 {
		for _, c := range m.Snapshot().Cells {
			if c.Arm == "merge" {
				return c.CostNs
			}
		}
		return -1
	}
	var last float64 = 1.0 // the seg×seg merge prior
	for round := 0; round < 6; round++ {
		ch := h.Decide(DecSegSeg, 1000, 10_000_000) // merge preferred
		h.Record(ch, 10_000*time.Nanosecond)        // 10ns per element
		m.Refit()
		got := cost()
		if got <= last {
			t.Fatalf("round %d: cost %.3f did not move toward the 10ns observation (last %.3f)", round, got, last)
		}
		last = got
	}
	if last > 10.0 {
		t.Fatalf("EWMA overshot the observation: %.3f", last)
	}
	// An idle re-fit (no new samples) must not move the estimate.
	m.Refit()
	if got := cost(); got != last {
		t.Fatalf("idle re-fit moved the cost: %.3f -> %.3f", last, got)
	}
}

// TestHoldRelease: samples recorded under Hold reach the model only when
// Release commits them; an uncommitted Release drops them.
func TestHoldRelease(t *testing.T) {
	m := New(WithMode(ModeLearned), WithSampleEvery(1), WithExploreEvery(0))
	h := m.NewHandle()
	samples := func() (n uint64) {
		m.Refit()
		for _, c := range m.Snapshot().Cells {
			n += c.Samples
		}
		return n
	}
	record := func(k int) {
		for i := 0; i < k; i++ {
			h.Record(h.Decide(DecSegSeg, 1000, 10_000_000), time.Microsecond)
		}
	}
	h.Hold()
	record(3)
	h.Release(false)
	if got := samples(); got != 0 {
		t.Fatalf("dropped hold left %d samples, want 0", got)
	}
	h.Hold()
	record(3)
	if got := samples(); got != 0 {
		t.Fatalf("held samples reached the model before Release: %d", got)
	}
	h.Release(true)
	if got := samples(); got != 3 {
		t.Fatalf("committed hold recorded %d samples, want 3", got)
	}
	record(2)
	if got := samples(); got != 5 {
		t.Fatalf("Record after Release recorded %d samples in all, want 5", got)
	}
}

// TestKWayProbePlane: recorded compaction passes move the per-rep probe cost
// and surface in the snapshot.
func TestKWayProbePlane(t *testing.T) {
	m := New(WithMode(ModeLearned), WithSampleEvery(1))
	h := m.NewHandle()
	if got := h.ProbeCost(1); got != 4.0 {
		t.Fatalf("prior probe cost = %v, want 4.0", got)
	}
	for i := 0; i < 32; i++ {
		h.RecordProbe(1, 16_000*time.Nanosecond, 1000) // 16ns per probe
		m.Refit()
	}
	if got := h.ProbeCost(1); got < 8.0 {
		t.Fatalf("probe cost %v did not move toward the 16ns observation", got)
	}
	if got := h.ProbeCost(0); got != 4.0 {
		t.Fatalf("untouched rep moved: %v", got)
	}
	snap := m.Snapshot()
	if len(snap.KProbe) != 1 || snap.KProbe[0].Rep != "array" {
		t.Fatalf("snapshot KProbe = %+v, want one array row", snap.KProbe)
	}
	// Out-of-range reps fall back to the prior and record nothing.
	if got := h.ProbeCost(99); got != 4.0 {
		t.Fatalf("out-of-range probe cost = %v", got)
	}
	h.RecordProbe(99, time.Millisecond, 10)
}

// TestSnapshotCells: the snapshot lists exactly the measured cells with their
// decision and arm names.
func TestSnapshotCells(t *testing.T) {
	m := New(WithMode(ModeLearned), WithSampleEvery(1), WithExploreEvery(0))
	h := m.NewHandle()
	ch := h.Decide(DecArrayDense, 100, 1000) // arm 0 (fromArray) preferred
	h.Record(ch, time.Microsecond)
	snap := m.Snapshot()
	if snap.Mode != "learned" || snap.SampleEvery != 1 {
		t.Fatalf("snapshot config: %+v", snap)
	}
	if len(snap.Cells) != 1 {
		t.Fatalf("snapshot has %d cells, want 1", len(snap.Cells))
	}
	c := snap.Cells[0]
	if c.Decision != "array_dense" || c.Arm != "probe_from_array" || c.Samples != 1 {
		t.Fatalf("cell = %+v", c)
	}
}

// TestActivate: the process-wide registry treats ModeOff models as "no
// planner".
func TestActivate(t *testing.T) {
	defer Activate(nil)
	if ActiveMode() != ModeOff {
		t.Fatal("planner active at test start")
	}
	Activate(New(WithMode(ModeOff)))
	if Active() != nil {
		t.Fatal("ModeOff model must deactivate")
	}
	m := New(WithMode(ModeLearned))
	Activate(m)
	if Active() != m || ActiveMode() != ModeLearned {
		t.Fatal("learned model not active")
	}
	Activate(nil)
	if Active() != nil || ActiveMode().String() != "off" {
		t.Fatal("nil must deactivate")
	}
}

// TestConcurrentRecordRefit hammers one model from several handles while
// re-fits and snapshots run concurrently — the shard/refit protocol must be
// race-clean (run under -race).
func TestConcurrentRecordRefit(t *testing.T) {
	m := New(WithMode(ModeLearned), WithSampleEvery(1), WithExploreEvery(4))
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			h := m.NewHandle()
			for i := 0; i < 4000; i++ {
				ch := h.Decide(DecSegSeg, 1000+i, 100+i)
				if ch.Measure() {
					h.Record(ch, time.Duration(i)*time.Nanosecond)
				}
				h.RecordProbe(i%3, time.Microsecond, 100)
			}
		}()
	}
	for i := 0; i < 50; i++ {
		m.Refit()
		_ = m.Snapshot()
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	m.Refit()
	if m.Snapshot().Refits == 0 {
		t.Fatal("no re-fit ran")
	}
}
