// Package planner is the adaptive per-pair strategy planner of the online
// intersection phase: a live cost model that replaces the engine's static
// dispatch thresholds (the seg×seg merge/hash rule HashSegSeg, the
// cross-representation probe-side size rules, the k-way smallest-set seed)
// with decisions derived from measured latencies.
//
// The model follows Ding & König's observation (Fast Set Intersection in
// Memory, arXiv:1103.2409) that no fixed threshold is right across
// selectivity regimes, backends and cache pressure: instead, every binary
// dispatch decision keeps one cost cell per (size-pair bucket, decision
// kind) — and, implicitly, per backend, since the cells are fitted from this
// process's measurements on whichever backend simd dispatch selected. A cell
// holds an EWMA estimate of each strategy arm's cost per unit of work
// (nanoseconds per element merged / per element probed); a decision is
// argmin over arm of cost[arm]·work[arm], i.e. ~one table lookup plus two
// multiplies on the hot path, with zero allocations.
//
// Cold start: a cell no re-fit has touched reads its prior, derived from the
// static rules. The seg×seg priors come from HashSegSeg, the one definition
// of the static merge/hash rule: a hash:merge cost ratio of 1/SkewThreshold
// (4:1) reproduces the paper's ratio rule, and on the AVX-512 rung the cells
// whose smaller side is at or above HashFloor carry a hash prior below
// merge's, so every pair in them hashes. The cross-representation priors are
// equal, reducing to the probe-smaller-side rules. Priors are read at
// decision time, on the rung live then. A planner in ModePrior therefore
// makes bit-identical decisions to the static engine on every rung;
// ModeLearned re-fits the cells online.
//
// Learning follows the stats package's ownership model: each executor (and
// each parallel worker slot) holds a Handle with a private single-writer
// accumulator Shard, updated with relaxed atomics and no contention. One in
// sampleEvery decisions is timed and recorded; one in exploreEvery decisions
// deliberately takes the non-preferred arm (epsilon exploration) so both
// arms keep fresh estimates and the model tracks workload drift. Shards are
// merged lazily: every refitEvery recorded samples, the recording handle
// tries a re-fit — a try-locked pass that folds each cell's new samples into
// the fitted cost by EWMA. Decision reads and fitted-cost writes go through
// atomic uint64 float bits, so readers never lock and the race detector is
// satisfied.
package planner

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"fesia/internal/simd"
)

// Mode selects how much of the planner is active.
type Mode uint8

const (
	// ModeOff disables the planner entirely: the engine keeps its static
	// heuristics and pays nothing. This is the default and the escape hatch.
	ModeOff Mode = iota
	// ModePrior consults the cost model but never learns: decisions come
	// from the cold-start priors, which reproduce the static heuristics
	// bit-for-bit. Useful to isolate the consultation overhead.
	ModePrior
	// ModeLearned is the full planner: sampled latency feedback, epsilon
	// exploration, and online EWMA re-fit.
	ModeLearned
)

// String returns the mode's stable external name (logged by fesiaserve and
// exported as the fesia_planner_info metric label).
func (m Mode) String() string {
	switch m {
	case ModePrior:
		return "prior"
	case ModeLearned:
		return "learned"
	}
	return "off"
}

// Decision identifies one binary dispatch decision kind. Each kind has two
// arms whose work units are the two sizes passed to Decide, in order.
type Decision uint8

const (
	// DecSegSeg picks the seg×seg pair strategy: arm 0 is the two-step
	// merge (work ∝ the larger set), arm 1 the per-element hash probe
	// (work ∝ the smaller set). Replaces the static rule HashSegSeg.
	DecSegSeg Decision = iota
	// DecSegDense picks the probing side of a seg×dense pair: arm 0 decodes
	// the dense bits and probes the segmented set (work ∝ the dense size),
	// arm 1 bit-tests the segmented set's elements against the dense span
	// (work ∝ the segmented size). Replaces the den.n < seg.n rule.
	DecSegDense
	// DecArrayDense picks the probing side of an array×dense pair: arm 0
	// bit-tests the array's elements (work ∝ the array size), arm 1
	// binary-searches the decoded dense bits (work ∝ the dense size).
	// Replaces the arr.n <= den.n rule.
	DecArrayDense
	// NumDecisions is the number of decision kinds; keep last.
	NumDecisions
)

var decisionNames = [NumDecisions]string{
	DecSegSeg:     "seg_seg",
	DecSegDense:   "seg_dense",
	DecArrayDense: "array_dense",
}

// String returns the decision kind's stable external name.
func (d Decision) String() string { return decisionNames[d] }

var armNames = [NumDecisions][2]string{
	DecSegSeg:     {"merge", "hash"},
	DecSegDense:   {"probe_from_dense", "probe_from_seg"},
	DecArrayDense: {"probe_from_array", "probe_from_dense"},
}

// ArmName returns the stable external name of one decision arm.
func ArmName(d Decision, arm int) string { return armNames[d][arm&1] }

// numBuckets is the per-side size-bucket count: bucket i holds sizes with
// bits.Len(n) == i (i.e. n in [2^(i-1), 2^i)), with the last bucket
// absorbing everything at or above 2^(numBuckets-2) elements (~67M).
const numBuckets = 27

// Cell-table geometry: one cell per (decision, bucket, bucket), two cost
// entries (arms) per cell.
const (
	numCells   = int(NumDecisions) * numBuckets * numBuckets
	numEntries = numCells * 2
)

// numKReps sizes the k-way probe-cost plane: one cell per physical set
// representation (segmented=0, array=1, dense=2 — core.Rep's values).
const numKReps = 3

var kRepNames = [numKReps]string{"segmented", "array", "dense"}

// Tuning defaults; override with the With* options.
const (
	// DefaultExploreEvery is the epsilon-exploration period: one in this
	// many decisions takes the non-preferred arm (and is always measured).
	DefaultExploreEvery = 64
	// DefaultSampleEvery is the feedback sampling period: one in this many
	// decisions is timed and recorded into the handle's shard.
	DefaultSampleEvery = 16
	// refitEvery is the lazy re-fit period: every this many recorded
	// samples, the recording handle attempts a model re-fit.
	refitEvery = 256
	// alpha is the EWMA re-fit weight given to a cell's new observation.
	alpha = 0.25
)

// bucketOf maps a work size to its power-of-two bucket.
func bucketOf(n int) int {
	if n < 0 {
		return 0
	}
	b := bits.Len64(uint64(n))
	if b >= numBuckets {
		b = numBuckets - 1
	}
	return b
}

// cellOf returns the cell index of a decision at a size pair.
func cellOf(d Decision, w0, w1 int) int {
	return (int(d)*numBuckets+bucketOf(w0))*numBuckets + bucketOf(w1)
}

// SkewThreshold is the size ratio below which the static seg×seg rule
// (HashSegSeg) hashes on every rung: Section VI's FESIAmerge/FESIAhash
// crossover, which the paper's Fig. 11 places at a skew of about 1/4. The
// sweep of the arms that ship (BenchmarkPairArms, EXPERIMENTS.md "Fig 11 on
// the shipped path") keeps it on the AVX2 and scalar rungs.
const SkewThreshold = 0.25

// HashFloor is the smaller side's length from which the static seg×seg rule
// hashes every pair on the AVX-512 rung, where the probe hashes, gathers and
// bit-tests sixteen elements at a time (simd.ProbeStage) and a probe is
// filtered by one bitmap bit, not by an 8-bit segment. The sweep
// (EXPERIMENTS.md "Fig 11 on the shipped path") has hash ahead on that rung
// in every cell whose smaller side fills a gathered group, but for two
// 16-element sides at low selectivity, and the arms mixed below it. It is a
// power of two, so it starts a size bucket and the priors carry it exactly.
const HashFloor = 16

// HashSegSeg is the static seg×seg merge/hash rule: the hash probe when the
// smaller side's length is below SkewThreshold times the larger's, or, on
// the AVX-512 rung, when the smaller side holds at least HashFloor elements;
// the two-step merge otherwise. Core's planner-off dispatch and this
// package's seg×seg priors both read it.
func HashSegSeg(small, large int) bool {
	return float64(small) < SkewThreshold*float64(large) || small >= HashFloor && simd.GatherProbeActive()
}

// priorCost returns the cold-start per-unit cost of one decision arm in a
// cell whose arm-1 work size falls in bucket b1, chosen so that argmin
// cost·work reproduces the engine's static rules exactly (see the package
// comment). It reads the live rung, so call it at decision time.
func priorCost(d Decision, arm, b1 int) float64 {
	switch {
	case d != DecSegSeg:
		// Cross-representation probe-side priors are equal: argmin reduces
		// to the probe-smaller-side size rules.
		return 2.0
	case arm == 0:
		return 1.0
	case HashSegSeg(bucketMin(b1), bucketMin(b1)):
		// The rule hashes the cell's smallest equal-size pair, so (HashFloor
		// being a bucket boundary) it hashes every pair in the cell: a hash
		// cost below merge's gives cost·small < small ≤ large.
		return 0.5
	}
	// hash:merge = 1/SkewThreshold ⇔ hash iff small < SkewThreshold·large.
	return 1 / SkewThreshold
}

// bucketMin returns the smallest work size in bucket b.
func bucketMin(b int) int {
	if b == 0 {
		return 0
	}
	return 1 << (b - 1)
}

// kProbePrior is the cold-start per-probe cost of the k-way compaction
// passes; equal across representations, so the seed pick reduces to the
// static smallest-set rule.
const kProbePrior = 4.0

// relaxedAdd is the single-writer accumulator update: an atomic load+store
// pair (two MOVs and an ADD on x86 — no LOCK prefix). The atomics are for
// reader visibility and the race detector; the single-writer contract
// provides exclusion.
func relaxedAdd(p *uint64, n uint64) {
	atomic.StoreUint64(p, atomic.LoadUint64(p)+n)
}

// Shard is one handle's private sample accumulator: per cell-arm sums of
// observed nanoseconds, work units and sample counts, plus the k-way
// probe-cost plane. Like a stats.Shard it must only ever be written by the
// goroutine owning its handle; the re-fit pass reads it with atomic loads.
// Cells are monotonic; re-fit consumes deltas.
type Shard struct {
	sum  [numEntries]uint64 // observed nanoseconds
	work [numEntries]uint64 // observed work units
	cnt  [numEntries]uint64 // samples
	// k-way membership-probe plane, by target representation.
	kSum  [numKReps]uint64
	kWork [numKReps]uint64
	kCnt  [numKReps]uint64
	_     [8]uint64 // pad the tail off the next shard's hot words
}

// Model is the shared cost model: the fitted per-unit cost table the hot
// path reads, the registered sample shards, and the re-fit bookkeeping.
// Construct with New; share one Model across every executor that should
// learn from (and decide with) the same cells.
type Model struct {
	mode         Mode
	exploreEvery uint64
	sampleEvery  uint64

	// cost holds the fitted per-unit costs as float64 bits, read with
	// atomic loads on every decision and stored by the re-fit pass; 0 marks
	// an entry still at its prior (loadCost).
	cost  [numEntries]uint64
	kCost [numKReps]uint64

	mu     sync.Mutex // guards shards
	shards []*Shard

	handleSeq atomic.Uint64 // handle counter, seeds per-handle rng streams

	fitMu  sync.Mutex // serializes re-fits (TryLock; losers skip)
	refits atomic.Uint64
	// Last-consumed accumulator totals, so each re-fit folds only the
	// samples recorded since the previous one.
	prevSum   [numEntries]uint64
	prevWork  [numEntries]uint64
	prevCnt   [numEntries]uint64
	kPrevSum  [numKReps]uint64
	kPrevWork [numKReps]uint64
	kPrevCnt  [numKReps]uint64
}

// Option customizes New.
type Option func(*Model)

// WithMode selects the planner mode (default ModeLearned).
func WithMode(m Mode) Option { return func(p *Model) { p.mode = m } }

// WithExploreEvery sets the epsilon-exploration period: one in everyN
// decisions takes the non-preferred arm. 0 disables exploration (the model
// then only ever re-measures the arm it already prefers).
func WithExploreEvery(everyN int) Option {
	return func(p *Model) {
		if everyN < 0 {
			everyN = 0
		}
		p.exploreEvery = uint64(everyN)
	}
}

// WithSampleEvery sets the feedback sampling period: one in everyN decisions
// is timed and recorded. Values below 1 are clamped to 1 (measure every
// decision).
func WithSampleEvery(everyN int) Option {
	return func(p *Model) {
		if everyN < 1 {
			everyN = 1
		}
		p.sampleEvery = uint64(everyN)
	}
}

// New returns a Model with every cell at its static-rule prior.
func New(opts ...Option) *Model {
	m := &Model{
		mode:         ModeLearned,
		exploreEvery: DefaultExploreEvery,
		sampleEvery:  DefaultSampleEvery,
	}
	for _, o := range opts {
		o(m)
	}
	for r := range m.kCost {
		m.kCost[r] = math.Float64bits(kProbePrior)
	}
	return m
}

// Mode returns the mode the model was constructed with.
func (m *Model) Mode() Mode { return m.mode }

// loadCost returns a cell-arm entry's fitted per-unit cost, or its prior
// while no re-fit has folded a sample into it (a fitted cost is never 0: it
// starts at a positive prior and moves toward non-negative observations).
func (m *Model) loadCost(entry int) float64 {
	if c := atomic.LoadUint64(&m.cost[entry]); c != 0 {
		return math.Float64frombits(c)
	}
	cell := entry / 2
	return priorCost(Decision(cell/(numBuckets*numBuckets)), entry&1, cell%numBuckets)
}

// NewHandle registers and returns a fresh decision handle. A Handle is
// single-goroutine, like the executor that owns it; give each executor (and
// each parallel worker slot) its own. In ModePrior the handle carries no
// shard — decisions are prior-only and nothing is recorded.
func (m *Model) NewHandle() *Handle {
	h := &Handle{m: m, exploreEvery: m.exploreEvery, sampleEvery: m.sampleEvery}
	// Seed the xorshift state per handle (never zero — zero is the xorshift
	// fixed point), splitmix-style so sibling handles draw unrelated streams.
	s := m.handleSeq.Add(1) * 0x9e3779b97f4a7c15
	s ^= s >> 30
	h.rng = s | 1
	if m.mode == ModeLearned {
		h.shard = &Shard{}
		m.mu.Lock()
		m.shards = append(m.shards, h.shard)
		m.mu.Unlock()
	}
	return h
}

// Handle is one executor's (or worker slot's) view of the model: shared
// fitted costs for decisions, a private shard for sampled feedback. Not safe
// for concurrent use — single-writer, like the executor scratch it lives in.
type Handle struct {
	m            *Model
	shard        *Shard // nil in ModePrior
	exploreEvery uint64
	sampleEvery  uint64
	rng          uint64 // xorshift state for exploration + sampling draws
	recorded     uint64 // samples recorded since the last re-fit attempt
	holding      bool   // between Hold and Release: Record buffers into held
	held         []heldSample
}

// heldSample is one Record buffered by Hold.
type heldSample struct {
	c       Choice
	elapsed time.Duration
}

// next draws the handle's next pseudo-random value (xorshift64). Stride
// counters (every Nth decision) would be cheaper still, but they alias with
// periodic workloads — a batch alternating two candidate shapes in lockstep
// with the stride would starve one decision family of samples forever.
func (h *Handle) next() uint64 {
	x := h.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	h.rng = x
	return x
}

// Choice is one decision's outcome and bookkeeping token. Arm is the chosen
// strategy arm; when Measure reports true the caller must time the chosen
// arm's execution and pass the Choice back through Record.
type Choice struct {
	cell     int32
	work     uint32
	Arm      uint8
	Explored bool // this decision deliberately took the non-preferred arm
	measure  bool
}

// Measure reports whether the caller must time this decision's execution and
// Record the result.
func (c Choice) Measure() bool { return c.measure }

// Decide resolves one binary dispatch decision: w0 and w1 are the two arms'
// work sizes (elements merged for arm 0 of DecSegSeg, elements probed for
// arm 1, and so on — see the Decision constants). The preferred arm is
// argmin over arms of fittedCost·work; ties break toward the arm the static
// heuristic picks at its boundary, so a prior-mode planner reproduces the
// static decisions exactly. In ModeLearned, one in exploreEvery decisions
// takes the other arm instead, and one in sampleEvery is flagged for
// measurement. Zero allocations; ~one table lookup of work.
func (h *Handle) Decide(d Decision, w0, w1 int) Choice {
	cell := cellOf(d, w0, w1)
	est0 := h.m.loadCost(2*cell) * float64(w0)
	est1 := h.m.loadCost(2*cell+1) * float64(w1)
	var arm uint8
	// Tie rule per decision kind: the static rules' boundary behavior
	// (merge at the SkewThreshold boundary, seg-probes-dense at den==seg,
	// array-probes-dense at arr==den).
	if est1 < est0 || (est1 == est0 && d == DecSegDense) {
		arm = 1
	}
	ch := Choice{cell: int32(cell), Arm: arm}
	if h.shard == nil {
		return ch
	}
	r := h.next()
	if h.exploreEvery != 0 && r%h.exploreEvery == 0 {
		ch.Arm ^= 1
		ch.Explored = true
		ch.measure = true
	} else if r%h.sampleEvery == 0 {
		ch.measure = true
	}
	if ch.measure {
		w := w0
		if ch.Arm == 1 {
			w = w1
		}
		if w < 1 {
			w = 1
		}
		if w > math.MaxUint32 {
			w = math.MaxUint32
		}
		ch.work = uint32(w)
	}
	return ch
}

// EstimateNanos returns the fitted cost estimates, in nanoseconds, of both
// arms of a decision at a work-size pair — the two products Decide compares.
// The tracing layer records them beside the measured latency so a mispriced
// cell (prediction far from observation) is visible per query.
func (h *Handle) EstimateNanos(d Decision, w0, w1 int) (est0, est1 float64) {
	cell := cellOf(d, w0, w1)
	return h.m.loadCost(2*cell) * float64(w0), h.m.loadCost(2*cell+1) * float64(w1)
}

// Record feeds one measured decision back into the handle's shard, and every
// refitEvery samples triggers a lazy model re-fit. No-op unless the choice
// was flagged for measurement.
func (h *Handle) Record(c Choice, elapsed time.Duration) {
	if !c.measure || h.shard == nil {
		return
	}
	if h.holding {
		h.held = append(h.held, heldSample{c, elapsed})
		return
	}
	if elapsed < 0 {
		elapsed = 0
	}
	entry := 2*int(c.cell) + int(c.Arm)
	relaxedAdd(&h.shard.sum[entry], uint64(elapsed))
	relaxedAdd(&h.shard.work[entry], uint64(c.work))
	relaxedAdd(&h.shard.cnt[entry], 1)
	h.recorded++
	if h.recorded%refitEvery == 0 {
		h.m.refit()
	}
}

// Hold makes Record buffer its samples until Release: a caller whose query
// may yet be abandoned holds them, so that a cancelled query feeds the model
// nothing.
func (h *Handle) Hold() {
	h.holding = true
	h.held = h.held[:0]
}

// Release ends a Hold: with commit the buffered samples are recorded,
// otherwise they are dropped.
func (h *Handle) Release(commit bool) {
	h.holding = false
	if commit {
		for _, r := range h.held {
			h.Record(r.c, r.elapsed)
		}
	}
	h.held = h.held[:0]
}

// ProbeCost returns the fitted per-probe membership cost of compacting a
// k-way chain against a set of the given representation (core.Rep values).
// The k-way seed pick minimizes n_seed · Σ ProbeCost(other reps).
func (h *Handle) ProbeCost(rep int) float64 {
	if rep < 0 || rep >= numKReps {
		return kProbePrior
	}
	return math.Float64frombits(atomic.LoadUint64(&h.m.kCost[rep]))
}

// SampleKWay reports whether the current k-way query's compaction passes
// should be timed and recorded (one in sampleEvery; always false in
// ModePrior).
func (h *Handle) SampleKWay() bool {
	if h.shard == nil {
		return false
	}
	return h.next()%h.sampleEvery == 0
}

// RecordProbe feeds one timed k-way compaction pass (probes membership tests
// against a set of the given representation) into the probe-cost plane.
func (h *Handle) RecordProbe(rep int, elapsed time.Duration, probes int) {
	if h.shard == nil || rep < 0 || rep >= numKReps || probes <= 0 {
		return
	}
	if elapsed < 0 {
		elapsed = 0
	}
	relaxedAdd(&h.shard.kSum[rep], uint64(elapsed))
	relaxedAdd(&h.shard.kWork[rep], uint64(probes))
	relaxedAdd(&h.shard.kCnt[rep], 1)
	h.recorded++
	if h.recorded%refitEvery == 0 {
		h.m.refit()
	}
}

// refit folds every shard's new samples into the fitted cost table: for each
// cell-arm with fresh work, cost ← cost + alpha·(ΔNanos/ΔWork − cost). The
// fit is try-locked — concurrent recorders skip rather than queue — and the
// pass is a few thousand atomic loads, amortized over refitEvery samples.
func (m *Model) refit() {
	if !m.fitMu.TryLock() {
		return
	}
	defer m.fitMu.Unlock()
	m.mu.Lock()
	shards := m.shards
	m.mu.Unlock()

	for e := 0; e < numEntries; e++ {
		var sum, work, cnt uint64
		for _, s := range shards {
			sum += atomic.LoadUint64(&s.sum[e])
			work += atomic.LoadUint64(&s.work[e])
			cnt += atomic.LoadUint64(&s.cnt[e])
		}
		dSum, dWork := sum-m.prevSum[e], work-m.prevWork[e]
		if dWork > 0 && cnt > m.prevCnt[e] {
			obs := float64(dSum) / float64(dWork)
			old := m.loadCost(e)
			atomic.StoreUint64(&m.cost[e], math.Float64bits(old+alpha*(obs-old)))
			m.prevSum[e], m.prevWork[e], m.prevCnt[e] = sum, work, cnt
		}
	}
	for r := 0; r < numKReps; r++ {
		var sum, work, cnt uint64
		for _, s := range shards {
			sum += atomic.LoadUint64(&s.kSum[r])
			work += atomic.LoadUint64(&s.kWork[r])
			cnt += atomic.LoadUint64(&s.kCnt[r])
		}
		dSum, dWork := sum-m.kPrevSum[r], work-m.kPrevWork[r]
		if dWork > 0 && cnt > m.kPrevCnt[r] {
			obs := float64(dSum) / float64(dWork)
			old := math.Float64frombits(atomic.LoadUint64(&m.kCost[r]))
			atomic.StoreUint64(&m.kCost[r], math.Float64bits(old+alpha*(obs-old)))
			m.kPrevSum[r], m.kPrevWork[r], m.kPrevCnt[r] = sum, work, cnt
		}
	}
	m.refits.Add(1)
}

// Refit forces a synchronous re-fit pass regardless of the sample cadence —
// a test and benchmark hook; production re-fits happen lazily from Record.
func (m *Model) Refit() {
	m.fitMu.Lock()
	m.fitMu.Unlock() //nolint:staticcheck // serialize behind an in-flight fit
	m.refit()
}

// ---------------------------------------------------------------------------
// Global registry: the process-wide active model, mirrored by core's
// EnablePlanner and read by the stats exposition.
// ---------------------------------------------------------------------------

var active atomic.Pointer[Model]

// Activate installs m as the process-wide planner model (nil, or a model in
// ModeOff, deactivates). Executors created afterwards attach to it.
func Activate(m *Model) {
	if m != nil && m.mode == ModeOff {
		m = nil
	}
	active.Store(m)
}

// Active returns the process-wide model, or nil when the planner is off.
func Active() *Model { return active.Load() }

// ActiveMode returns the process-wide planner mode ("off" when no model is
// active) — the value fesiaserve logs and /metrics exports.
func ActiveMode() Mode {
	if m := Active(); m != nil {
		return m.mode
	}
	return ModeOff
}

// ---------------------------------------------------------------------------
// Read side: the snapshot behind /metrics' per-cell cost table.
// ---------------------------------------------------------------------------

// CellCost is one fitted cost-table entry with at least one recorded sample.
type CellCost struct {
	Decision string  // decision kind (seg_seg, seg_dense, array_dense)
	Arm      string  // strategy arm name
	BucketA  int     // power-of-two bucket of the arm-0 work size
	BucketB  int     // power-of-two bucket of the arm-1 work size
	CostNs   float64 // fitted cost in nanoseconds per work unit
	Samples  uint64  // measurements folded into the cell
}

// KProbeCost is one k-way probe-plane entry.
type KProbeCost struct {
	Rep     string  // target representation of the compaction pass
	CostNs  float64 // fitted nanoseconds per membership probe
	Samples uint64
}

// Snapshot is a point-in-time view of the model: configuration, re-fit
// count, and every cell that has absorbed at least one measurement (the
// prior-only cells are elided — there are thousands and they carry no
// information beyond priorCost).
type Snapshot struct {
	Mode         string
	Backend      string // simd backend the costs were measured on
	ExploreEvery int
	SampleEvery  int
	Refits       uint64
	Cells        []CellCost
	KProbe       []KProbeCost
}

// Snapshot merges every shard's sample counts against the fitted cost table.
// Allocates only the sparse cell lists; safe to call concurrently with
// decisions and re-fits.
func (m *Model) Snapshot() Snapshot {
	snap := Snapshot{
		Mode:         m.mode.String(),
		Backend:      simd.Backend(),
		ExploreEvery: int(m.exploreEvery),
		SampleEvery:  int(m.sampleEvery),
		Refits:       m.refits.Load(),
	}
	m.mu.Lock()
	shards := m.shards
	m.mu.Unlock()
	for e := 0; e < numEntries; e++ {
		var cnt uint64
		for _, s := range shards {
			cnt += atomic.LoadUint64(&s.cnt[e])
		}
		if cnt == 0 {
			continue
		}
		cell := e / 2
		d := Decision(cell / (numBuckets * numBuckets))
		snap.Cells = append(snap.Cells, CellCost{
			Decision: d.String(),
			Arm:      ArmName(d, e&1),
			BucketA:  cell / numBuckets % numBuckets,
			BucketB:  cell % numBuckets,
			CostNs:   m.loadCost(e),
			Samples:  cnt,
		})
	}
	for r := 0; r < numKReps; r++ {
		var cnt uint64
		for _, s := range shards {
			cnt += atomic.LoadUint64(&s.kCnt[r])
		}
		if cnt == 0 {
			continue
		}
		snap.KProbe = append(snap.KProbe, KProbeCost{
			Rep:     kRepNames[r],
			CostNs:  math.Float64frombits(atomic.LoadUint64(&m.kCost[r])),
			Samples: cnt,
		})
	}
	return snap
}
