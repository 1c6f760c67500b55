// Package trace is the per-query tracing layer of the serving tier: the
// forensic complement to the stats package's aggregates. Histograms answer
// "how slow is the tier?"; a trace answers "why was *this* query slow?" by
// attributing a single query's latency to admission wait, the scatter
// fan-out, each shard's part, the strategy the engine picked there, and the
// kernel-level work the strategy dispatched.
//
// The design extends the single-writer slot discipline end to end. While a
// query executes, its records are staged with plain writes into fixed-size
// Cells owned exclusively by its admission slot — row 0 for tier-level
// records, row 1+k for document shard k, every row written only by the slot
// owner, which runs each shard part itself before it commits. At commit the
// owner decides retention — head sampling (one in SampleN per slot), tail
// capture (latency at or above Slow), or a forced capture — and only
// retained queries pay for publication: records are copied into per-(row ×
// slot) ring buffers as atomic words (readers merge the rings lazily and
// discard records lapped mid-read), slow and forced queries additionally
// land in a bounded slow-query log, and everything else costs nothing
// beyond the staging writes.
//
// With no Tracer installed the serving tier and engine pay exactly one
// predictable nil-check branch per seam, and the warm paths stay
// allocation-free either way (enforced by AllocsPerRun tests and the
// benchcheck overhead gate).
package trace

import (
	"sync/atomic"
	"time"
)

// Kind classifies one trace record.
type Kind uint8

const (
	// KindQuery is the root span: the whole query from arrival (before any
	// admission wait) to reply. V1 = query item count, V2 = result count.
	KindQuery Kind = iota
	// KindQueue is the admission span: time spent waiting for a slot.
	KindQueue
	// KindScatter covers the query's run over every document shard.
	KindScatter
	// KindShard is the query's part on one shard. V1 = the part's count
	// result.
	KindShard
	// KindStrategy is one strategy execution inside the engine (Arm names
	// which). V1, V2 = the input set sizes (V1 = set count, V2 = result count
	// for ArmKWay and ArmKWayProbe).
	KindStrategy
	// KindKernel is a kernel-level dispatch event. Merge: V1 = segment pairs
	// run, V2 = segments scanned. Hash: V1 = elements probed, V2 = build side
	// size.
	KindKernel
	numKinds
)

var kindNames = [numKinds]string{
	"query", "queue", "scatter", "shard", "strategy", "kernel",
}

// String returns the kind's stable external name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Strategy arms recorded on KindStrategy spans and KindKernel events.
const (
	ArmMerge     = 0 // two-step merge (segment-pair staging + kernels)
	ArmHash      = 1 // per-element hash probe
	ArmKWay      = 2 // k-way bitmap chain (3+ sets)
	ArmCross     = 3 // cross-representation pair route
	ArmKWayProbe = 4 // k-way probe chain (3+ skewed or mixed sets)
	ArmNone      = 0xFF
)

// ArmName returns the stable external name of a strategy arm ("" for
// ArmNone — records without one).
func ArmName(a uint8) string {
	switch a {
	case ArmMerge:
		return "merge"
	case ArmHash:
		return "hash"
	case ArmKWay:
		return "kway"
	case ArmCross:
		return "cross"
	case ArmKWayProbe:
		return "kway-probe"
	}
	return ""
}

// Record flag bits.
const (
	// FlagError marks a span that finished with an error (cancellation,
	// deadline, shard fault).
	FlagError = 1 << 1
	// FlagTruncated marks a root span whose query staged more records than a
	// cell holds; the overflow was dropped.
	FlagTruncated = 1 << 2
)

// Rec is one staged trace record. Staging writes are plain stores (the cell
// is single-writer); the ring stores records packed to six atomic words —
// id, kind|arm|shard|flags, start, dur, v1, v2.
type Rec struct {
	Kind  Kind
	Arm   uint8
	Flags uint8
	Start uint64 // offset from the query's arrival, nanoseconds
	Dur   uint64 // span duration, nanoseconds; 0 for events
	V1    uint64 // kind-specific payload (see the Kind constants)
	V2    uint64
}

// MaxSpans bounds the records one (row × slot) cell stages per query. A pair
// query writes 3 tier records and at most 4 per shard row; overflow sets the
// cell's truncation marker and drops the extras rather than growing.
const MaxSpans = 8

// Cell is one (row × slot) staging area: a fixed record array written with
// plain stores by the slot owner, the one goroutine executing there. The
// serving tier resets the cell at the start of every query (Reset), the
// engine and tier append records (Event, Span), and the slot owner reads it
// back at commit.
type Cell struct {
	base  time.Time
	n     int
	trunc bool
	recs  [MaxSpans]Rec
}

// Reset arms the cell for a new query arriving at base. Must be called by
// the goroutine owning the cell for this query before any Event/Span.
func (c *Cell) Reset(base time.Time) {
	c.base = base
	c.n = 0
	c.trunc = false
}

// Base returns the arrival time the cell was last armed with. Shard parts
// use it to arm their shard cells off the slot's tier cell without re-reading
// the clock.
func (c *Cell) Base() time.Time { return c.base }

// Event appends a zero-duration record without reading the clock — the
// no-cost form for kernel dispatch marks.
func (c *Cell) Event(kind Kind, arm uint8, flags uint8, v1, v2 uint64) {
	if c.n >= MaxSpans {
		c.trunc = true
		return
	}
	c.recs[c.n] = Rec{Kind: kind, Arm: arm, Flags: flags, V1: v1, V2: v2}
	c.n++
}

// Span appends a timed record: start is an absolute time at or after the
// query's arrival, d its duration.
func (c *Cell) Span(kind Kind, arm uint8, flags uint8, start time.Time, d time.Duration, v1, v2 uint64) {
	if c.n >= MaxSpans {
		c.trunc = true
		return
	}
	off := start.Sub(c.base)
	if off < 0 {
		off = 0
	}
	if d < 0 {
		d = 0
	}
	c.recs[c.n] = Rec{Kind: kind, Arm: arm, Flags: flags,
		Start: uint64(off), Dur: uint64(d), V1: v1, V2: v2}
	c.n++
}

// Truncated reports whether the cell overflowed since its last Reset.
func (c *Cell) Truncated() bool { return c.trunc }

// Reason says why a query's trace was retained.
type Reason uint8

const (
	// NotRetained: the query fell outside every retention rule; its staged
	// records were simply abandoned.
	NotRetained Reason = iota
	// ReasonSampled: head sampling picked it (one in SampleN per slot).
	ReasonSampled
	// ReasonSlow: tail capture — latency at or above the Slow threshold.
	ReasonSlow
	// ReasonForced: the caller forced capture (X-Fesia-Trace: 1).
	ReasonForced
)

var reasonNames = [...]string{"", "sampled", "slow", "forced"}

// String returns the reason's stable external name ("" for NotRetained).
func (r Reason) String() string {
	if int(r) < len(reasonNames) {
		return reasonNames[r]
	}
	return ""
}

// Verdict is Finish's retention decision for one query.
type Verdict struct {
	ID     uint64 // trace ID; 0 when not retained
	Reason Reason
}

// Retained reports whether the query's records were published.
func (v Verdict) Retained() bool { return v.Reason != NotRetained }

// Config shapes a Tracer.
type Config struct {
	// Shards is the document shard count; Slots the admission slot count.
	Shards int
	Slots  int
	// SampleN is the head-sampling period: one query in SampleN per slot is
	// retained. <= 0 disables head sampling (tail capture still applies).
	SampleN int
	// Slow is the tail-capture threshold: every query at or above it is
	// retained in full and logged. <= 0 disables tail capture.
	Slow time.Duration
	// RingRecs is each (row × slot) ring's capacity in records.
	// Default: 64.
	RingRecs int
	// SlowCap bounds the slow-query log. Default: 32 entries.
	SlowCap int
}

// slotState is one admission slot's private commit bookkeeping, padded so
// neighbouring slots' counters never share a cache line.
type slotState struct {
	seq uint64 // queries finished on this slot (head-sampling counter)
	_   [7]uint64
}

// Tracer owns the staging cells, rings and slow log for one serving tier.
// Construct with New; the tier wires cells to executors at build time.
type Tracer struct {
	shards  int
	slots   int
	rows    int // 1 + shards: row 0 is the tier row
	sampleN uint64
	slow    time.Duration

	cells []Cell
	rings []ring
	seqs  []slotState
	idGen atomic.Uint64
	log   slowLog
}

// New returns a Tracer for a tier with the given geometry. All memory — the
// cells, every ring, the slow log's record storage — is allocated here;
// nothing on the per-query path allocates.
func New(cfg Config) *Tracer {
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if cfg.Slots < 1 {
		cfg.Slots = 1
	}
	if cfg.RingRecs <= 0 {
		cfg.RingRecs = 64
	}
	if cfg.SlowCap <= 0 {
		cfg.SlowCap = 32
	}
	t := &Tracer{
		shards: cfg.Shards,
		slots:  cfg.Slots,
		rows:   1 + cfg.Shards,
		slow:   cfg.Slow,
	}
	if cfg.SampleN > 0 {
		t.sampleN = uint64(cfg.SampleN)
	}
	t.cells = make([]Cell, t.rows*t.slots)
	t.rings = make([]ring, t.rows*t.slots)
	for i := range t.rings {
		t.rings[i].init(cfg.RingRecs)
	}
	t.seqs = make([]slotState, t.slots)
	t.log.init(cfg.SlowCap, t.rows*MaxSpans)
	return t
}

// SampleN returns the head-sampling period (0 = disabled).
func (t *Tracer) SampleN() int { return int(t.sampleN) }

// SlowThreshold returns the tail-capture latency threshold (0 = disabled).
func (t *Tracer) SlowThreshold() time.Duration { return t.slow }

func (t *Tracer) cell(row, slot int) *Cell { return &t.cells[row*t.slots+slot] }
func (t *Tracer) ringAt(row, slot int) *ring {
	return &t.rings[row*t.slots+slot]
}

// TierCell returns the tier-level staging cell of one admission slot.
func (t *Tracer) TierCell(slot int) *Cell { return t.cell(0, slot) }

// ShardCell returns the staging cell of (document shard, admission slot) —
// the cell the slot's executor writes while it runs that shard's part.
func (t *Tracer) ShardCell(shard, slot int) *Cell { return t.cell(1+shard, slot) }

// Begin arms the slot's tier row for a query arriving at base. Shard rows
// are armed as each shard part starts.
func (t *Tracer) Begin(slot int, base time.Time) {
	t.cell(0, slot).Reset(base)
}

// Finish commits the query that just ran on slot: it decides retention
// (forced > slow > sampled), and for retained queries stamps a fresh trace
// ID, publishes every staged row into its (row × slot) ring, and appends
// slow or forced queries to the slow log. Must be called by the slot owner
// after every shard part has run; allocation-free.
func (t *Tracer) Finish(slot int, d time.Duration, forced bool) Verdict {
	s := &t.seqs[slot]
	s.seq++
	var v Verdict
	switch {
	case forced:
		v.Reason = ReasonForced
	case t.slow > 0 && d >= t.slow:
		v.Reason = ReasonSlow
	case t.sampleN > 0 && s.seq%t.sampleN == 0:
		v.Reason = ReasonSampled
	default:
		return v
	}
	v.ID = t.idGen.Add(1)
	for row := 0; row < t.rows; row++ {
		c := t.cell(row, slot)
		if c.n == 0 {
			continue
		}
		t.ringAt(row, slot).publish(v.ID, row-1, c.recs[:c.n])
	}
	if v.Reason != ReasonSampled {
		t.log.push(t, slot, v, d)
	}
	return v
}

// Span is one trace record rendered for JSON output (admin endpoints and
// forced-capture responses).
type Span struct {
	Kind    string `json:"kind"`
	Arm     string `json:"arm,omitempty"`
	Shard   int    `json:"shard"` // -1 for tier-level records
	StartNs uint64 `json:"start_ns"`
	DurNs   uint64 `json:"dur_ns"`
	V1      uint64 `json:"v1"`
	V2      uint64 `json:"v2"`
	Error   bool   `json:"error,omitempty"`
}

func renderSpan(r Rec, shard int) Span {
	s := Span{
		Kind:    r.Kind.String(),
		Shard:   shard,
		StartNs: r.Start,
		DurNs:   r.Dur,
		V1:      r.V1,
		V2:      r.V2,
		Error:   r.Flags&FlagError != 0,
	}
	if r.Arm != ArmNone {
		s.Arm = ArmName(r.Arm)
	}
	return s
}

// Captured is a forced capture's rendered breakdown, returned in the HTTP
// response of an X-Fesia-Trace request.
type Captured struct {
	TraceID   string `json:"trace_id"`
	Reason    string `json:"reason"`
	Truncated bool   `json:"truncated,omitempty"`
	Spans     []Span `json:"spans"`
}

// Capture renders the slot's staged records for the query Finish just
// committed. Must be called while the slot is still owned (before release);
// allocates, so it is reserved for the forced-capture path.
func (t *Tracer) Capture(slot int, v Verdict) *Captured {
	out := &Captured{
		TraceID: formatID(v.ID),
		Reason:  v.Reason.String(),
	}
	for row := 0; row < t.rows; row++ {
		c := t.cell(row, slot)
		if c.trunc {
			out.Truncated = true
		}
		for i := 0; i < c.n; i++ {
			out.Spans = append(out.Spans, renderSpan(c.recs[i], row-1))
		}
	}
	sortSpans(out.Spans)
	return out
}

// sortSpans orders spans by start offset, stable, so a breakdown reads in
// execution order (insertion sort — span lists are tiny).
func sortSpans(s []Span) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j].StartNs < s[j-1].StartNs; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
