// Package serve is the serving tier over the FESIA query engine: the
// robustness layer that turns per-query speed (PAPER.md Section VII-F) into
// served throughput that survives overload and reload.
//
// A Tier holds one corpus, one FESIA set per item in one arena, and answers
// a conjunctive query on the goroutine that holds the query's admission
// slot, with deadline propagation into the cancellable query paths. Each
// slot owns one executor and stats shard (extending the engine's
// single-writer discipline). Around that core sit four robustness
// mechanisms:
//
//   - admission control: a slot semaphore (a free-slot bitmap) with a
//     bounded wait queue, rejecting with a typed *OverloadError once depth
//     or wait budget is exceeded (admission.go);
//   - load shedding: when the p99 of admitted queries breaches the target,
//     a growing fraction of incoming traffic is dropped before admission,
//     recovering when latency does (shed.go);
//   - hot snapshot swap: an atomic pointer flip to a fresh corpus epoch —
//     built from lists, or the sets a snapshot decodes to, served as they
//     are — the old one retired only after in-flight queries drain
//     (core.DrainGroup); a failed load leaves the old epoch serving;
//   - graceful shutdown: stop admitting, drain in-flight queries, leave the
//     stats sink consistent for a final flush.
package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"fesia/internal/core"
	"fesia/internal/stats"
	"fesia/internal/trace"
)

// Config shapes a Tier. The zero value of every field selects a sensible
// default (see each field); the zero Config is usable. Concurrency comes
// from concurrent queries, one per admission slot, each on its own
// goroutine.
type Config struct {
	// MaxConcurrent bounds queries executing at once (the admission slots,
	// one executor each). Default: 2 × GOMAXPROCS.
	MaxConcurrent int
	// MaxQueue bounds requests waiting for a slot; the MaxQueue+1st waiter
	// is rejected immediately. Default: 2 × MaxConcurrent.
	MaxQueue int
	// MaxQueueWait bounds how long one request may wait for a slot.
	// Default: 50ms.
	MaxQueueWait time.Duration
	// ShedTargetP99 is the latency objective steering the load shedder: the
	// windowed p99 of admitted queries above it grows the drop fraction.
	// Default: 25ms. Negative disables shedding.
	ShedTargetP99 time.Duration
	// ShedInterval is the shedder's control-loop period. Default: 100ms.
	ShedInterval time.Duration
	// ShedMinSamples is the fewest admitted queries per window that still
	// steer the shedder. Default: 32.
	ShedMinSamples int
	// MaxShedFraction caps the drop probability so some traffic always
	// probes the true latency. Default: 0.95.
	MaxShedFraction float64
	// Build is the FESIA build configuration for a corpus given as lists
	// (NewTier, Swap). A snapshot swap serves its sets with the
	// configuration the snapshot records. Zero value: core.DefaultConfig().
	Build core.Config
	// TraceSample enables per-query tracing with head sampling: one query
	// in TraceSample per admission slot is retained into the trace rings.
	// 0 disables head sampling. Tracing as a whole is active when either
	// TraceSample or SlowQuery is set; when both are zero (the default) the
	// tier carries no tracer and every trace seam costs one nil check.
	TraceSample int
	// SlowQuery is the tail-capture threshold: every query whose
	// end-to-end latency (including admission wait) reaches it is retained
	// in full and appended to the bounded slow-query log. 0 disables tail
	// capture.
	SlowQuery time.Duration
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 2 * runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 2 * c.MaxConcurrent
	}
	if c.MaxQueueWait <= 0 {
		c.MaxQueueWait = 50 * time.Millisecond
	}
	if c.ShedTargetP99 == 0 {
		c.ShedTargetP99 = 25 * time.Millisecond
	}
	if c.ShedInterval <= 0 {
		c.ShedInterval = 100 * time.Millisecond
	}
	if c.ShedMinSamples <= 0 {
		c.ShedMinSamples = 32
	}
	if c.MaxShedFraction <= 0 || c.MaxShedFraction >= 1 {
		c.MaxShedFraction = 0.95
	}
	return c
}

// Tier is the serving layer. Construct with NewTier; safe for concurrent
// use.
type Tier struct {
	cfg  Config
	lim  *limiter
	shed *shedder
	sink *stats.Sink

	// current corpus epoch, hot-swappable; see Swap.
	epoch atomic.Pointer[epoch]

	// exs[slot] is the executor pinned to that admission slot; it runs the
	// slot's query. setsBufs[slot] is its set-pointer scratch. Both survive
	// swaps — they hold query scratch, never corpus data.
	exs      []*core.Executor
	setsBufs [][]*core.Set

	// slotStats[slot] is the single-writer stats shard of the one query
	// holding that admission slot.
	slotStats []*stats.Shard

	// tracer is the per-query tracing layer; nil unless Config enabled it.
	// exemplars links LatServe buckets to retained trace IDs.
	tracer    *trace.Tracer
	exemplars *stats.ExemplarStore

	// partDelay is a test hook run inside a query's part, on the slot the
	// query holds, after the part's span opens — how the slow-query
	// forensics tests fabricate a straggler and the admission tests watch
	// slot ownership.
	partDelay func(slot int)

	swapMu sync.Mutex // serializes publish; gen is owned by it
	gen    uint64

	closed atomic.Bool
	stop   chan struct{} // closes the shed control loop
	tickWG sync.WaitGroup
}

// NewTier builds a tier over lists, the corpus as one sorted posting list of
// document IDs per item (index = item id; empty lists are fine). The global
// stats sink is used when enabled (fesia.EnableStats), so the tier's
// counters ride the process /metrics; otherwise a private sink still drives
// the load shedder.
func NewTier(lists [][]uint32, cfg Config) (*Tier, error) {
	cfg = cfg.withDefaults()
	t := &Tier{cfg: cfg, stop: make(chan struct{})}
	t.sink = core.StatsSink()
	if t.sink == nil {
		t.sink = stats.New()
	}
	sets, err := core.NewSetBatch(lists, cfg.Build)
	if err != nil {
		return nil, err
	}
	t.epoch.Store(newEpoch(sets, 0))
	t.lim = newLimiter(cfg.MaxConcurrent, cfg.MaxQueue, cfg.MaxQueueWait)
	t.shed = newShedder(cfg.ShedTargetP99, cfg.MaxShedFraction, cfg.ShedMinSamples)
	t.exs = make([]*core.Executor, cfg.MaxConcurrent)
	t.setsBufs = make([][]*core.Set, cfg.MaxConcurrent)
	t.slotStats = make([]*stats.Shard, cfg.MaxConcurrent)
	for s := range t.exs {
		t.exs[s] = core.NewExecutor()
		t.exs[s].EnableStats(t.sink)
		t.slotStats[s] = t.sink.NewShard()
	}
	t.sink.SetServeInFlight(t.lim.inUse)
	if cfg.TraceSample > 0 || cfg.SlowQuery > 0 {
		t.tracer = trace.New(trace.Config{
			Slots:   cfg.MaxConcurrent,
			SampleN: cfg.TraceSample,
			Slow:    cfg.SlowQuery,
		})
		t.exemplars = stats.NewExemplarStore()
		t.sink.SetServeExemplars(t.exemplars)
	}
	if cfg.ShedTargetP99 > 0 {
		t.tickWG.Add(1)
		go t.shedLoop()
	}
	return t, nil
}

// shedLoop is the shedder's control loop: every ShedInterval it feeds the
// cumulative LatServe histogram to the shedder, which differences it into
// the last window and steers the drop fraction.
func (t *Tier) shedLoop() {
	defer t.tickWG.Done()
	ticker := time.NewTicker(t.cfg.ShedInterval)
	defer ticker.Stop()
	for {
		select {
		case <-t.stop:
			return
		case <-ticker.C:
			snap := t.sink.Snapshot()
			t.shed.tick(snap.Latency(stats.LatServe))
		}
	}
}

// acquireEpoch takes a drain reference on the current epoch, with the
// pointer-recheck loop that makes the swap's flip-then-retire safe (see
// core.DrainGroup).
func (t *Tier) acquireEpoch() *epoch {
	for {
		e := t.epoch.Load()
		e.drain.Acquire()
		if t.epoch.Load() == e {
			return e
		}
		e.drain.Release()
	}
}

// QueryCount answers one conjunctive query — the number of documents
// containing every item — through the full serving path: shed check,
// admission, the query, deadline propagation. It returns *OverloadError
// (matching ErrOverload) on shed or admission rejection, ErrShuttingDown
// after Shutdown, and the context error when the deadline expires first.
func (t *Tier) QueryCount(ctx context.Context, items ...uint32) (int, error) {
	n, _, err := t.queryCount(ctx, false, items)
	return n, err
}

// QueryCountTraced is QueryCount with forced trace capture: the query's
// trace is retained regardless of sampling, and its rendered span breakdown
// is returned alongside the count (the X-Fesia-Trace: 1 path). The breakdown
// is nil when the tier has no tracer, or when the query was rejected before
// admission (there is nothing to attribute yet).
func (t *Tier) QueryCountTraced(ctx context.Context, items ...uint32) (int, *trace.Captured, error) {
	return t.queryCount(ctx, true, items)
}

// queryCount reads the clock once itself when admission does not wait: at
// arrival, which is then also the start. The executor frame reads it twice,
// at its own start and end, and its end stamp is the query's end: it closes
// the LatServe observation and the trace's part, scatter and root spans
// (queryPart). Every read is monotonic only (core.Now), and tracing reads no
// clock of its own.
func (t *Tier) queryCount(ctx context.Context, forced bool, items []uint32) (int, *trace.Captured, error) {
	if t.closed.Load() {
		return 0, nil, ErrShuttingDown
	}
	if t.shed.shouldShed() {
		t.sink.Inc(stats.CtrServeShed)
		return 0, nil, errShed
	}
	arrival := core.Now()
	slot, waited, err := t.lim.acquire(ctx, t.sink)
	if err != nil {
		var oe *OverloadError
		if errors.As(err, &oe) {
			t.sink.Inc(stats.CtrServeRejected)
			switch oe.Reason {
			case ReasonQueueFull:
				t.sink.Inc(stats.CtrServeRejQueueFull)
			case ReasonQueueWait:
				t.sink.Inc(stats.CtrServeRejQueueWait)
			}
		}
		return 0, nil, err
	}
	defer t.lim.release(slot)
	st := t.slotStats[slot]
	st.Inc(stats.CtrServeAdmitted)
	start := arrival
	if waited {
		start = core.Now()
	}
	tr := t.tracer
	if tr != nil {
		tr.Begin(slot, arrival)
		tr.TierCell(slot).Span(trace.KindQueue, trace.ArmNone, 0,
			arrival, start.Sub(arrival), 0, 0)
	}
	n, end, err := t.queryPart(ctx, slot, start, items)
	el := end.Sub(start)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			st.Inc(stats.CtrServeDeadline)
		}
		// Failed queries still commit their trace — a deadline expiry is
		// exactly the slow query the tail capture exists for.
		capd := t.commitTrace(tr, st, slot, forced, trace.FlagError, len(items), 0, arrival, start, el)
		return 0, capd, err
	}
	// Only successful queries steer the shedder: a deadline expiry's
	// latency measures the deadline, not the service.
	st.Observe(stats.LatServe, el)
	capd := t.commitTrace(tr, st, slot, forced, 0, len(items), n, arrival, start, el)
	return n, capd, nil
}

// commitTrace closes the tier-level spans (scatter and root, off the clock
// reads the stats path already paid for), decides retention and (for forced
// captures) renders the breakdown. Called by the slot owner before release;
// no-op without a tracer, allocation-free unless forced.
func (t *Tier) commitTrace(tr *trace.Tracer, st *stats.Shard, slot int, forced bool, flags uint8, nitems, count int, arrival, start trace.Stamp, el time.Duration) *trace.Captured {
	if tr == nil {
		return nil
	}
	d := el + start.Sub(arrival)
	cell := tr.TierCell(slot)
	if cell.Truncated() {
		flags |= trace.FlagTruncated
	}
	cell.Span(trace.KindScatter, trace.ArmNone, flags&trace.FlagError,
		start, el, 1, 0)
	cell.Span(trace.KindQuery, trace.ArmNone, flags,
		arrival, d, uint64(nitems), uint64(count))
	v := tr.Finish(slot, d, forced)
	switch v.Reason {
	case trace.ReasonSampled:
		st.Inc(stats.CtrTraceSampled)
	case trace.ReasonSlow:
		st.Inc(stats.CtrTraceSlow)
	case trace.ReasonForced:
		st.Inc(stats.CtrTraceForced)
	default:
		return nil
	}
	t.exemplars.Put(v.ID, d)
	if forced {
		return tr.Capture(slot, v)
	}
	return nil
}

// queryPart runs the query against the current epoch's sets on the slot's
// executor, on the calling goroutine — the slot owner. A query is a few µs
// of work, far below the work at which handing it to a pool worker starts to
// pay (BenchmarkPoolHandoff; EXPERIMENTS.md, "Serving tier"). It runs from
// start to the end stamp it returns: the executor frame's (core's TakeEnd),
// or a clock read of its own when no frame timed the query (one set, an
// unknown item, a context already done, a cancelled frame). When tracing, it
// points the executor at the slot's shard cell before the query runs and
// appends the part's span after.
func (t *Tier) queryPart(ctx context.Context, slot int, start trace.Stamp, items []uint32) (int, trace.Stamp, error) {
	e := t.acquireEpoch()
	defer e.drain.Release()
	ex := t.exs[slot]
	var cell *trace.Cell
	if tr := t.tracer; tr != nil {
		cell = tr.ShardCell(0, slot)
		cell.Reset(tr.TierCell(slot).Base())
		ex.SetTraceCell(cell)
	}
	if d := t.partDelay; d != nil {
		d(slot)
	}
	n, err := e.countSets(ctx, ex, &t.setsBufs[slot], items)
	end, ok := ex.TakeEnd()
	if !ok {
		end = core.Now()
	}
	if cell != nil {
		var flags uint8
		if err != nil {
			flags = trace.FlagError
		}
		cell.Span(trace.KindShard, trace.ArmNone, flags, start, end.Sub(start), uint64(n), 0)
	}
	return n, end, err
}

// Swap atomically replaces the corpus with one built from lists (the same
// shape NewTier takes) with Config.Build. The fresh epoch is fully built
// before the pointer flips — any build error leaves the old corpus serving
// untouched — and the old epoch is retired only after every in-flight query
// on it has drained. Returns the new generation number. ctx bounds the
// drain wait: on expiry the swap is already published and the error reports
// the unfinished drain.
func (t *Tier) Swap(ctx context.Context, lists [][]uint32) (uint64, error) {
	if t.closed.Load() {
		return 0, ErrShuttingDown
	}
	sets, err := core.NewSetBatch(lists, t.cfg.Build)
	if err != nil {
		t.sink.Inc(stats.CtrServeSwapErrors)
		return 0, err
	}
	return t.publish(ctx, sets)
}

// SwapFromReader is Swap loading the corpus from a snapshot stream written
// by fesia.WriteCorpus / core.WriteCorpus: set i is item i's posting set.
// The sets the stream decodes to are served as they are, with the build
// configuration the snapshot records, so a swap costs one read. The stream
// is fully read, checksummed and validated before anything flips; a
// truncated or corrupted snapshot counts a swap error and leaves the old
// corpus serving — the all-or-nothing contract the chaos tests pin down.
func (t *Tier) SwapFromReader(ctx context.Context, r io.Reader) (uint64, error) {
	sets, err := core.ReadCorpus(r)
	if err != nil {
		t.sink.Inc(stats.CtrServeSwapErrors)
		return 0, fmt.Errorf("serve: loading corpus snapshot: %w", err)
	}
	return t.publish(ctx, sets)
}

// publish makes sets the next generation's corpus for Swap and
// SwapFromReader: the pointer flip, then the old epoch's drain, bounded by
// ctx as Swap describes.
func (t *Tier) publish(ctx context.Context, sets []*core.Set) (uint64, error) {
	t.swapMu.Lock()
	defer t.swapMu.Unlock()
	if t.closed.Load() {
		return 0, ErrShuttingDown
	}
	t.gen++
	gen := t.gen
	old := t.epoch.Swap(newEpoch(sets, gen))
	old.drain.Retire()
	select {
	case <-old.drain.Drained():
	case <-ctx.Done():
		return gen, fmt.Errorf("serve: swap to generation %d published, but the old epoch has not drained: %w", gen, ctx.Err())
	}
	t.sink.Inc(stats.CtrServeSwaps)
	return gen, nil
}

// SwapFromFile is SwapFromReader over a snapshot file.
func (t *Tier) SwapFromFile(ctx context.Context, path string) (uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		t.sink.Inc(stats.CtrServeSwapErrors)
		return 0, fmt.Errorf("serve: opening corpus snapshot: %w", err)
	}
	defer f.Close()
	return t.SwapFromReader(ctx, f)
}

// Shutdown gracefully stops the tier: new queries fail fast with
// ErrShuttingDown, the shed control loop stops, and Shutdown blocks until
// every in-flight query has finished (all admission slots reclaimed) or ctx
// expires. The stats sink is left consistent for a final flush by the
// caller. Idempotent; concurrent calls race the drain harmlessly.
func (t *Tier) Shutdown(ctx context.Context) error {
	if t.closed.CompareAndSwap(false, true) {
		close(t.stop)
	}
	t.tickWG.Wait()
	return t.lim.drain(ctx)
}

// Generation returns the current corpus generation (0 at construction,
// bumped by every successful Swap).
func (t *Tier) Generation() uint64 { return t.epoch.Load().gen }

// NumShards returns 1: the tier serves its corpus as one shard. It is kept
// for callers that report a shard count.
func (t *Tier) NumShards() int { return 1 }

// MaxConcurrent returns the admission slot count.
func (t *Tier) MaxConcurrent() int { return t.cfg.MaxConcurrent }

// ShedFraction returns the shedder's current drop probability — 0 in the
// healthy steady state.
func (t *Tier) ShedFraction() float64 { return t.shed.fraction() }

// Tracer returns the tier's tracing layer, or nil when tracing was not
// enabled in the Config. The HTTP layer mounts its Handler/SlowHandler as
// the /debug/traces and /debug/slow admin endpoints.
func (t *Tier) Tracer() *trace.Tracer { return t.tracer }

// Stats returns a merged snapshot of the sink the tier records into (the
// global sink when stats were enabled at construction).
func (t *Tier) Stats() stats.Snapshot { return t.sink.Snapshot() }
