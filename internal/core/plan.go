package core

import (
	"time"

	"fesia/internal/planner"
	"fesia/internal/stats"
)

// Adaptive-planner wiring. The dispatch seams (merge-vs-hash, the
// cross-representation probe sides, the k-way seed pick) consult a
// planner.Handle when the executor carries one, and fall back to the static
// size heuristics when it does not — with the planner off (the default) every
// seam costs exactly one nil check, like the stats layer. Handles follow the
// stats ownership model: one per executor for the sequential paths, one per
// parallel worker slot, each a single writer into its private sample shard.

// EnablePlanner installs m as the process-wide adaptive strategy planner.
// Call once at startup, before building executors; executors created
// afterwards (including the pooled defaults behind the package-level
// wrappers) attach automatically. Passing nil, or a model built with
// ModeOff, deactivates the planner for future executors but does not detach
// live ones — use (*Executor).DisablePlanner for that.
func EnablePlanner(m *planner.Model) { planner.Activate(m) }

// PlannerModel returns the process-wide planner model, or nil when the
// planner is off.
func PlannerModel() *planner.Model { return planner.Active() }

// EnablePlanner attaches the executor (and its existing parallel worker
// slots) to a planner model. Each slot gets its own single-writer handle, so
// the parallel paths decide and record without contention. A second call is
// a no-op; an executor consults at most one model for its whole life (until
// DisablePlanner).
func (e *Executor) EnablePlanner(m *planner.Model) {
	if m == nil || m.Mode() == planner.ModeOff || e.plan != nil {
		return
	}
	e.planModel = m
	e.plan = m.NewHandle()
	for i := range e.workers {
		e.workers[i].plan = m.NewHandle()
	}
}

// DisablePlanner detaches the executor from its planner model: every
// dispatch seam reverts to the static heuristics.
func (e *Executor) DisablePlanner() {
	e.plan = nil
	e.planModel = nil
	for i := range e.workers {
		e.workers[i].plan = nil
	}
}

// maybeAttachPlanner wires a fresh executor to the process-wide model when
// one is active — the auto-attachment path of NewExecutor and the pooled
// default executors, mirroring maybeAttachStats.
func (e *Executor) maybeAttachPlanner() {
	if e.plan == nil {
		if m := planner.Active(); m != nil {
			e.EnablePlanner(m)
		}
	}
}

// planArmCounters maps (decision kind, chosen arm) to its stats counter.
var planArmCounters = [planner.NumDecisions][2]stats.Counter{
	planner.DecSegSeg:     {stats.CtrPlanSegSegMerge, stats.CtrPlanSegSegHash},
	planner.DecSegDense:   {stats.CtrPlanSegDenseFromDense, stats.CtrPlanSegDenseFromSeg},
	planner.DecArrayDense: {stats.CtrPlanArrayDenseFromArray, stats.CtrPlanArrayDenseFromDense},
}

// notePlanDecision records one resolved planner decision into the stats
// shard: the per-arm decision counter, the exploration tally, and the
// static-disagreement tally (override = the planner picked the arm the
// static heuristic would not have).
func notePlanDecision(st *stats.Shard, d planner.Decision, ch planner.Choice, override bool) {
	if st == nil {
		return
	}
	st.Inc(planArmCounters[d][ch.Arm&1])
	if ch.Explored {
		st.Inc(stats.CtrPlanExplored)
	}
	if override {
		st.Inc(stats.CtrPlanOverrides)
	}
}

// planSegSeg resolves the seg×seg merge-vs-hash dispatch: through the
// planner when h is non-nil (arm 0 = merge, work = the larger set; arm 1 =
// hash, work = the smaller set), by the static rule (useHash) otherwise.
// The returned Choice is the planner's bookkeeping token — when it asks for
// measurement, time the chosen strategy and hand it back via measured.
func planSegSeg(h *planner.Handle, st *stats.Shard, a, b *Set) (planner.Choice, bool) {
	if h == nil {
		return planner.Choice{}, useHash(a, b)
	}
	small, large := a.n, b.n
	if small > large {
		small, large = large, small
	}
	ch := h.Decide(planner.DecSegSeg, large, small)
	hash := ch.Arm == 1
	notePlanDecision(st, planner.DecSegSeg, ch, hash != useHash(a, b))
	return ch, hash
}

// planStart returns the timing anchor for a measured choice; the zero time
// (and no clock read) otherwise.
func planStart(ch planner.Choice) time.Time {
	if ch.Measure() {
		return time.Now()
	}
	return time.Time{}
}

// planFeedback is one measured choice whose record waits for the query that
// made it: a query cancelled after the choice's pass completed feeds the
// model nothing.
type planFeedback struct {
	ch planner.Choice
	el time.Duration
}

// measured times a finished pass for a measured choice; the zero feedback
// (and no clock read) otherwise.
func measured(ch planner.Choice, start time.Time) planFeedback {
	if ch.Measure() {
		return planFeedback{ch, time.Since(start)}
	}
	return planFeedback{}
}

// record feeds the held latency back into the handle; no-op for
// unmeasured choices.
func (f planFeedback) record(h *planner.Handle) {
	if f.ch.Measure() {
		h.Record(f.ch, f.el)
	}
}
