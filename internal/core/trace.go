package core

import (
	"fesia/internal/planner"
	"fesia/internal/trace"
)

// Per-query tracing wiring. The serving tier owns the trace topology — one
// staging cell per (document shard × admission slot) — and points the
// slot's executor at the part's cell before each shard part runs. The
// executor's context-aware query paths (the ones the tier's shard parts
// call) then append strategy spans, planner-decision events and kernel
// dispatch marks to the cell with plain single-writer stores. With no cell
// attached (the default) every seam costs exactly one nil check, mirroring
// the stats and planner layers.

// SetTraceCell attaches the executor's sequential ctx paths to a tracing
// staging cell; nil detaches. The caller owns the cell's reset cadence (the
// serving tier resets it at the start of every query before the executor
// runs).
func (e *Executor) SetTraceCell(c *trace.Cell) { e.tr = c }

// tracePlanSegSeg records the seg×seg planner decision and its predicted
// per-arm costs — the signal that exposes mispriced cost cells when compared
// against the strategy span's measured latency.
func tracePlanSegSeg(c *trace.Cell, h *planner.Handle, ch planner.Choice, a, b *Set) {
	if c == nil || h == nil {
		return
	}
	small, large := a.n, b.n
	if small > large {
		small, large = large, small
	}
	e0, e1 := h.EstimateNanos(planner.DecSegSeg, large, small)
	c.Event(trace.KindPlan, ch.Arm,
		trace.PlanFlags(int(planner.DecSegSeg), ch.Explored), uint64(e0), uint64(e1))
}
