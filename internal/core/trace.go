package core

import "fesia/internal/trace"

// Per-query tracing wiring. The serving tier owns the trace topology — one
// staging cell per (document shard × admission slot) — and points the
// slot's executor at the part's cell before each shard part runs. The
// executor's sequential pair and k-way query paths then append strategy
// spans and kernel dispatch marks to the cell with plain single-writer
// stores, whichever entry point — plain or ctx — ran the query. With no cell
// attached (the default) every seam costs exactly one nil check, mirroring
// the stats layer.

// SetTraceCell attaches the executor's sequential query paths to a tracing
// staging cell; nil detaches. The caller owns the cell's reset cadence (the
// serving tier resets it at the start of every query before the executor
// runs).
func (e *Executor) SetTraceCell(c *trace.Cell) { e.tr = c }
