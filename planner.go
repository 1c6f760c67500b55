package fesia

// The seg×seg size rule (IntersectCount's) decides every pair's strategy;
// there is no strategy planner to configure. The names below remain so that
// callers written against the planner still compile. They select nothing.

// PlannerMode named a strategy planner mode.
//
// Deprecated: the size rule decides every pair; no mode changes a decision.
type PlannerMode uint8

// Planner modes.
//
// Deprecated: the size rule decides every pair; no mode changes a decision.
const (
	PlannerOff PlannerMode = iota
	PlannerPrior
	PlannerLearned
)

// PlannerOption configured EnablePlanner.
//
// Deprecated: EnablePlanner does nothing.
type PlannerOption struct{}

// WithPlanner returns an option that selects nothing.
//
// Deprecated: the size rule decides every pair; no mode changes a decision.
func WithPlanner(PlannerMode) PlannerOption { return PlannerOption{} }

// EnablePlanner does nothing.
//
// Deprecated: the size rule decides every pair; there is no planner to enable.
func EnablePlanner(...PlannerOption) {}

// ActivePlannerMode returns "off".
//
// Deprecated: the size rule decides every pair; there is no planner mode.
func ActivePlannerMode() string { return "off" }
