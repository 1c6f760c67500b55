package fesia

import (
	"testing"

	"fesia/internal/core"
)

// TestPlannerShimsSelectNothing pins the deprecated planner names: after
// EnablePlanner(WithPlanner(PlannerLearned)) the mode still reads "off", and
// pairs on both sides of core.HashFloor and of the 1/4 size ratio take the
// same arms as before the call, counted by CtrQueriesMerge and
// CtrQueriesHash.
func TestPlannerShimsSelectNothing(t *testing.T) {
	EnableStats()
	f := core.HashFloor
	var pairs [][2]*Set
	for _, sh := range [][2]int{
		{f - 1, f - 1}, {f, f}, {f + 1, f + 1},
		{f - 1, 4 * (f - 1)}, {f - 1, 4*(f-1) + 1}, {f, 4 * f}, {f, 4*f + 1},
		{100, 400}, {100, 401}, {1000, 1000},
	} {
		a := make([]uint32, sh[0])
		for i := range a {
			a[i] = uint32(3 * i)
		}
		b := make([]uint32, sh[1])
		for i := range b {
			b[i] = uint32(5 * i)
		}
		pairs = append(pairs, [2]*Set{MustBuild(a), MustBuild(b)})
	}
	arms := func() (merge, hash uint64) {
		ex := NewExecutor()
		before := Stats()
		for _, p := range pairs {
			ex.IntersectCount(p[0], p[1])
		}
		after := Stats()
		return after.Counter(CtrQueriesMerge) - before.Counter(CtrQueriesMerge),
			after.Counter(CtrQueriesHash) - before.Counter(CtrQueriesHash)
	}
	merge, hash := arms()
	if merge == 0 || hash == 0 {
		t.Fatalf("the pairs take one arm only: %d merges, %d hashes", merge, hash)
	}
	EnablePlanner(WithPlanner(PlannerLearned))
	if got := ActivePlannerMode(); got != "off" {
		t.Fatalf("ActivePlannerMode() = %q after enabling learned mode, want \"off\"", got)
	}
	if m, h := arms(); m != merge || h != hash {
		t.Fatalf("after EnablePlanner: %d merges, %d hashes; without it %d, %d", m, h, merge, hash)
	}
}
