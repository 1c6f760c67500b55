package core

import (
	"math/rand"
	"testing"

	"fesia/internal/stats"
)

// TestCountManyParallelCutover checks the work-size cutover: a small batch
// must run serially (no pool hand-off), a large batch must reach the pool.
// Routing is observed through the pool's Do counter, and results must match
// the serial path either way.
func TestCountManyParallelCutover(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	cfg := DefaultConfig()
	q := MustNewSet(randSet(rng, 2000, 1<<20), cfg)

	small := make([]*Set, 16)
	for i := range small {
		small[i] = MustNewSet(randSet(rng, 2000, 1<<20), cfg)
	}
	// 16 candidates: work at most 16 * (2000+2000) elements, far below the
	// cutover.
	large := make([]*Set, 0, 300)
	for i := 0; i < 300; i++ {
		large = append(large, MustNewSet(randSet(rng, 4000, 1<<20), cfg))
	}
	// 300 candidates: ~300 * 2000 probes where the rule hashes them (the
	// AVX-512 rung), 300 * (2000+4000) elements where it merges, above it.

	k := stats.New()
	EnableStats(k)
	defer EnableStats(nil)
	e := NewExecutor()

	check := func(cands []*Set) {
		out := make([]int, len(cands))
		want := make([]int, len(cands))
		e.CountManyParallel(q, cands, out, 4)
		e.CountMany(q, cands, want)
		for i := range out {
			if out[i] != want[i] {
				t.Fatalf("candidate %d: parallel=%d serial=%d", i, out[i], want[i])
			}
		}
	}

	poolDo := func() uint64 {
		snap := k.Snapshot()
		return snap.Counter(stats.CtrPoolDo)
	}
	base := poolDo()
	check(small)
	if got := poolDo(); got != base {
		t.Errorf("small batch took the pool (Do %d -> %d), want serial cutover", base, got)
	}
	base = poolDo()
	check(large)
	if got := poolDo(); got == base {
		t.Error("large batch never reached the pool; cutover threshold too high")
	}
}
