package serve

import (
	"context"

	"fesia/internal/core"
)

// epoch is one generation of the corpus: one FESIA set per item (index =
// item id; every item has a set, possibly empty, so the query path is a
// bounds check away from its set) plus the drain group that lets the swap
// path retire it only after in-flight queries finish. The sets share one
// arena, from core.NewSetBatch or core.ReadCorpus.
//
// Executors are NOT part of an epoch: they carry only query scratch, so the
// tier owns one per admission slot, surviving hot swaps. An admitted query
// holds slot s exclusively and runs on its own goroutine, on executor s —
// single-writer discipline by construction, extending the stats-shard
// ownership model to the serving layer with zero locks on the query path.
type epoch struct {
	sets  []*core.Set
	drain *core.DrainGroup
	gen   uint64
}

func newEpoch(sets []*core.Set, gen uint64) *epoch {
	return &epoch{sets: sets, drain: core.NewDrainGroup(), gen: gen}
}

// countSets answers one conjunctive query over the epoch's sets, on the
// executor pinned to the query's slot. setsBuf is that slot's reusable
// set-pointer scratch. CountKCtx picks the strategy from the list lengths
// (the adaptive pair path for two keywords, the bitmap or probe chain for
// more) and propagates the deadline into its checkpoints.
func (e *epoch) countSets(ctx context.Context, ex *core.Executor, setsBuf *[]*core.Set, items []uint32) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	sets := (*setsBuf)[:0]
	for _, it := range items {
		if int(it) >= len(e.sets) {
			return 0, nil // unknown item: conjunctive count is zero
		}
		sets = append(sets, e.sets[it])
	}
	*setsBuf = sets
	if len(sets) == 0 {
		return 0, nil
	}
	return ex.CountKCtx(ctx, sets...)
}
