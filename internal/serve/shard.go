package serve

import (
	"context"
	"fmt"

	"fesia/internal/core"
)

// Sharding. The corpus — posting list per item, document IDs as elements —
// is partitioned by *document*: shard k of N owns every document with
// id % N == k, holding its own FESIA set per item built over just those
// documents. Every shard answers the full conjunctive query over its
// document subset independently and the counts sum. (Partitioning by item
// would instead split one query's sets across shards and force cross-shard
// intersection.) Each shard's sets are built with core.NewSetBatch, so a
// shard is one contiguous arena.
//
// Executors are NOT part of a shard: they carry only query scratch, so the
// tier owns one per admission slot, surviving hot swaps. An admitted query
// holds slot s exclusively and runs every shard part on its own goroutine,
// on executor s — single-writer discipline by construction, extending the
// stats-shard ownership model to the serving layer with zero locks on the
// query path.

// shardSets is one shard's immutable data: the per-item FESIA sets over the
// shard's document subset. Index = item id; every item has a set (possibly
// empty), so the query path is a bounds check away from its set.
type shardSets struct {
	sets []*core.Set
}

// epoch is one generation of the corpus: the sharded sets plus the drain
// group that lets the swap path retire it only after in-flight queries
// finish. Executors live on the tier, not here — an epoch is pure data.
type epoch struct {
	shards []*shardSets
	drain  *core.DrainGroup
	gen    uint64
}

// buildEpoch partitions lists (posting list per item, sorted doc IDs) into
// nshards document shards and builds every shard's sets. Any build error
// aborts the whole epoch — the swap path's all-or-nothing contract.
func buildEpoch(lists [][]uint32, nshards int, cfg core.Config, gen uint64) (*epoch, error) {
	e := &epoch{
		shards: make([]*shardSets, nshards),
		drain:  core.NewDrainGroup(),
		gen:    gen,
	}
	// Partition every posting list once, appending each doc to its shard's
	// copy. Sorted inputs stay sorted per shard.
	parts := make([][][]uint32, nshards)
	for k := range parts {
		parts[k] = make([][]uint32, len(lists))
	}
	for item, docs := range lists {
		for _, d := range docs {
			k := int(d) % nshards
			parts[k][item] = append(parts[k][item], d)
		}
	}
	for k := range parts {
		sets, err := core.NewSetBatch(parts[k], cfg)
		if err != nil {
			return nil, fmt.Errorf("serve: building shard %d/%d: %w", k, nshards, err)
		}
		e.shards[k] = &shardSets{sets: sets}
	}
	return e, nil
}

// queryShard answers one conjunctive query over a single shard's documents,
// on the executor pinned to the query's slot. setsBuf is that slot's
// reusable set-pointer scratch. CountKCtx picks the strategy from the list
// lengths (the adaptive pair path for two keywords, the bitmap or probe
// chain for more) and propagates the deadline into its checkpoints.
func queryShard(ctx context.Context, sd *shardSets, ex *core.Executor, setsBuf *[]*core.Set, items []uint32) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	sets := (*setsBuf)[:0]
	for _, it := range items {
		if int(it) >= len(sd.sets) {
			return 0, nil // unknown item: conjunctive count is zero
		}
		sets = append(sets, sd.sets[it])
	}
	*setsBuf = sets
	if len(sets) == 0 {
		return 0, nil
	}
	return ex.CountKCtx(ctx, sets...)
}
