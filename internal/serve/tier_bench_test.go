package serve

import (
	"context"
	"math/rand"
	"testing"

	"fesia/internal/core"
	"fesia/internal/datasets"
	"fesia/internal/stats"
)

// tierBenchQueries is search-swap's corpus and query trace: 25,000 docs over
// a 62,500-item universe (mean document length 40, seed 7), 400 distinct
// queries each of 2, 3 and 4 keywords on lists of at least 32 docs that
// keep the intersection below 20% of the input, drawn in a random order.
func tierBenchQueries(b *testing.B) (lists [][]uint32, trace [][]uint32) {
	const seed = 7
	c := datasets.NewCorpus(datasets.CorpusConfig{NumDocs: 25_000, NumItems: 62_500, MeanLen: 40, Seed: seed})
	lists = make([][]uint32, c.NumItems)
	for item, l := range c.Postings {
		lists[item] = l
	}
	rng := rand.New(rand.NewSource(seed))
	var queries [][]uint32
	for k := 2; k <= 4; k++ {
		qs, err := c.TrySampleQueries(rng, 400, k, 32, 0.2, 0)
		if err != nil {
			b.Fatal(err)
		}
		for _, q := range qs {
			queries = append(queries, q.Items)
		}
	}
	trace = make([][]uint32, 1<<16)
	for i := range trace {
		trace[i] = queries[rng.Intn(len(queries))]
	}
	return lists, trace
}

// BenchmarkTierQuery times one query of search-swap's trace three ways over
// the same sets: a bare executor's CountK, a stats-attached executor's
// CountKCtx (the frame's two clock reads and its strategy record), and
// Tier.QueryCount (admission, the tier's arrival read, the epoch's drain
// reference and LatServe on top). Their differences are the serving tier's
// fixed cost per query. `make tierbench` runs it.
func BenchmarkTierQuery(b *testing.B) {
	lists, trace := tierBenchQueries(b)
	tier, err := NewTier(lists, Config{ShedTargetP99: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer tier.Shutdown(context.Background())
	sets := tier.epoch.Load().sets
	var buf []*core.Set
	setsOf := func(items []uint32) []*core.Set {
		buf = buf[:0]
		for _, it := range items {
			buf = append(buf, sets[it])
		}
		return buf
	}
	ctx := context.Background()
	b.Run("CountK", func(b *testing.B) {
		ex := &core.Executor{}
		b.ResetTimer()
		for i := range b.N {
			tierBenchSink += ex.CountK(setsOf(trace[i%len(trace)])...)
		}
	})
	b.Run("CountKCtx-stats", func(b *testing.B) {
		ex := &core.Executor{}
		ex.EnableStats(stats.New())
		b.ResetTimer()
		for i := range b.N {
			n, err := ex.CountKCtx(ctx, setsOf(trace[i%len(trace)])...)
			if err != nil {
				b.Fatal(err)
			}
			tierBenchSink += n
		}
	})
	b.Run("QueryCount", func(b *testing.B) {
		for i := range b.N {
			n, err := tier.QueryCount(ctx, trace[i%len(trace)]...)
			if err != nil {
				b.Fatal(err)
			}
			tierBenchSink += n
		}
	})
}

// tierBenchSink keeps BenchmarkTierQuery's counts live.
var tierBenchSink int
