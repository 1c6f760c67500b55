package serve

import (
	"bytes"
	"context"
	"testing"

	"fesia/internal/core"
	"fesia/internal/datasets"
)

// swapBenchLists is the search-swap workload's corpus size (25,000 docs over
// a 62,500-item universe, mean document length 40): one posting list per
// item id, as the tier takes it.
func swapBenchLists() [][]uint32 {
	c := datasets.NewCorpus(datasets.CorpusConfig{NumDocs: 25_000, NumItems: 62_500, MeanLen: 40, Seed: 1})
	lists := make([][]uint32, c.NumItems)
	for item, l := range c.Postings {
		lists[item] = l
	}
	return lists
}

// swapBenchSnapshot is the corpus's snapshot stream as WriteCorpus emits it.
func swapBenchSnapshot(b *testing.B, lists [][]uint32) []byte {
	sets, err := core.BuildSets(lists, core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := core.WriteCorpus(&buf, sets); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

// BenchmarkBuildSets, BenchmarkReadCorpus and BenchmarkSwapFromReader are
// the three ways a corpus reaches a query server: built from its lists,
// loaded from its snapshot, and loaded from its snapshot into a serving
// tier (the hot swap). `make swapbench` runs them.
func BenchmarkBuildSets(b *testing.B) {
	lists := swapBenchLists()
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if _, err := core.BuildSets(lists, core.DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadCorpus(b *testing.B) {
	snap := swapBenchSnapshot(b, swapBenchLists())
	b.SetBytes(int64(len(snap)))
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if _, err := core.ReadCorpus(bytes.NewReader(snap)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSwapFromReader(b *testing.B) {
	snap := swapBenchSnapshot(b, swapBenchLists())
	tier, err := NewTier([][]uint32{{0}}, Config{ShedTargetP99: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer tier.Shutdown(context.Background())
	b.SetBytes(int64(len(snap)))
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if _, err := tier.SwapFromReader(context.Background(), bytes.NewReader(snap)); err != nil {
			b.Fatal(err)
		}
	}
}
