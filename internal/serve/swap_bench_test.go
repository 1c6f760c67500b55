package serve

import (
	"bytes"
	"context"
	"testing"

	"fesia/internal/core"
	"fesia/internal/datasets"
)

// swapBenchSizes are the corpora a swap benchmark runs over: search-swap's
// (25,000 docs over a 62,500-item universe, mean document length 40) and
// the full search corpus eight times its size (200,000 docs over 500,000
// items, about 6.8M postings), which search-http serves.
var swapBenchSizes = []struct {
	name        string
	docs, items int
	seed        int64
}{
	{"eighth", 25_000, 62_500, 1},
	{"full", 200_000, 500_000, 41},
}

// swapBenchLists is a corpus of docs documents over items items: one
// posting list per item id, as the tier takes it.
func swapBenchLists(docs, items int, seed int64) [][]uint32 {
	c := datasets.NewCorpus(datasets.CorpusConfig{NumDocs: docs, NumItems: items, MeanLen: 40, Seed: seed})
	lists := make([][]uint32, c.NumItems)
	for item, l := range c.Postings {
		lists[item] = l
	}
	return lists
}

// swapBenchSnapshot is the corpus's snapshot stream as WriteCorpus emits
// it, and the sets' in-memory bytes: their payload and their 32-byte
// headers.
func swapBenchSnapshot(b *testing.B, lists [][]uint32) (snap []byte, mem int) {
	sets, err := core.BuildSets(lists, core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := core.WriteCorpus(&buf, sets); err != nil {
		b.Fatal(err)
	}
	mem = 32 * len(sets)
	for _, s := range sets {
		mem += s.MemoryBytes()
	}
	return buf.Bytes(), mem
}

// BenchmarkBuildSets, BenchmarkReadCorpus and BenchmarkSwapFromReader are
// the three ways a corpus reaches a query server, at each of
// swapBenchSizes: built from its lists, loaded from its snapshot, and
// loaded from its snapshot into a serving tier (the hot swap). The read
// also reports the stream's size over the sets' in-memory bytes
// (stream/mem). `make swapbench` runs them.
func BenchmarkBuildSets(b *testing.B) {
	for _, size := range swapBenchSizes {
		b.Run(size.name, func(b *testing.B) {
			lists := swapBenchLists(size.docs, size.items, size.seed)
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				if _, err := core.BuildSets(lists, core.DefaultConfig()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkReadCorpus(b *testing.B) {
	for _, size := range swapBenchSizes {
		b.Run(size.name, func(b *testing.B) {
			snap, mem := swapBenchSnapshot(b, swapBenchLists(size.docs, size.items, size.seed))
			b.SetBytes(int64(len(snap)))
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				if _, err := core.ReadCorpus(bytes.NewReader(snap)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(snap))/float64(mem), "stream/mem")
		})
	}
}

func BenchmarkSwapFromReader(b *testing.B) {
	for _, size := range swapBenchSizes {
		b.Run(size.name, func(b *testing.B) {
			snap, _ := swapBenchSnapshot(b, swapBenchLists(size.docs, size.items, size.seed))
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
		})
	}
}
