package core

import (
	"fmt"
	"math/rand"
	"testing"

	"fesia/internal/datasets"
	"fesia/internal/simd"
)

var benchSink int

func benchPair(n int, sel float64, cfg Config) (*Set, *Set) {
	rng := rand.New(rand.NewSource(int64(n)))
	universe := uint32(16 * n)
	common := int(float64(n) * sel)
	base := make([]uint32, 0, n)
	seen := map[uint32]bool{}
	for len(base) < n {
		v := rng.Uint32() % universe
		if !seen[v] {
			seen[v] = true
			base = append(base, v)
		}
	}
	other := append([]uint32(nil), base[:common]...)
	for len(other) < n {
		v := rng.Uint32() % universe
		if !seen[v] {
			seen[v] = true
			other = append(other, v)
		}
	}
	return MustNewSet(base, cfg), MustNewSet(other, cfg)
}

func BenchmarkCountMerge(b *testing.B) {
	for _, n := range []int{1000, 100_000, 1_000_000} {
		sa, sb := benchPair(n, 0.01, DefaultConfig())
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchSink += CountMerge(sa, sb)
			}
		})
	}
}

func BenchmarkCountMergeWidths(b *testing.B) {
	for _, w := range []simd.Width{simd.WidthSSE, simd.WidthAVX, simd.WidthAVX512} {
		sa, sb := benchPair(100_000, 0.01, Config{Width: w})
		b.Run(w.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchSink += CountMerge(sa, sb)
			}
		})
	}
}

func BenchmarkCountHash(b *testing.B) {
	for _, skew := range []int{100, 10_000} {
		rng := rand.New(rand.NewSource(9))
		sa := MustNewSet(randSet(rng, skew, 1<<24), DefaultConfig())
		sb := MustNewSet(randSet(rng, 1_000_000, 1<<24), DefaultConfig())
		b.Run(fmt.Sprintf("small=%d", skew), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchSink += CountHash(sa, sb)
			}
		})
	}
}

func BenchmarkIntersectMergeMaterialize(b *testing.B) {
	sa, sb := benchPair(100_000, 0.1, DefaultConfig())
	dst := make([]uint32, 100_000)
	for i := 0; i < b.N; i++ {
		benchSink += IntersectMerge(dst, sa, sb)
	}
}

func BenchmarkCountK(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	for _, k := range []int{3, 5} {
		sets := make([]*Set, k)
		for i := range sets {
			sets[i] = MustNewSet(randSet(rng, 100_000, 1<<21), DefaultConfig())
		}
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchSink += CountK(sets...)
			}
		})
	}
}

func BenchmarkBuild(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1000, 100_000} {
		elems := randSet(rng, n, 1<<24)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := MustNewSet(elems, DefaultConfig())
				benchSink += s.Len()
			}
		})
	}
}

func BenchmarkContains(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	s := MustNewSet(randSet(rng, 100_000, 1<<24), DefaultConfig())
	probes := randSet(rng, 1024, 1<<24)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s.Contains(probes[i%1024]) {
			benchSink++
		}
	}
}

// kwayShape is one input of BenchmarkKWayArms: k-way queries over sets from
// one generator.
type kwayShape struct {
	name    string
	queries [][]*Set
}

// kwayShapes builds BenchmarkKWayArms's inputs: Fig. 10's equal-size 3-way
// groups (datasets.GenGroup) at three densities; a skew sweep of three sets
// whose smallest is 1/r of the other two; and 400 3- and 4-keyword Zipf
// queries of the search application (Fig. 12) over a WebDocs-like corpus
// the shape of the repository benchmark's: 200k documents with lists of at
// least 256 ("search"), and an eighth of it with lists of at least 32
// ("search/8").
func kwayShapes() []kwayShape {
	var shapes []kwayShape
	rng := rand.New(rand.NewSource(10))
	build := func(lists [][]uint32) []*Set {
		sets := make([]*Set, len(lists))
		for i, l := range lists {
			sets[i] = MustNewSet(l, DefaultConfig())
		}
		return sets
	}
	for _, d := range []float64{0.1, 0.5, 0.9} {
		shapes = append(shapes, kwayShape{fmt.Sprintf("fig10/d=%.1f", d),
			[][]*Set{build(datasets.GenGroup(rng, 3, 100_000, d))}})
	}
	const n = 64_000
	for _, r := range []int{1, 2, 3, 4, 6, 8, 16, 64} {
		lists := [][]uint32{
			randSet(rng, n/r, 8*n), randSet(rng, n, 8*n), randSet(rng, n, 8*n),
		}
		shapes = append(shapes, kwayShape{fmt.Sprintf("skew/r=%d", r), [][]*Set{build(lists)}})
	}
	for _, div := range []int{1, 8} {
		c := datasets.NewCorpus(datasets.CorpusConfig{NumDocs: 200_000 / div, NumItems: 500_000 / div, MeanLen: 40, Seed: 5})
		built := map[uint32]*Set{}
		var search [][]*Set
		for k := 3; k <= 4; k++ {
			for _, q := range c.SampleQueries(rng, 200, k, 256/div, 0.2, 0) {
				sets := make([]*Set, k)
				for i, it := range q.Items {
					if built[it] == nil {
						built[it] = MustNewSet(q.Postings[i], DefaultConfig())
					}
					sets[i] = built[it]
				}
				search = append(search, sets)
			}
		}
		name := "search"
		if div > 1 {
			name = fmt.Sprintf("search/%d", div)
		}
		shapes = append(shapes, kwayShape{name, search})
	}
	return shapes
}

// kwayByRule runs one k-way query on the arm a probe-chain rule of the
// given ratio would pick (probe when smallest × ratio < largest).
func kwayByRule(e *Executor, sets []*Set, ratio int) int {
	lo, hi := sets[0].Len(), sets[0].Len()
	for _, s := range sets {
		lo = min(lo, s.Len())
		hi = max(hi, s.Len())
	}
	var n int
	if lo*ratio < hi {
		n, _ = e.kwayProbeChain(nil, sets, nil)
	} else {
		n, _ = e.kwayChain(nil, sets, nil)
	}
	return n
}

// BenchmarkKWayArms times the two k-way arms and the selected one (CountK)
// on every kwayShapes input, reporting ns per query: "chain" is the Section
// VI bitmap chain, "probe" the probe chain, "selected" CountK's choice, and
// "rule=R" the choice a probe rule of ratio R would make — the sweep
// kwayProbeRatio was chosen from. EXPERIMENTS.md's k-way table is this
// benchmark's output (make kwaybench).
func BenchmarkKWayArms(b *testing.B) {
	arms := []struct {
		name string
		run  func(e *Executor, sets []*Set) int
	}{
		{"chain", func(e *Executor, sets []*Set) int { n, _ := e.kwayChain(nil, sets, nil); return n }},
		{"probe", func(e *Executor, sets []*Set) int { n, _ := e.kwayProbeChain(nil, sets, nil); return n }},
		{"selected", func(e *Executor, sets []*Set) int { return e.CountK(sets...) }},
	}
	for _, r := range []int{2, 3, 6, 8} {
		arms = append(arms, struct {
			name string
			run  func(e *Executor, sets []*Set) int
		}{fmt.Sprintf("rule=%d", r), func(e *Executor, sets []*Set) int { return kwayByRule(e, sets, r) }})
	}
	for _, sh := range kwayShapes() {
		e := NewExecutor()
		want := make([]int, len(sh.queries))
		for i, q := range sh.queries {
			want[i] = e.CountK(q...)
		}
		for _, arm := range arms {
			b.Run(sh.name+"/"+arm.name, func(b *testing.B) {
				for i, q := range sh.queries {
					if got := arm.run(e, q); got != want[i] {
						b.Fatalf("query %d: %s = %d, CountK = %d", i, arm.name, got, want[i])
					}
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for _, q := range sh.queries {
						benchSink += arm.run(e, q)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(sh.queries)), "ns/query")
			})
		}
	}
}
