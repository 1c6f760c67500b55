package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"
	"unsafe"

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

// pairArmsLarge returns p sorted, duplicate-free lists of n even values,
// spread evenly over the uint32 range with random jitter: the larger sides
// of one BenchmarkPairArms pool. No odd value is a member, so the smaller
// sides draw their non-matching elements from the odd values.
func pairArmsLarge(rng *rand.Rand, p, n int) [][]uint32 {
	g := 1 << 31 / n
	lists := make([][]uint32, p)
	for i := range lists {
		l := make([]uint32, n)
		for k := range l {
			l[k] = 2 * uint32(k*g+rng.Intn(g))
		}
		lists[i] = l
	}
	return lists
}

// pairArmsSmall returns one pool pair's smaller side: m sorted,
// duplicate-free values, common of them members of large (one from each of
// common equal stretches of it) and the rest odd, so they match nothing.
func pairArmsSmall(rng *rand.Rand, large []uint32, m, common int) []uint32 {
	hit := make([]uint32, common)
	for j := range hit {
		st := len(large) / common
		hit[j] = large[j*st+rng.Intn(st)]
	}
	miss := make([]uint32, m-common)
	for j := range miss {
		g := 1 << 31 / len(miss)
		miss[j] = 2*uint32(j*g+rng.Intn(g)) + 1
	}
	out := make([]uint32, 0, m)
	for len(hit) > 0 && len(miss) > 0 {
		if hit[0] < miss[0] {
			out, hit = append(out, hit[0]), hit[1:]
		} else {
			out, miss = append(out, miss[0]), miss[1:]
		}
	}
	return append(append(out, hit...), miss...)
}

// BenchmarkPairArms times the two seg×seg arms the library ships, the
// forced Executor.CountMerge against the forced Executor.CountHash, over a
// pool of pairs per cell: the larger side n from 16 to 4Mi elements, the
// smaller side n/64 to n, selectivity (matches per smaller-side element)
// 0.1, 0.5 and 0.9, and two residencies. A "cache" pool's larger sides fill
// 512 KiB (at most 512 pairs), so a whole cell stays in the 2 MiB L2; a
// "mem" pool's larger sides fill 256 MiB, so a cell spans 256-512 MiB and
// every pass streams past L3. Each cell runs on every rung the host has
// (scalar, avx2, avx512; the toggles FESIA_DISABLE_AVX512 and -tags=noasm
// fix at start-up), alternating which arm goes first. It reports each arm's
// ns per pair, hash/merge (below 1 where hash wins), and merge-filter-frac,
// the share of merge's time in step 1, the bitmap filter, from
// CountMergeBreakdown's isolated steps. This is the sweep behind HashSegSeg's
// HashFloor and SkewThreshold, and EXPERIMENTS.md's "Fig 11 on the shipped
// path" (make pairbench).
func BenchmarkPairArms(b *testing.B) {
	const (
		maxCachePairs = 512
		perSetBytes   = int(unsafe.Sizeof(Set{})) // header, beside MemoryBytes' payload
	)
	residencies := []struct {
		name  string
		bytes int
	}{{"cache", 512 << 10}, {"mem", 256 << 20}}
	prevAsm, prevAvx512 := simd.SetAsmEnabled(true), simd.SetAvx512Enabled(true)
	defer func() {
		simd.SetAvx512Enabled(prevAvx512)
		simd.SetAsmEnabled(prevAsm)
	}()
	e := NewExecutor()
	for _, res := range residencies {
		for n := 16; n <= 4<<20; n *= 4 {
			rng := rand.New(rand.NewSource(int64(n)))
			one := MustNewSet(pairArmsLarge(rng, 1, n)[0], DefaultConfig())
			p := res.bytes / (one.MemoryBytes() + perSetBytes)
			if res.name == "cache" {
				p = min(p, maxCachePairs)
			}
			if p < 2 {
				continue
			}
			largeLists := pairArmsLarge(rng, p, n)
			larges, err := BuildSets(largeLists, DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			for _, den := range []int{64, 16, 4, 2, 1} {
				m := n / den
				if m < 1 {
					continue
				}
				for _, sel := range []float64{0.1, 0.5, 0.9} {
					common := int(sel*float64(m) + 0.5)
					smallLists := make([][]uint32, p)
					for i := range smallLists {
						smallLists[i] = pairArmsSmall(rng, largeLists[i], m, common)
					}
					smalls, err := BuildSets(smallLists, DefaultConfig())
					if err != nil {
						b.Fatal(err)
					}
					for _, rung := range []string{"scalar", "avx2", "avx512"} {
						if (rung == "avx2" && !simd.HasAsm()) || (rung == "avx512" && !simd.HasAVX512()) {
							continue
						}
						simd.SetAsmEnabled(rung != "scalar")
						simd.SetAvx512Enabled(rung == "avx512")
						name := fmt.Sprintf("%s/%s/n=%d/ratio=1:%d/sel=%.1f", rung, res.name, n, den, sel)
						pairArmsCell(b, name, e, smalls, larges)
					}
					smalls, smallLists = nil, nil
					runtime.GC()
				}
			}
			larges, largeLists = nil, nil
			runtime.GC()
		}
	}
}

// pairArmsCell runs one BenchmarkPairArms cell: the forced arms over every
// pool pair, checked against each other on the first call, then timed
// alternately.
func pairArmsCell(b *testing.B, name string, e *Executor, smalls, larges []*Set) {
	var filter, segment time.Duration
	checked, mergeFirst := false, true
	b.Run(name, func(b *testing.B) {
		if !checked {
			for i, s := range smalls {
				if m, h := e.CountMerge(s, larges[i]), e.CountHash(s, larges[i]); m != h {
					b.Fatalf("pair %d: CountMerge = %d, CountHash = %d", i, m, h)
				}
				bd := e.CountMergeBreakdown(s, larges[i])
				filter += bd.BitmapTime
				segment += bd.SegmentTime
			}
			checked = true
		}
		var merge, hash time.Duration
		pass := func(useHash bool) {
			start := time.Now()
			for i, s := range smalls {
				if useHash {
					benchSink += e.CountHash(s, larges[i])
				} else {
					benchSink += e.CountMerge(s, larges[i])
				}
			}
			if useHash {
				hash += time.Since(start)
			} else {
				merge += time.Since(start)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			first := (i%2 == 0) == mergeFirst
			pass(!first)
			pass(first)
		}
		mergeFirst = !mergeFirst
		pairs := float64(b.N * len(smalls))
		b.ReportMetric(float64(merge)/pairs, "merge-ns/pair")
		b.ReportMetric(float64(hash)/pairs, "hash-ns/pair")
		b.ReportMetric(float64(hash)/float64(merge), "hash/merge")
		b.ReportMetric(float64(filter)/float64(filter+segment), "merge-filter-frac")
	})
}

// BenchmarkMergeBodies is the sweep behind maskWalkWords: the merge body on
// its two walks over a pair with rank directories, the mask walk against the
// word loop, each pinned in a direct call of the body on the count sink,
// over a pool of pairs per cell. The larger side holds 4w elements, filling
// a bitmap of w = 8, 16, ..., 1,024 words at the default scale; the smaller
// side holds as many or a quarter as many (ratio 1:1 or 1:4), with
// selectivity (matches per smaller-side element) 0.1 or 0.9. A "cache" pool
// holds up to 512 pairs in at most 1 MiB; a "mem" pool's sets and headers
// fill 160 MiB, past the L3 of the 2-vCPU AVX-512 host the sweep was
// recorded on, and is walked in a random order so no prefetcher follows it.
// Each cell runs on every rung the host has (on the scalar rung the mask
// walk runs AndSegMasks' Go form), alternating which walk goes first, and
// reports each walk's ns per pair and mask/word (below 1 where the mask walk
// wins). A cell whose smaller bitmap has fewer words than one mask block is
// skipped. make mergebench runs it.
func BenchmarkMergeBodies(b *testing.B) {
	const maxCachePairs = 512
	residencies := []struct {
		name  string
		bytes int
	}{{"cache", 1 << 20}, {"mem", 160 << 20}}
	prevAsm, prevAvx512 := simd.SetAsmEnabled(true), simd.SetAvx512Enabled(true)
	defer func() {
		simd.SetAvx512Enabled(prevAvx512)
		simd.SetAsmEnabled(prevAsm)
	}()
	var l lane
	for _, res := range residencies {
		for w := 2 * simd.BlockWords; w <= 1024; w *= 2 {
			n := 4 * w
			rng := rand.New(rand.NewSource(int64(n)))
			one := MustNewSet(pairArmsLarge(rng, 1, n)[0], DefaultConfig())
			p := res.bytes / (2 * (one.MemoryBytes() + int(unsafe.Sizeof(Set{}))))
			if res.name == "cache" {
				p = min(p, maxCachePairs)
			}
			largeLists := pairArmsLarge(rng, p, n)
			larges, err := BuildSets(largeLists, DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			if words := len(larges[0].bm.Words()); words != w {
				b.Fatalf("n=%d: %d bitmap words, want %d", n, words, w)
			}
			order := rng.Perm(p)
			for _, den := range []int{1, 4} {
				m := n / den
				for _, sel := range []float64{0.1, 0.9} {
					smallLists := make([][]uint32, p)
					for i := range smallLists {
						smallLists[i] = pairArmsSmall(rng, largeLists[i], m, int(sel*float64(m)+0.5))
					}
					smalls, err := BuildSets(smallLists, DefaultConfig())
					if err != nil {
						b.Fatal(err)
					}
					if len(smalls[0].bm.Words()) < simd.BlockWords {
						continue
					}
					for _, rung := range []string{"scalar", "avx2", "avx512"} {
						if (rung == "avx2" && !simd.HasAsm()) || (rung == "avx512" && !simd.HasAVX512()) {
							continue
						}
						simd.SetAsmEnabled(rung != "scalar")
						simd.SetAvx512Enabled(rung == "avx512")
						name := fmt.Sprintf("%s/%s/words=%d/ratio=1:%d/sel=%.1f", rung, res.name, w, den, sel)
						mergeBodiesCell(b, name, &l, smalls, larges, order)
					}
					smalls, smallLists = nil, nil
					runtime.GC()
				}
			}
			larges, largeLists = nil, nil
			runtime.GC()
		}
	}
}

// mergeBodiesCell runs one BenchmarkMergeBodies cell: both walks over every
// pool pair in order, checked against each other on the first call, then
// timed alternately.
func mergeBodiesCell(b *testing.B, name string, l *lane, smalls, larges []*Set, order []int) {
	checked, maskFirst := false, true
	walk := func(masks bool, x, y *Set) int {
		w := walkWords
		if masks {
			w = walkMasks
		}
		n, _, _ := l.merge(nil, nil, w, x, y, 0, len(x.bm.Words()), nil, nil)
		return n
	}
	b.Run(name, func(b *testing.B) {
		if !checked {
			for _, i := range order {
				x, y := ordered(smalls[i], larges[i])
				if m, w := walk(true, x, y), walk(false, x, y); m != w {
					b.Fatalf("pair %d: mask walk %d, word loop %d", i, m, w)
				}
			}
			checked = true
		}
		var mask, word time.Duration
		pass := func(masks bool) {
			start := time.Now()
			for _, i := range order {
				x, y := ordered(smalls[i], larges[i])
				benchSink += walk(masks, x, y)
			}
			if masks {
				mask += time.Since(start)
			} else {
				word += time.Since(start)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			first := (i%2 == 0) == maskFirst
			pass(first)
			pass(!first)
		}
		maskFirst = !maskFirst
		pairs := float64(b.N * len(order))
		b.ReportMetric(float64(mask)/pairs, "mask-ns/pair")
		b.ReportMetric(float64(word)/pairs, "word-ns/pair")
		b.ReportMetric(float64(mask)/float64(word), "mask/word")
	})
}
