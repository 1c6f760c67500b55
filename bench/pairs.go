package main

import (
	"math/rand"
	"slices"

	"fesia"
)

// pairsCorpus is a pool of large sets and small sets drawn from the same
// universe at about 10% density, so a small set shares about a tenth of its
// elements with any large one. At scale 1 the eight large sets hold 1M
// elements each, about 190 MB built: more than the host's 105 MB L3, so the
// probes into them miss cache.
type pairsCorpus struct {
	lists [][]uint32 // the large sets first, then the small ones
	pairs [][2]int   // (small, large) indices into lists
	want  []int
}

const (
	numLarge      = 8
	smallsPerSize = 32
	numPairs      = 256
	density       = 10 // one universe value in density is in a large set
)

func newPairsCorpus(cfg config) *pairsCorpus {
	rng := rand.New(rand.NewSource(cfg.seed))
	largeLen := cfg.scaled(1_000_000, 20_000)
	pc := &pairsCorpus{}
	universe := uint32(0)
	for i := 0; i < numLarge; i++ {
		l := make([]uint32, largeLen)
		x := uint32(0)
		for j := range l {
			x += 1 + uint32(rng.ExpFloat64()*(density-1)+0.5)
			l[j] = x
		}
		universe = max(universe, x)
		pc.lists = append(pc.lists, l)
	}
	for _, n := range []int{512, 2048, 8192} {
		n = cfg.scaled(n, 16)
		for i := 0; i < smallsPerSize; i++ {
			s := make([]uint32, n)
			for j := range s {
				s[j] = uint32(rng.Int63n(int64(universe)))
			}
			slices.Sort(s)
			pc.lists = append(pc.lists, slices.Compact(s))
		}
	}
	var oracle scalar
	for i := 0; i < numPairs; i++ {
		p := [2]int{numLarge + i%(len(pc.lists)-numLarge), rng.Intn(numLarge)}
		pc.pairs = append(pc.pairs, p)
		pc.want = append(pc.want, oracle.count([][]uint32{pc.lists[p[0]], pc.lists[p[1]]}))
	}
	return pc
}

// runPairsSkewed intersects small sets with large ones through
// Executor.IntersectCount in one goroutine, alternating with the scalar
// reference (a binary search of each small element in the large list). The
// size ratios send almost every pair down the hash-probe path, so the probe
// stage and the segment scans do the work while the kernel table idles, and
// the pool's size makes it the one memory-bound workload.
func runPairsSkewed(cfg config) (*result, error) {
	pc := newPairsCorpus(cfg)
	sets, su, err := buildSets(pc.lists)
	if err != nil {
		return nil, err
	}
	ex := fesia.NewExecutor()
	var ref scalar
	pl, err := pairedLoop(cfg.dur(1), execSlice, 1,
		func(i int) bool {
			k := i % numPairs
			p := pc.pairs[k]
			return ex.IntersectCount(sets[p[0]], sets[p[1]]) == pc.want[k]
		},
		func(i int) bool {
			k := i % numPairs
			p := pc.pairs[k]
			return ref.count([][]uint32{pc.lists[p[0]], pc.lists[p[1]]}) == pc.want[k]
		})
	if err != nil {
		return nil, err
	}
	r := &result{attempted: pl.attempted, failed: pl.failed}
	r.endToEnd(cfg, su, refSetupSecs["pairs-skewed"], pl, pl, bytesPerElem(sets))
	return r, nil
}
