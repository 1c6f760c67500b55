package main

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"fesia"
	"fesia/internal/serve"
)

// search-swap is writes beside reads: one goroutine hot-swaps the corpus back
// to back while another queries it, in process, so that nothing but the two
// sides and the host share the two cores. The system is a serve.Tier set up
// as fesiaserve sets up its own; the reference holds the lists and counts
// with scalar.count.

const (
	swapSlice = 250 * time.Millisecond
	minSwaps  = 3 // slice pairs, each with at least one swap per side
)

// swapSide is one side of search-swap: how it swaps a corpus file in and
// answers one query of the trace, and which files it alternates between.
type swapSide struct {
	swap  func(path string) (uint64, error) // returns the new generation
	query func(qi int32) bool               // reports whether the count was right
	files [2]string                         // B then A: generation g holds files[g%2]
	gen   uint64
	off   int // where in the query trace the next query starts
}

// next swaps the other corpus in. The generation must advance by one.
func (s *swapSide) next() error {
	g, err := s.swap(s.files[(s.gen+1)%2])
	if err != nil {
		return err
	}
	if g != s.gen+1 {
		return fmt.Errorf("swap produced generation %d, want %d", g, s.gen+1)
	}
	s.gen = g
	return nil
}

// runSearchSwap alternates slices of the system and the reference. In a
// slice, one goroutine swaps that side's corpus back to back, alternating
// corpus B (frequent items rotated) and A, for at least swapSlice and to the
// end of the swap that crosses it, while the other queries that side in a
// closed loop. Every count is checked against the generation it ran on. The
// speedups are the query rate and the median query latency during the swaps,
// and set-up is the swap: setup_s pairs each slice's median swap with the
// reference's. Rebuilding competes with the queries for two cores, so a
// query-path gain that costs load or rebuild time shows here and not in
// search-http.
func runSearchSwap(cfg config) (*result, error) {
	cfg = swapConfig(cfg)
	sc, err := newSearchCorpus(cfg)
	if err != nil {
		return nil, err
	}
	perm := permuteFrequent(sc)
	listsB := make([][]uint32, len(sc.lists))
	for it := range listsB {
		listsB[it] = sc.lists[perm[it]]
	}
	wantB := make([]int, len(sc.queries))
	var oracle scalar
	for i, q := range sc.queries {
		wantB[i] = oracle.count(postingsOf(listsB, q.items))
	}
	filesA, bpe, err := writeCorpusFiles(cfg, "a", sc.lists)
	defer filesA.remove()
	if err != nil {
		return nil, err
	}
	filesB, _, err := writeCorpusFiles(cfg, "b", listsB)
	defer filesB.remove()
	if err != nil {
		return nil, err
	}
	listsB = nil
	// Odd generations hold A, even ones B.
	want := func(qi int32, g uint64) int {
		if g%2 == 1 {
			return sc.queries[qi].want
		}
		return wantB[qi]
	}

	// fesiaserve's tier: default shards and slots, its default planner mode,
	// tracing off and, as for search-http, the load shedder off. The
	// planner attaches to the executors the tier makes now, and is off again
	// for whatever this process runs next. Stats stay off, because they
	// cannot be turned off again.
	fesia.EnablePlanner(fesia.WithPlanner(fesia.PlannerLearned))
	planner := fesia.ActivePlannerMode()
	tier, err := serve.NewTier([][]uint32{{0}}, serve.Config{ShedTargetP99: -1})
	fesia.EnablePlanner(fesia.WithPlanner(fesia.PlannerOff))
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	defer tier.Shutdown(ctx)
	sys := &swapSide{
		swap: func(path string) (uint64, error) { return tier.SwapFromFile(ctx, path) },
		// A swap takes far longer than a query, so the query ran on the
		// generation current before it or the one after.
		query: func(qi int32) bool {
			q := &sc.queries[qi]
			g0 := tier.Generation()
			n, err := tier.QueryCount(ctx, q.items...)
			g1 := tier.Generation()
			return err == nil && (n == want(qi, g0) || n == want(qi, g1))
		},
		files: [2]string{filesB.snap, filesA.snap},
	}
	var cur atomic.Pointer[refCorpus]
	var counter scalar
	buf := make([][]uint32, 0, 4)
	ref := &swapSide{
		swap: func(path string) (uint64, error) {
			next, err := loadRef(path, cur.Load())
			if err != nil {
				return 0, err
			}
			cur.Store(next)
			return next.gen, nil
		},
		query: func(qi int32) bool {
			c := cur.Load()
			buf = buf[:0]
			for _, it := range sc.queries[qi].items {
				buf = append(buf, c.lists[it])
			}
			return counter.count(buf) == want(qi, c.gen)
		},
		files: [2]string{filesB.lists, filesA.lists},
	}
	// Each side loads A, then swaps B in once before the warm-up, which grows
	// its heap to hold two corpora.
	for _, s := range []*swapSide{sys, ref} {
		for range 2 {
			if err := s.next(); err != nil {
				return nil, err
			}
		}
	}

	var su setups
	var attempted, failed int
	lat := make([]float64, 0, 1<<16)
	measure := func(isSys bool) (slice, error) {
		s := ref
		if isSys {
			s = sys
		}
		// Collect the other side's garbage first, so that neither side's
		// slice pays for the other's swaps.
		runtime.GC()
		var secs []float64
		var swapping atomic.Bool
		swapping.Store(true)
		errc := make(chan error, 1)
		go func() {
			defer swapping.Store(false)
			start := time.Now()
			for len(secs) == 0 || time.Since(start) < swapSlice {
				t0 := time.Now()
				if err := s.next(); err != nil {
					errc <- err
					return
				}
				secs = append(secs, time.Since(t0).Seconds())
			}
			errc <- nil
		}()
		lat = lat[:0]
		bad := 0
		start := time.Now()
		for len(lat) == 0 || swapping.Load() {
			qi := sc.trace[s.off%traceLen]
			s.off++
			t0 := time.Now()
			ok := s.query(qi)
			lat = append(lat, float64(time.Since(t0).Nanoseconds()))
			if !ok {
				bad++
			}
		}
		el := time.Since(start)
		if err := <-errc; err != nil {
			return slice{}, err
		}
		switch {
		case isSys:
			attempted += len(lat)
			failed += bad
			su.sys = append(su.sys, median(secs))
		case bad > 0:
			return slice{}, fmt.Errorf("the scalar reference disagrees with the oracle")
		default:
			su.ref = append(su.ref, median(secs))
		}
		return slice{float64(len(lat)) / el.Seconds(), median(lat)}, nil
	}
	warm := cfg.dur(warmupFrac)
	if _, err := alternate(forDur(warm), measure); err != nil {
		return nil, err
	}
	su, attempted, failed = setups{}, 0, 0
	pairs := 0
	measured := forDur(cfg.dur(1) - warm)
	p, err := alternate(func() bool { pairs++; return pairs >= minSwaps && measured() }, measure)
	if err != nil {
		return nil, err
	}
	env := map[string]string{"planner": planner, "shards": fmt.Sprint(tier.NumShards()), "slots": fmt.Sprint(tier.MaxConcurrent())}
	r := &result{attempted: attempted, failed: failed, env: env}
	r.endToEnd(cfg, su, refSetupSecs["search-swap"], p, p, bpe)
	return r, nil
}

// swapConfig is search-swap's configuration: its corpus is an eighth the
// size of search-http's, about 850k postings, so that a system swap takes
// about 0.4 s and a 15 s run holds about seventeen slice pairs. At a
// quarter size the speedups' interquartile spread over ten runs reached 0.19
// of the median; at an eighth it stayed within 0.13.
func swapConfig(cfg config) config {
	cfg.scale /= 8
	return cfg
}

// permuteFrequent returns the item permutation that turns corpus A into B:
// the items a query may use (lists of at least minLen) are rotated by one in
// id order, so B's queries draw on lists from the same population as A's but
// count different ones.
func permuteFrequent(sc *searchCorpus) []uint32 {
	perm := make([]uint32, len(sc.lists))
	var freq []uint32
	for it, l := range sc.lists {
		perm[it] = uint32(it)
		if len(l) >= sc.minLen {
			freq = append(freq, uint32(it))
		}
	}
	for j, it := range freq {
		perm[it] = freq[(j+1)%len(freq)]
	}
	return perm
}
