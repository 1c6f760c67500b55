package main

import (
	"fmt"
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"strings"

	"fesia"
	"fesia/internal/datasets"
)

// searchCorpus is the input of the three search workloads and the ledger:
// a WebDocs-like inverted index (one sorted posting list of document ids per
// item) and conjunctive keyword queries over it. The paper's first
// application (Fig. 12) is exactly these queries.
type searchCorpus struct {
	lists   [][]uint32 // item id -> sorted document ids
	queries []query    // distinct queries with their oracle counts
	trace   []int32    // the query stream: indices into queries
	minLen  int        // shortest posting list a query may use
}

type query struct {
	items []uint32
	want  int    // oracle count on the corpus
	param string // the items URL parameter, "a,b,c"
}

const (
	distinctQueries = 1200
	traceLen        = 1 << 16
)

// newSearchCorpus generates the corpus and queries from seed. At scale 1 the
// corpus has 200k documents over a 500k-item universe, mean length 40 and
// Zipf 1.2 (about 6.8M postings); queries take 2, 3 or 4 keywords whose
// lists hold at least 256 documents, which keeps most pairs on the merge
// side.
func newSearchCorpus(cfg config) (*searchCorpus, error) {
	c := datasets.NewCorpus(datasets.CorpusConfig{
		NumDocs:  cfg.scaled(200_000, 2_000),
		NumItems: cfg.scaled(500_000, 5_000),
		MeanLen:  40,
		Seed:     cfg.seed,
	})
	sc := &searchCorpus{lists: make([][]uint32, c.NumItems), minLen: cfg.scaled(256, 8)}
	for item, l := range c.Postings {
		sc.lists[item] = l
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	var oracle scalar
	for k := 2; k <= 4; k++ {
		qs, err := c.TrySampleQueries(rng, distinctQueries/3, k, sc.minLen, 0.2, 0)
		if err != nil {
			return nil, fmt.Errorf("sampling %d-keyword queries: %w", k, err)
		}
		for _, q := range qs {
			param := make([]string, len(q.Items))
			for i, it := range q.Items {
				param[i] = strconv.Itoa(int(it))
			}
			sc.queries = append(sc.queries, query{
				items: q.Items,
				want:  oracle.count(q.Postings),
				param: strings.Join(param, ","),
			})
		}
	}
	sc.trace = make([]int32, traceLen)
	for i := range sc.trace {
		sc.trace[i] = int32(rng.Intn(len(sc.queries)))
	}
	return sc, nil
}

// scalar is the benchmark's sorted-slice intersection. It is both the
// oracle every result is checked against and the reference every workload's
// speed is measured against: a plain merge, or a binary search of the
// longer list when the lengths differ by more than refSkew.
type scalar struct {
	order [][]uint32 // count's lists, shortest first
	cur   []uint32   // count's running intersection
}

const refSkew = 8

// count returns the size of the intersection of sorted lists, intersecting
// from the shortest.
func (s *scalar) count(lists [][]uint32) int {
	s.order = append(s.order[:0], lists...)
	slices.SortFunc(s.order, func(a, b []uint32) int { return len(a) - len(b) })
	s.cur = append(s.cur[:0], s.order[0]...)
	for _, l := range s.order[1:] {
		s.cur = intersectInto(s.cur, l)
	}
	return len(s.cur)
}

// intersectInto keeps the elements of cur that are in l, in place.
func intersectInto(cur, l []uint32) []uint32 {
	n, j := 0, 0
	if len(l) > refSkew*len(cur) {
		for _, v := range cur {
			k, found := slices.BinarySearch(l[j:], v)
			j += k
			if found {
				cur[n] = v
				n++
			}
		}
		return cur[:n]
	}
	for _, v := range cur {
		for j < len(l) && l[j] < v {
			j++
		}
		if j < len(l) && l[j] == v {
			cur[n] = v
			n++
		}
	}
	return cur[:n]
}

// refIndex is the reference set-up's output, kept until the next set-up
// so that building it is not dead code.
type refIndex struct {
	sorted, bucketed []uint32
	bits             []uint64
}

// buildIndex is the reference set-up, in bench code so that no change to the
// library moves it. It does the kind of work FESIA's build does, so that a
// busy host slows both alike: it copies each list into one arena and sorts
// it, hashes each element into a bitmap of about 8 bits per element, and
// buckets the elements by 8-bit segment of that bitmap.
func buildIndex(lists [][]uint32) *refIndex {
	bitsLen := func(n int) int { return max(64, 1<<bits.Len(uint(8*n))) }
	words, total := 0, 0
	for _, l := range lists {
		words += bitsLen(len(l)) / 64
		total += len(l)
	}
	x := &refIndex{make([]uint32, total), make([]uint32, total), make([]uint64, words)}
	var start []uint32 // each segment's next slot in bucketed
	at, wAt := 0, 0
	for _, l := range lists {
		n, nbits := len(l), bitsLen(len(l))
		sorted, out := x.sorted[at:at+n], x.bucketed[at:at+n]
		bm := x.bits[wAt : wAt+nbits/64]
		copy(sorted, l)
		slices.Sort(sorted)
		mask := uint32(nbits - 1)
		start = slices.Grow(start[:0], nbits/8+1)[:nbits/8+1]
		clear(start)
		for _, v := range sorted {
			p := v * 0x9e3779b1 & mask
			bm[p/64] |= 1 << (p % 64)
			start[p/8+1]++
		}
		for s := 1; s < len(start); s++ {
			start[s] += start[s-1]
		}
		for _, v := range sorted {
			p := v * 0x9e3779b1 & mask
			out[start[p/8]] = v
			start[p/8]++
		}
		at, wAt = at+n, wAt+nbits/64
	}
	return x
}

// postingsOf returns the posting lists of a query's items under lists.
func postingsOf(lists [][]uint32, items []uint32) [][]uint32 {
	out := make([][]uint32, len(items))
	for i, it := range items {
		out[i] = lists[it]
	}
	return out
}

func bytesPerElem(sets []*fesia.Set) float64 {
	mem, n := 0, 0
	for _, s := range sets {
		mem += s.MemoryBytes()
		n += s.Len()
	}
	return float64(mem) / float64(max(n, 1))
}

// runSearchExec runs the query stream through Executor.IntersectCountK on
// BuildBatch sets in one goroutine, alternating with the scalar reference on
// the same stream: the search workload with no HTTP or serving tier in the
// way, so the merge path (bitmap filter plus segment kernels) does most of
// the work.
func runSearchExec(cfg config) (*result, error) {
	sc, err := newSearchCorpus(cfg)
	if err != nil {
		return nil, err
	}
	sets, su, err := buildSets(sc.lists)
	if err != nil {
		return nil, err
	}
	ex := fesia.NewExecutor()
	buf := make([]*fesia.Set, 0, 4)
	var ref scalar
	lists := make([][]uint32, 0, 4)
	pl, err := pairedLoop(cfg.dur(1), execSlice, 1,
		func(i int) bool {
			q := &sc.queries[sc.trace[i%traceLen]]
			buf = buf[:0]
			for _, it := range q.items {
				buf = append(buf, sets[it])
			}
			return ex.IntersectCountK(buf...) == q.want
		},
		func(i int) bool {
			q := &sc.queries[sc.trace[i%traceLen]]
			lists = lists[:0]
			for _, it := range q.items {
				lists = append(lists, sc.lists[it])
			}
			return ref.count(lists) == q.want
		})
	if err != nil {
		return nil, err
	}
	r := &result{attempted: pl.attempted, failed: pl.failed}
	r.endToEnd(cfg, su, refSetupSecs["search-exec"], pl, pl, bytesPerElem(sets))
	return r, nil
}

// buildSets builds lists with fesia.BuildBatch several times, each beside
// the reference set-up, and returns the last build and the times.
func buildSets(lists [][]uint32) ([]*fesia.Set, setups, error) {
	var sets []*fesia.Set
	su, err := setUpInProcess(lists, func() { sets = nil }, func() (err error) {
		sets, err = fesia.BuildBatch(lists)
		return err
	})
	return sets, su, err
}

// setUpInProcess pairs an in-process set-up with buildIndex over lists.
// release drops what the previous build made.
func setUpInProcess(lists [][]uint32, release func(), build func() error) (setups, error) {
	var idx *refIndex
	su, err := pairedSetups(
		func(sys bool) {
			if sys {
				release()
			} else {
				idx = nil
			}
		},
		build,
		func() error {
			idx = buildIndex(lists)
			return nil
		})
	runtime.KeepAlive(idx) // each reference index lives until the next replaces it
	return su, err
}
