package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"fesia"
	"fesia/internal/bitmap"
	"fesia/internal/core"
	"fesia/internal/hashutil"
	"fesia/internal/kernels"
	"fesia/internal/serve"
	"fesia/internal/simd"
)

// The traced run is the layer ledger: a workload's operations timed at each
// layer they cross, top down:
//
//	http     loopback round trip to fesiaserve (the server reports its own time)
//	serve    serve.Tier.QueryCount in process: admission, scatter, gather
//	shard    each doc%S shard's sets queried on its own executor
//	core     the workload's queries through its Executor entry point
//	planner  which strategy Count's default rule picks for each pair
//	pair     the workload's pair intersections, split into the merge filter
//	         and segment steps (Fig. 14) and the hash probe phases
//	kernels  the pairs' segment-size dispatches replayed through the table
//	simd     AndSegMasks, Contains and ProbeStage on the pairs' real shapes
//
// Only the search workloads cross http, serve and shard, so those layers
// always run the search corpus and its query stream. The layers from core
// down run the named workload's own sets and operations (layerInputOf).
// Each call into a layer is recorded as a span by the code below, not by the
// program, and the spans are written to the output directory at the end.

const ledgerRounds = 9 // passes over the operations per in-process layer

type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the enclosing span, -1 at the top
	Query  int32  `json:"query"`  // index of the query, distinct within a layer
}

type ledger struct {
	cfg   config
	sc    *searchCorpus
	r     *result
	t0    time.Time
	spans []span

	exCore *core.Executor // made before stats are on, like the workloads' own
	exShrd []*core.Executor

	servQuery []float64 // per distinct query, median Tier.QueryCount ns

	// Per-layer inputs to the reconciliation, µs.
	e2eP50, lateP50, selfP50, servAdded, shardP50 float64
}

func (lg *ledger) span(name string, start, end time.Time, parent int, q int) int {
	lg.spans = append(lg.spans, span{name, start.Sub(lg.t0).Nanoseconds(), end.Sub(lg.t0).Nanoseconds(), parent, int32(q)})
	return len(lg.spans) - 1
}

func (lg *ledger) check(ok bool) {
	lg.r.attempted++
	if !ok {
		lg.r.failed++
	}
}

// layerInput is what the layers from core down replay: a workload's own
// sets and the operations its system runs on them.
type layerInput struct {
	lists   [][]uint32
	sets    []*core.Set
	queries [][]int // indices into sets
	// op runs query qi through the core entry point the workload's system
	// calls and reports whether the result matches the oracle.
	op    func(ex *core.Executor, qi int) bool
	pairs []qpair // the two-set intersections the workload's system runs
}

type qpair struct {
	small, large *core.Set
	want         int
}

// layerInputOf builds the named workload's sets and operations from the
// seed. A search query runs through CountK, which intersects its two
// shortest lists first, so those are its pair; search-swap's queries run on
// its own, smaller corpus. A skewed pair runs through
// Count and is its own query. A triangle query is a vertex's forward
// neighbors against each of theirs through CountMany, as CountTriangles
// batches it, sampled every len/distinctQueries vertices, and its pairs are
// the edges.
func layerInputOf(cfg config, workload string, sc *searchCorpus) (*layerInput, error) {
	in := &layerInput{}
	var pairs [][2]int
	var want []int
	var oracle scalar
	var err error
	count := func(idx ...int) int {
		ls := make([][]uint32, len(idx))
		for i, x := range idx {
			ls[i] = in.lists[x]
		}
		return oracle.count(ls)
	}
	switch workload {
	case "pairs-skewed":
		pc := newPairsCorpus(cfg)
		in.lists = pc.lists
		for k, p := range pc.pairs {
			in.queries = append(in.queries, []int{p[0], p[1]})
			want = append(want, pc.want[k])
			pairs = append(pairs, p)
		}
		in.op = func(ex *core.Executor, qi int) bool {
			q := in.queries[qi]
			return ex.Count(in.sets[q[0]], in.sets[q[1]]) == want[qi]
		}
	case "triangles":
		_, in.lists = newTriangleGraph(cfg)
		step := max(1, len(in.lists)/distinctQueries)
		for u := 0; u < len(in.lists); u += step {
			q, total := []int{u}, 0
			for _, v := range in.lists[u] {
				if len(in.lists[v]) > 0 {
					q = append(q, int(v))
					pairs = append(pairs, [2]int{u, int(v)})
					total += count(u, int(v))
				}
			}
			if len(q) > 1 {
				in.queries = append(in.queries, q)
				want = append(want, total)
			}
		}
		var cands []*core.Set
		var out []int
		in.op = func(ex *core.Executor, qi int) bool {
			q := in.queries[qi]
			cands = in.setsOf(q[1:], cands)
			out = slices.Grow(out[:0], len(cands))[:len(cands)]
			ex.CountMany(in.sets[q[0]], cands, out)
			total := 0
			for _, n := range out {
				total += n
			}
			return total == want[qi]
		}
	case "search-swap":
		if sc, err = newSearchCorpus(swapConfig(cfg)); err != nil {
			return nil, err
		}
		fallthrough
	default:
		in.lists = sc.lists
		for _, q := range sc.queries {
			items := make([]int, len(q.items))
			for i, it := range q.items {
				items[i] = int(it)
			}
			in.queries = append(in.queries, items)
			want = append(want, q.want)
			byLen := slices.Clone(items)
			slices.SortFunc(byLen, func(x, y int) int { return len(sc.lists[x]) - len(sc.lists[y]) })
			pairs = append(pairs, [2]int{byLen[0], byLen[1]})
		}
		var buf []*core.Set
		in.op = func(ex *core.Executor, qi int) bool {
			buf = in.setsOf(in.queries[qi], buf)
			return ex.CountK(buf...) == want[qi]
		}
	}
	if in.sets, err = core.NewSetBatch(in.lists, core.DefaultConfig()); err != nil {
		return nil, err
	}
	for _, p := range pairs {
		a, b := in.sets[p[0]], in.sets[p[1]]
		if a.Len() > b.Len() {
			a, b = b, a
		}
		in.pairs = append(in.pairs, qpair{a, b, count(p[0], p[1])})
	}
	return in, nil
}

func (in *layerInput) setsOf(idx []int, buf []*core.Set) []*core.Set {
	buf = buf[:0]
	for _, i := range idx {
		buf = append(buf, in.sets[i])
	}
	return buf
}

// runLedger runs the layer ledger for the named workload.
func runLedger(cfg config, workload string) (*result, error) {
	sc, err := newSearchCorpus(cfg)
	if err != nil {
		return nil, err
	}
	lg := &ledger{cfg: cfg, sc: sc, r: &result{env: map[string]string{}}, t0: time.Now()}
	in, err := layerInputOf(cfg, workload, sc)
	if err != nil {
		return nil, err
	}
	// The lower layers run first, so that the executors they time are made
	// before the planner step turns stats on and the serve step the planner.
	lg.exCore = core.NewExecutor()
	for _, step := range []func(*layerInput) error{lg.core, lg.pair, lg.kernels, lg.simd, lg.planner} {
		quiesce()
		if err := step(in); err != nil {
			return nil, err
		}
	}
	for _, step := range []func() error{lg.http, lg.serve, lg.shard} {
		quiesce()
		if err := step(); err != nil {
			return nil, err
		}
	}
	sum := lg.lateP50 + lg.selfP50 + lg.servAdded + lg.shardP50
	lg.r.add("ledger.reconcile_err_frac", math.Abs(sum-lg.e2eP50)/lg.e2eP50, "frac")
	b, err := json.Marshal(lg.spans)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(cfg.out, "spans.json"), b, 0o644); err != nil {
		return nil, err
	}
	return lg.r, nil
}

// http runs the 6000 queries/s open loop against a fresh fesiaserve and
// records a span per request and per server part. The spans are built
// afterwards from the timestamps the load generator takes anyway, so
// recording them adds nothing to the latencies. It also times loading the
// snapshot in process.
func (lg *ledger) http() error {
	path := filepath.Join(lg.cfg.out, fmt.Sprintf("snapshot-ledger-%d.fesia", os.Getpid()))
	defer os.Remove(path)
	if _, err := writeSnapshot(path, lg.sc.lists); err != nil {
		return err
	}
	quiesce()
	start := time.Now()
	if _, err := fesia.ReadCorpusFile(path); err != nil {
		return err
	}
	lg.r.add("snapshot.read_s", time.Since(start).Seconds(), "s")
	quiesce()

	srv, err := startServer(lg.cfg)
	if err != nil {
		return err
	}
	defer srv.stop()
	if err := srv.load(path, lg.sc); err != nil {
		return err
	}
	for k, v := range srv.env {
		lg.r.env[k] = v
	}
	c := newClient()
	defer c.CloseIdleConnections()
	t := &target{svc: srv}
	openLoop(c, t, lg.sc, steadyRate, until(lg.cfg.dur(0.05))) // warm-up
	ph := openLoop(c, t, lg.sc, steadyRate, until(lg.cfg.dur(0.3)))
	lg.r.attempted += ph.attempted
	lg.r.failed += ph.failed

	self := make([]float64, 0, len(ph.samples))
	for _, s := range ph.samples {
		at := func(ns float64) time.Time { return ph.start.Add(time.Duration(ns)) }
		id := lg.span("http", at(s.sent), at(s.done), -1, int(s.query))
		// The server reports only its duration; place it at the end of
		// the round trip, where the response follows it.
		lg.span("http.server", at(s.done-s.serverNs), at(s.done), id, int(s.query))
		self = append(self, s.done-s.sent-s.serverNs)
	}
	slices.Sort(self)
	lg.e2eP50 = quantile(ph.lat, 0.5) / 1e3
	lg.lateP50 = quantile(ph.late, 0.5) / 1e3
	lg.selfP50 = quantile(self, 0.5) / 1e3
	// The tail is too noisy on a two-core host to gate on (README.md), so it
	// is reported here rather than among the end-to-end metrics.
	lg.r.add("http.lat_p99_us", quantile(ph.lat, 0.99)/1e3, "us")
	lg.r.add("http.rtt_p50_us", quantile(ph.rtt, 0.5)/1e3, "us")
	lg.r.add("http.self_p50_us", lg.selfP50, "us")
	lg.r.add("http.gen_late_p50_us", lg.lateP50, "us")
	lg.r.add("http.gen_late_p99_us", quantile(ph.late, 0.99)/1e3, "us")
	return nil
}

// perQuery collects one duration per (round, query) and reduces each query
// to its median over rounds.
type perQuery [][]float64

func newPerQuery(n int) perQuery { return make(perQuery, n) }

func (p perQuery) add(q int, d time.Duration) { p[q] = append(p[q], float64(d.Nanoseconds())) }

func (p perQuery) medians() []float64 {
	out := make([]float64, len(p))
	for q, ds := range p {
		out[q] = median(ds)
	}
	return out
}

// serve queries an in-process Tier built like fesiaserve's (default shards
// and slots, tracing off, stats and the server's planner mode on).
func (lg *ledger) serve() error {
	fesia.EnableStats()
	switch lg.r.env["planner"] {
	case "prior":
		fesia.EnablePlanner(fesia.WithPlanner(fesia.PlannerPrior))
	case "learned":
		fesia.EnablePlanner(fesia.WithPlanner(fesia.PlannerLearned))
	}
	tier, err := serve.NewTier(lg.sc.lists, serve.Config{})
	if err != nil {
		return err
	}
	ctx := context.Background()
	defer tier.Shutdown(ctx)
	lg.r.env["slots"] = fmt.Sprint(tier.MaxConcurrent())
	// The shard layer's executors attach to stats and the planner as the
	// tier's own do.
	for range tier.NumShards() {
		lg.exShrd = append(lg.exShrd, core.NewExecutor())
	}
	start := time.Now()
	if _, err := tier.Swap(ctx, lg.sc.lists); err != nil {
		return err
	}
	lg.r.add("serve.swap_rebuild_s", time.Since(start).Seconds(), "s")

	before := fesia.Stats()
	times := newPerQuery(len(lg.sc.queries))
	for round := 0; round < ledgerRounds; round++ {
		for qi := range lg.sc.queries {
			q := &lg.sc.queries[qi]
			t0 := time.Now()
			n, err := tier.QueryCount(ctx, q.items...)
			t1 := time.Now()
			lg.check(err == nil && n == q.want)
			times.add(qi, t1.Sub(t0))
			if round == 0 {
				lg.span("serve", t0, t1, -1, qi)
			}
		}
	}
	lg.r.add("serve.hash_share", hashShare(before, fesia.Stats()), "frac")
	lg.servQuery = times.medians()
	lg.r.add("serve.query_p50_us", median(lg.servQuery)/1e3, "us")
	return nil
}

// hashShare is the share of the queries counted between two snapshots that
// took the hash strategy.
func hashShare(before, after fesia.StatsSnapshot) float64 {
	hash := after.Counter(fesia.CtrQueriesHash) - before.Counter(fesia.CtrQueriesHash)
	merge := after.Counter(fesia.CtrQueriesMerge) - before.Counter(fesia.CtrQueriesMerge)
	return float64(hash) / float64(max(hash+merge, 1))
}

// shard queries each doc%S shard's sets in turn on its own executor, as
// the tier's scatter parts do in parallel. The shard layer's time for a
// query is its slowest shard, the part the tier waits for.
func (lg *ledger) shard() error {
	ns := len(lg.exShrd)
	parts := make([][][]uint32, ns)
	for k := range parts {
		parts[k] = make([][]uint32, len(lg.sc.lists))
	}
	for item, docs := range lg.sc.lists {
		for _, d := range docs {
			k := int(d) % ns
			parts[k][item] = append(parts[k][item], d)
		}
	}
	shards := make([][]*core.Set, ns)
	for k := range parts {
		var err error
		if shards[k], err = core.NewSetBatch(parts[k], core.DefaultConfig()); err != nil {
			return err
		}
	}
	parts = nil
	ctx := context.Background()
	times := newPerQuery(len(lg.sc.queries))
	var imbalance []float64
	buf := make([]*core.Set, 0, 4)
	el := make([]time.Duration, ns)
	for round := 0; round < ledgerRounds; round++ {
		for qi := range lg.sc.queries {
			q := &lg.sc.queries[qi]
			total := 0
			var slowest, sum time.Duration
			t0 := time.Now()
			for k, ex := range lg.exShrd {
				buf = buf[:0]
				for _, it := range q.items {
					buf = append(buf, shards[k][it])
				}
				s := time.Now()
				var n int
				var err error
				if len(buf) == 2 {
					n, err = ex.CountCtx(ctx, buf[0], buf[1])
				} else {
					n, err = ex.CountKCtx(ctx, buf...)
				}
				el[k] = time.Since(s)
				lg.check(err == nil)
				total += n
				slowest, sum = max(slowest, el[k]), sum+el[k]
			}
			lg.check(total == q.want)
			times.add(qi, slowest)
			imbalance = append(imbalance, float64(slowest)*float64(ns)/float64(max(sum, 1)))
			if round == 0 {
				id := lg.span("shard", t0, time.Now(), -1, qi)
				at := t0
				for k := range el {
					lg.span(fmt.Sprintf("shard.%d", k), at, at.Add(el[k]), id, qi)
					at = at.Add(el[k])
				}
			}
		}
	}
	shardQ := times.medians()
	added := make([]float64, len(shardQ))
	for qi := range added {
		added[qi] = lg.servQuery[qi] - shardQ[qi]
	}
	lg.shardP50 = median(shardQ) / 1e3
	lg.servAdded = median(added) / 1e3
	lg.r.add("shard.query_p50_us", lg.shardP50, "us")
	lg.r.add("shard.imbalance", median(imbalance), "ratio")
	lg.r.add("serve.added_p50_us", lg.servAdded, "us")
	return nil
}

// core times each of the workload's queries through the entry point its
// system calls (layerInput.op).
func (lg *ledger) core(in *layerInput) error {
	mem, elems := 0, 0
	for _, s := range in.sets {
		mem += s.MemoryBytes()
		elems += s.Len()
	}
	lg.r.add("core.bytes_per_elem", float64(mem)/float64(max(elems, 1)), "B/elem")
	times := newPerQuery(len(in.queries))
	for round := 0; round < ledgerRounds; round++ {
		for qi := range in.queries {
			t0 := time.Now()
			ok := in.op(lg.exCore, qi)
			t1 := time.Now()
			lg.check(ok)
			times.add(qi, t1.Sub(t0))
			if round == 0 {
				lg.span("core", t0, t1, -1, qi)
			}
		}
	}
	lg.r.add("core.query_p50_us", median(times.medians())/1e3, "us")
	i := 0
	allocs := testing.AllocsPerRun(len(in.queries), func() {
		in.op(lg.exCore, i%len(in.queries))
		i++
	})
	lg.r.add("core.allocs_per_query", allocs, "count")
	return nil
}

// planner counts which strategy Count's default rule picks for each of the
// workload's pairs, on an executor attached to the stats with no planner
// model, as the in-process workloads run.
func (lg *ledger) planner(in *layerInput) error {
	fesia.EnableStats()
	ex := core.NewExecutor()
	before := fesia.Stats()
	for _, p := range in.pairs {
		lg.check(ex.Count(p.small, p.large) == p.want)
	}
	lg.r.add("planner.hash_share", hashShare(before, fesia.Stats()), "frac")
	return nil
}

// pair splits each of the workload's pairs into the merge strategy's filter
// and segment steps and the hash strategy's stage, touch and scan phases.
func (lg *ledger) pair(in *layerInput) error {
	var filter, segment, stage, touch, scan []float64
	var matches, segPairs, survivors, probes int
	for round := 0; round < ledgerRounds; round++ {
		for qi, p := range in.pairs {
			t0 := time.Now()
			m := lg.exCore.CountMergeBreakdown(p.small, p.large)
			h := lg.exCore.CountHashBreakdown(p.small, p.large)
			lg.check(m.Count == p.want && h.Count == p.want)
			filter = append(filter, float64(m.BitmapTime))
			segment = append(segment, float64(m.SegmentTime))
			stage = append(stage, float64(h.StageTime))
			touch = append(touch, float64(h.TouchTime))
			scan = append(scan, float64(h.ScanTime))
			matches += m.Count
			segPairs += m.SegPairs
			survivors += h.Survivors
			probes += h.Probes
			if round == 0 {
				id := lg.span("pair.merge", t0, t0.Add(m.BitmapTime+m.SegmentTime), -1, qi)
				lg.span("pair.filter", t0, t0.Add(m.BitmapTime), id, qi)
				lg.span("pair.segment", t0.Add(m.BitmapTime), t0.Add(m.BitmapTime+m.SegmentTime), id, qi)
			}
		}
	}
	lg.r.add("pair.filter_ns", median(filter), "ns")
	lg.r.add("pair.segment_ns", median(segment), "ns")
	lg.r.add("pair.match_per_segpair", float64(matches)/float64(max(segPairs, 1)), "ratio")
	lg.r.add("pair.hash_stage_ns", median(stage), "ns")
	lg.r.add("pair.hash_touch_ns", median(touch), "ns")
	lg.r.add("pair.hash_scan_ns", median(scan), "ns")
	lg.r.add("pair.hash_survival", float64(survivors)/float64(max(probes, 1)), "frac")
	return nil
}

// best runs f ledgerRounds times and returns its fastest time and the work
// units it reported.
func best(f func() int) (time.Duration, int) {
	var b time.Duration
	units := 0
	for round := 0; round < ledgerRounds; round++ {
		start := time.Now()
		units = f()
		if el := time.Since(start); round == 0 || el < b {
			b = el
		}
	}
	return b, units
}

// kernels replays each pair's dispatch trace (the segment-size pairs the
// merge step hands to kernels) through the default jump table and through
// the generic kernel, on synthetic segments of the traced sizes.
func (lg *ledger) kernels(in *layerInput) error {
	table := kernels.ForWidth(core.DefaultConfig().Width)
	var traces [][][2]int
	dispatches, maxSeg := 0, 0
	for _, p := range in.pairs {
		tr := core.DispatchTrace(p.small, p.large)
		traces = append(traces, tr)
		dispatches += len(tr)
		for _, d := range tr {
			maxSeg = max(maxSeg, d[0], d[1])
		}
	}
	// Segment a of size n holds multiples of 2, segment b multiples of 3.
	segA, segB := make([][]uint32, maxSeg+1), make([][]uint32, maxSeg+1)
	for n := range segA {
		for i := 0; i < n; i++ {
			segA[n] = append(segA[n], uint32(2*i))
			segB[n] = append(segB[n], uint32(3*i))
		}
	}
	replay := func(count func(a, b []uint32) int) (time.Duration, int) {
		return best(func() int {
			total := 0
			for _, tr := range traces {
				for _, d := range tr {
					total += count(segA[d[0]], segB[d[1]])
				}
			}
			return total
		})
	}
	tTable, nTable := replay(table.Count)
	tGeneric, nGeneric := replay(kernels.GenericCount)
	lg.check(nTable == nGeneric)
	// Entries with both sides in 1..8 run the AVX2 routine, and with AVX-512
	// both sides up to 16 (internal/kernels/asmpatch.go).
	asmMax := 0
	switch {
	case !kernels.AsmKernelsActive():
	case simd.Avx512Active():
		asmMax = 16
	case simd.AsmActive():
		asmMax = 8
	}
	asm := 0
	for _, tr := range traces {
		for _, d := range tr {
			if d[0] >= 1 && d[1] >= 1 && d[0] <= asmMax && d[1] <= asmMax {
				asm++
			}
		}
	}
	n := float64(max(dispatches, 1))
	lg.r.add("kernels.dispatches_per_pair", float64(dispatches)/float64(len(traces)), "count")
	lg.r.add("kernels.ns_per_dispatch", float64(tTable.Nanoseconds())/n, "ns")
	lg.r.add("kernels.generic_ns_per_dispatch", float64(tGeneric.Nanoseconds())/n, "ns")
	lg.r.add("kernels.asm_share", float64(asm)/n, "frac")
	return nil
}

// simd times the routines under the pair strategies on each pair's real
// shapes: the filter's AndSegMasks over the two bitmaps (rebuilt from the
// elements with the sets' hash), the hash probe's Contains on the segment
// each small-set element hashes to, and the gathered ProbeStage. The merge
// path uses AndSegMasks only where the smaller bitmap has at least
// simd.BlockWords words and the larger twice that (internal/core/batch.go),
// so its time covers those pairs and reads 0 when there are none.
func (lg *ledger) simd(in *layerInput) error {
	cfg := core.DefaultConfig()
	h := hashutil.New(cfg.Seed)
	bitmaps := map[*core.Set][]uint64{}
	words := func(s *core.Set) []uint64 {
		if w, ok := bitmaps[s]; ok {
			return w
		}
		bm := bitmap.New(s.BitmapBits(), cfg.SegBits)
		for _, x := range s.Elements() {
			bm.Set(h.Pos(x, s.BitmapBits()))
		}
		bitmaps[s] = bm.Words()
		return bm.Words()
	}
	type shape struct {
		small  []uint32
		smallW []uint64
		large  *core.Set
		largeW []uint64
		want   int
	}
	var shapes []shape
	for _, p := range in.pairs {
		if p.small.Rep() != core.RepSegmented || p.large.Rep() != core.RepSegmented {
			continue
		}
		shapes = append(shapes, shape{p.small.Elements(), words(p.small), p.large, words(p.large), p.want})
	}
	if len(shapes) == 0 {
		return fmt.Errorf("no segmented pairs")
	}
	segShift := uint(simd.Tzcnt32(uint32(cfg.SegBits)))

	var ands [][2][]uint64 // the larger bitmap, then the smaller
	for _, s := range shapes {
		x, y := s.largeW, s.smallW
		if len(x) < len(y) {
			x, y = y, x
		}
		if len(y) >= simd.BlockWords && len(x) >= 2*simd.BlockWords {
			ands = append(ands, [2][]uint64{x, y})
		}
	}
	var masks []uint32
	tAnd, words64 := best(func() int {
		n := 0
		for _, a := range ands {
			x, y := a[0], a[1]
			masks = slices.Grow(masks[:0], len(x)/simd.BlockWords)[:len(x)/simd.BlockWords]
			simd.AndSegMasksWrap(masks, x, y, 0, cfg.SegBits)
			n += len(x)
		}
		return n
	})
	andNs := 0.0
	if words64 > 0 {
		andNs = float64(tAnd.Nanoseconds()) * 1000 / float64(words64)
	}
	lg.r.add("simd.andsegmasks_ns_per_kword", andNs, "ns")

	found := 0
	tContains, probesN := best(func() int {
		n := 0
		found = 0
		for _, s := range shapes {
			bits := s.large.BitmapBits()
			for _, x := range s.small {
				if simd.Contains(s.large.Segment(int(h.Pos(x, bits)>>segShift)), x) {
					found++
				}
				n++
			}
		}
		return n
	})
	want := 0
	for _, s := range shapes {
		want += s.want
	}
	lg.check(found == want)
	lg.r.add("simd.contains_ns", float64(tContains.Nanoseconds())/float64(max(probesN, 1)), "ns")

	// The gathered stage takes whole groups of elements; the rest, and all
	// of them without the AVX-512 rung, go through the scalar loop it
	// replaces, as in the hash path.
	outE := make([]uint32, simd.ProbeStageBlock)
	outP := make([]uint32, simd.ProbeStageBlock)
	tProbe, probed := best(func() int {
		n := 0
		for _, s := range shapes {
			bits := s.large.BitmapBits()
			for lo := 0; lo < len(s.small); lo += simd.ProbeStageBlock {
				blk := s.small[lo:min(lo+simd.ProbeStageBlock, len(s.small))]
				used := 0
				if simd.GatherProbeActive() && bits <= 1<<32 {
					_, used = simd.ProbeStage(blk, s.largeW, cfg.Seed, bits-1, outE, outP)
				}
				for i, x := range blk[used:] {
					p := h.Pos(x, bits)
					outE[i] = uint32(s.largeW[p>>6] >> (p & 63) & 1)
				}
				n += len(blk)
			}
		}
		return n
	})
	lg.r.add("simd.probestage_ns_per_elem", float64(tProbe.Nanoseconds())/float64(max(probed, 1)), "ns")
	return nil
}
