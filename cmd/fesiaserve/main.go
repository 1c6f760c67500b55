// Command fesiaserve is the HTTP serving front-end over the inverted-index
// workload (Section VII-F): conjunctive keyword queries answered by a
// serve.Tier — the query run on the request's own goroutine, with admission
// control, latency-driven load shedding, hot corpus swaps, and graceful
// shutdown — rather than a bare index.
//
// Two listeners split the traffic classes: the public address serves only
// /query and the landing page, while -admin carries everything operational
// (/metrics, /debug/vars, /debug/pprof/, /admin/swap), so profiling and swap
// endpoints are never exposed where query traffic is. Neither listener uses
// http.DefaultServeMux.
//
//	fesiaserve -load 4 &
//	curl 'localhost:8080/query?items=3,17'      # one conjunctive query
//	curl -H 'X-Fesia-Deadline-Ms: 5' \
//	     'localhost:8080/query?rand=3'          # per-request deadline override
//	curl localhost:8081/metrics                 # Prometheus text format
//	curl -X POST 'localhost:8081/admin/swap?seed=9'  # hot corpus swap
//	go tool pprof localhost:8081/debug/pprof/profile
//
// SIGTERM (or SIGINT) shuts down gracefully: the public listener stops
// admitting, in-flight queries drain, a final stats summary is logged, and
// only then does the process exit.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"net/http/pprof"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"fesia"
	"fesia/internal/datasets"
	"fesia/internal/serve"
	"fesia/internal/trace"
)

// serverConfig sizes the demo corpus and shapes the serving tier.
type serverConfig struct {
	docs    int
	items   int
	meanLen int
	seed    int64
	timeout time.Duration // default per-query deadline (header-overridable)
	tier    serve.Config
}

// server owns the serving tier and the corpus parameters needed to rebuild
// it for seed-based hot swaps.
type server struct {
	cfg       serverConfig
	tier      *serve.Tier
	queryable []uint32 // items with a non-trivial posting list

	// queryOverride is a test hook standing in for tier.QueryCount — how the
	// HTTP tests exercise rejection paths the tier only produces under load.
	queryOverride func(ctx context.Context, items ...uint32) (int, error)
}

// corpusLists renders a generated corpus as the tier's input shape: one
// posting list per item id over the whole universe.
func corpusLists(cfg serverConfig, seed int64) [][]uint32 {
	corpus := datasets.NewCorpus(datasets.CorpusConfig{
		NumDocs:  cfg.docs,
		NumItems: cfg.items,
		MeanLen:  cfg.meanLen,
		Seed:     seed,
	})
	lists := make([][]uint32, cfg.items)
	for item, lst := range corpus.Postings {
		if int(item) < len(lists) {
			lists[item] = lst
		}
	}
	return lists
}

// newServer enables the process-wide stats sink (before any executor exists,
// so the tier's executors are instrumented), builds the corpus, and raises
// the serving tier.
func newServer(cfg serverConfig) (*server, error) {
	fesia.EnableStats()
	if cfg.timeout <= 0 {
		cfg.timeout = time.Second
	}
	lists := corpusLists(cfg, cfg.seed)
	tier, err := serve.NewTier(lists, cfg.tier)
	if err != nil {
		return nil, err
	}
	s := &server{cfg: cfg, tier: tier}
	for item, lst := range lists {
		if len(lst) >= 8 {
			s.queryable = append(s.queryable, uint32(item))
		}
	}
	if len(s.queryable) < 16 {
		tier.Shutdown(context.Background())
		return nil, fmt.Errorf("fesiaserve: corpus too small: only %d queryable items", len(s.queryable))
	}
	sort.Slice(s.queryable, func(i, j int) bool { return s.queryable[i] < s.queryable[j] })
	return s, nil
}

// registerServing mounts the public surface: queries and the landing page,
// nothing operational.
func (s *server) registerServing(mux *http.ServeMux) {
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/", s.handleIndex)
}

// registerAdmin mounts the operational surface on the admin listener:
// metrics, expvar, pprof and the swap endpoint. Handlers are mounted
// explicitly — no DefaultServeMux, so nothing rides along unasked.
func (s *server) registerAdmin(mux *http.ServeMux) {
	mux.Handle("/metrics", fesia.StatsHandler())
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/admin/swap", s.handleSwap)
	if tr := s.tier.Tracer(); tr != nil {
		mux.Handle("/debug/traces", tr.Handler())
		mux.Handle("/debug/slow", tr.SlowHandler())
	}
}

func (s *server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	fmt.Fprintf(w, `fesiaserve: conjunctive-query tier, generation %d
  /query?items=a,b,...  conjunctive document count (comma-separated item IDs)
  /query?rand=k         random k-keyword query from the corpus
  X-Fesia-Deadline-Ms   per-request deadline override (header)
  X-Fesia-Trace: 1      force trace capture; span breakdown in the response
admin listener:
  /metrics              Prometheus text format
  /debug/vars           expvar JSON (key "fesia")
  /debug/traces         recent retained query traces (JSON)
  /debug/slow           slow-query log with full span breakdowns (JSON)
  /debug/pprof/         pprof index
  /admin/swap           POST ?seed=N or ?file=PATH: hot corpus swap
`, s.tier.Generation())
}

// queryDeadline resolves the per-request deadline: the X-Fesia-Deadline-Ms
// header (integer milliseconds, capped at 10 minutes) when present, the
// server's -timeout otherwise.
func (s *server) queryDeadline(r *http.Request) (time.Duration, error) {
	h := r.Header.Get("X-Fesia-Deadline-Ms")
	if h == "" {
		return s.cfg.timeout, nil
	}
	ms, err := strconv.ParseInt(h, 10, 64)
	if err != nil || ms < 1 || ms > 600_000 {
		return 0, fmt.Errorf("X-Fesia-Deadline-Ms must be an integer in [1, 600000]")
	}
	return time.Duration(ms) * time.Millisecond, nil
}

// statusForError maps tier errors to HTTP statuses: overload and shutdown to
// 503 (retryable elsewhere), expired deadlines to 504, the rest to 500.
func statusForError(err error) int {
	switch {
	case errors.Is(err, serve.ErrOverload), errors.Is(err, serve.ErrShuttingDown):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout
	default:
		return http.StatusInternalServerError
	}
}

// retryAfterFor maps an overload flavor to a jittered Retry-After value in
// whole seconds, so clients rejected together do not re-converge on the same
// instant: shedding (latency-driven, recovers on a control-loop timescale)
// backs off longest, a full queue less, an expired wait budget least.
func retryAfterFor(err error) string {
	var oe *serve.OverloadError
	if !errors.As(err, &oe) {
		return "1"
	}
	var base, jitter int
	switch oe.Reason {
	case serve.ReasonShed:
		base, jitter = 2, 3
	case serve.ReasonQueueFull:
		base, jitter = 1, 2
	default: // ReasonQueueWait
		base, jitter = 1, 1
	}
	return strconv.Itoa(base + rand.Intn(jitter))
}

// handleQuery answers one conjunctive query through the full serving path —
// shedding, admission, the query — bounded by the request context plus the
// resolved deadline.
func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var items []uint32
	switch {
	case r.URL.Query().Get("rand") != "":
		k, err := strconv.Atoi(r.URL.Query().Get("rand"))
		if err != nil || k < 1 || k > 16 {
			http.Error(w, "rand must be an integer in [1, 16]", http.StatusBadRequest)
			return
		}
		rng := rand.New(rand.NewSource(time.Now().UnixNano()))
		items = s.sampleItems(rng, k)
	case r.URL.Query().Get("items") != "":
		for _, f := range strings.Split(r.URL.Query().Get("items"), ",") {
			v, err := strconv.ParseUint(strings.TrimSpace(f), 10, 32)
			if err != nil {
				http.Error(w, "items must be comma-separated uint32 IDs", http.StatusBadRequest)
				return
			}
			items = append(items, uint32(v))
		}
	default:
		http.Error(w, "need ?items=a,b,... or ?rand=k", http.StatusBadRequest)
		return
	}
	deadline, err := s.queryDeadline(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), deadline)
	defer cancel()
	start := time.Now()
	var n int
	var capd *trace.Captured
	switch {
	case s.queryOverride != nil:
		n, err = s.queryOverride(ctx, items...)
	case r.Header.Get("X-Fesia-Trace") == "1":
		n, capd, err = s.tier.QueryCountTraced(ctx, items...)
	default:
		n, err = s.tier.QueryCount(ctx, items...)
	}
	if err != nil {
		if errors.Is(err, serve.ErrOverload) {
			w.Header().Set("Retry-After", retryAfterFor(err))
		}
		http.Error(w, err.Error(), statusForError(err))
		return
	}
	resp := map[string]any{
		"items":      items,
		"count":      n,
		"elapsed_us": time.Since(start).Microseconds(),
		"generation": s.tier.Generation(),
	}
	if capd != nil {
		resp["trace"] = capd
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// handleSwap hot-swaps the corpus under live traffic: ?file=PATH loads a
// snapshot written by fesiabench/WriteCorpus, ?seed=N regenerates the
// synthetic corpus with a new seed (same dimensions). Either way the build is
// all-or-nothing — a failed load leaves the old corpus serving and returns
// the error.
func (s *server) handleSwap(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), time.Minute)
	defer cancel()
	start := time.Now()
	var gen uint64
	var err error
	switch {
	case r.URL.Query().Get("file") != "":
		gen, err = s.tier.SwapFromFile(ctx, r.URL.Query().Get("file"))
	case r.URL.Query().Get("seed") != "":
		var seed int64
		seed, err = strconv.ParseInt(r.URL.Query().Get("seed"), 10, 64)
		if err != nil {
			http.Error(w, "seed must be an integer", http.StatusBadRequest)
			return
		}
		gen, err = s.tier.Swap(ctx, corpusLists(s.cfg, seed))
	default:
		http.Error(w, "need ?file=PATH or ?seed=N", http.StatusBadRequest)
		return
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	log.Printf("swapped corpus to generation %d in %v", gen, time.Since(start).Round(time.Millisecond))
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"generation": gen,
		"elapsed_ms": time.Since(start).Milliseconds(),
	})
}

// sampleItems draws k distinct queryable items.
func (s *server) sampleItems(rng *rand.Rand, k int) []uint32 {
	items := make([]uint32, 0, k)
	seen := make(map[uint32]bool, k)
	for len(items) < k {
		it := s.queryable[rng.Intn(len(s.queryable))]
		if !seen[it] {
			seen[it] = true
			items = append(items, it)
		}
	}
	return items
}

// runQueries drives n mixed 2-4 keyword queries through the serving tier —
// the same admission/shedding/scatter path HTTP requests take. Overload and
// deadline outcomes are expected under pressure and simply counted by the
// tier's stats.
func (s *server) runQueries(rng *rand.Rand, n int) {
	for i := 0; i < n; i++ {
		items := s.sampleItems(rng, 2+i%3)
		ctx, cancel := context.WithTimeout(context.Background(), s.cfg.timeout)
		_, err := s.tier.QueryCount(ctx, items...)
		cancel()
		if err != nil && !errors.Is(err, serve.ErrOverload) &&
			!errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, serve.ErrShuttingDown) {
			log.Printf("query %v: %v", items, err)
		}
	}
}

// startLoad runs `workers` background query loops until ctx is cancelled,
// pausing `delay` between 64-query batches.
func (s *server) startLoad(ctx context.Context, workers int, delay time.Duration) {
	for w := 0; w < workers; w++ {
		go func(seed int64) {
			rng := rand.New(rand.NewSource(seed))
			for ctx.Err() == nil {
				s.runQueries(rng, 64)
				if delay > 0 {
					time.Sleep(delay)
				}
			}
		}(s.cfg.seed + int64(w) + 1)
	}
}

// logFinalStats flushes the serving counters to the log — the last thing a
// graceful shutdown does, so a scrape gap never loses the totals.
func logFinalStats() {
	snap := fesia.Stats()
	log.Printf("final stats: admitted=%d rejected=%d shed=%d deadline_expiries=%d swaps=%d swap_errors=%d p99=%v",
		snap.Counter(fesia.CtrServeAdmitted),
		snap.Counter(fesia.CtrServeRejected),
		snap.Counter(fesia.CtrServeShed),
		snap.Counter(fesia.CtrServeDeadline),
		snap.Counter(fesia.CtrServeSwaps),
		snap.Counter(fesia.CtrServeSwapErrors),
		snap.Latency(fesia.LatServe).Quantile(0.99))
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("fesiaserve: ")
	addr := flag.String("addr", ":8080", "public listen address (queries only)")
	adminAddr := flag.String("admin", ":8081", "admin listen address (metrics, pprof, swap); empty disables")
	docs := flag.Int("docs", 50_000, "corpus size in documents")
	items := flag.Int("items", 100_000, "corpus item-ID universe")
	meanLen := flag.Int("meanlen", 40, "mean items per document")
	seed := flag.Int64("seed", 1, "corpus seed")
	load := flag.Int("load", 0, "background load-generator workers (0 = none)")
	delay := flag.Duration("delay", 5*time.Millisecond, "load-generator pause between 64-query batches")
	timeout := flag.Duration("timeout", time.Second, "default per-query deadline (X-Fesia-Deadline-Ms overrides)")
	maxConc := flag.Int("maxconc", 0, "max concurrent queries (0 = 2x GOMAXPROCS)")
	maxQueue := flag.Int("maxqueue", 0, "admission queue depth (0 = 2x maxconc)")
	queueWait := flag.Duration("queuewait", 0, "admission queue wait budget (0 = 50ms)")
	shedTarget := flag.Duration("shedtarget", 0, "p99 target steering the load shedder (0 = 25ms, negative disables)")
	traceSample := flag.Int("tracesample", 64, "trace head-sampling period: retain one query in N per slot (0 disables)")
	slowLog := flag.Duration("slowlog", 20*time.Millisecond, "slow-query threshold: queries at or above are captured in full (0 disables)")
	flag.Parse()

	log.Printf("building corpus (%d docs, %d items)...", *docs, *items)
	s, err := newServer(serverConfig{
		docs: *docs, items: *items, meanLen: *meanLen, seed: *seed, timeout: *timeout,
		tier: serve.Config{
			MaxConcurrent: *maxConc,
			MaxQueue:      *maxQueue,
			MaxQueueWait:  *queueWait,
			ShedTargetP99: *shedTarget,
			TraceSample:   *traceSample,
			SlowQuery:     *slowLog,
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	fesia.PublishStatsExpvar("fesia")

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if *load > 0 {
		log.Printf("starting %d load workers", *load)
		s.startLoad(ctx, *load, *delay)
	}

	servingMux := http.NewServeMux()
	s.registerServing(servingMux)
	serving := &http.Server{Addr: *addr, Handler: servingMux}
	go func() {
		if err := serving.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
	}()
	var admin *http.Server
	if *adminAddr != "" {
		adminMux := http.NewServeMux()
		s.registerAdmin(adminMux)
		admin = &http.Server{Addr: *adminAddr, Handler: adminMux}
		go func() {
			if err := admin.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Fatal(err)
			}
		}()
	}
	traceInfo := "off"
	if tr := s.tier.Tracer(); tr != nil {
		traceInfo = fmt.Sprintf("sample=1/%d slow=%v", tr.SampleN(), tr.SlowThreshold())
	}
	// bench/http.go reads the "planner off, N shards" fragment.
	log.Printf("serving on %s, admin on %s (backend %s, planner off, %d shards, tracing %s)",
		*addr, *adminAddr, fesia.Backend(), s.tier.NumShards(), traceInfo)

	<-ctx.Done()
	log.Printf("signal received; draining...")
	sctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := serving.Shutdown(sctx); err != nil {
		log.Printf("public listener shutdown: %v", err)
	}
	if err := s.tier.Shutdown(sctx); err != nil {
		log.Printf("tier shutdown: %v", err)
	}
	logFinalStats()
	if admin != nil {
		if err := admin.Shutdown(sctx); err != nil {
			log.Printf("admin listener shutdown: %v", err)
		}
	}
	log.Printf("shutdown complete")
}
