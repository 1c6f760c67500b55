package main

import (
	"bufio"
	"context"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"fesia"
)

// search-http and the ledger's http layer run the real fesiaserve binary on
// loopback and load it from this process over at most nproc keep-alive
// connections, so the generator never has more requests in flight than the
// host has cores. search-http's reference is the reference service, a plain
// net/http process answering the same requests with the scalar count, loaded
// the same way in alternating slices.

const (
	steadyRate = 6000                 // search-http's fixed rate, queries/s
	latLimit   = 5 * time.Millisecond // an answer later than this after its due time misses
	spinWindow = 300 * time.Microsecond
	httpSlice  = 250 * time.Millisecond
)

// proc is a child process the benchmark started and must stop.
type proc struct {
	cmd    *exec.Cmd
	exited chan struct{} // closed once the process has exited
}

func startProc(cmd *exec.Cmd) (*proc, error) {
	// A child must not outlive the benchmark, even one that is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &proc{cmd: cmd, exited: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status of a stopped child carries no information
		close(p.exited)
	}()
	return p, nil
}

// stop sends SIGTERM and waits for the process to exit, killing it if the
// graceful shutdown takes over 30 seconds.
func (p *proc) stop() {
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-p.exited:
	case <-time.After(30 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.exited
	}
}

// service is one HTTP service the benchmark started, fesiaserve or the
// reference: it answers /query, and a POST of ?file= to swapURL hot-swaps
// that corpus file in and answers with the new generation.
type service struct {
	*proc
	url     string // where /query is served
	swapURL string
	ctl     *http.Client
	gen     uint64            // generation of the last swap
	env     map[string]string // what the service reported about its settings
}

func (s *service) stop() {
	s.ctl.CloseIdleConnections()
	s.proc.stop()
}

// load swaps the corpus file at path in and waits for the first correct
// answer to the first query. The generation must advance by one.
func (s *service) load(path string, sc *searchCorpus) error {
	abs, err := filepath.Abs(path)
	if err != nil {
		return err
	}
	resp, err := s.ctl.Post(s.swapURL+"?file="+url.QueryEscape(abs), "", nil)
	if err != nil {
		return fmt.Errorf("swap: %w", err)
	}
	body, err := readAll(resp.Body)
	if err != nil {
		return fmt.Errorf("swap: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("swap: status %d: %s", resp.StatusCode, body)
	}
	var r struct {
		Generation uint64 `json:"generation"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("swap: %w", err)
	}
	if r.Generation != s.gen+1 {
		return fmt.Errorf("swap produced generation %d, want %d", r.Generation, s.gen+1)
	}
	s.gen = r.Generation
	q := &sc.queries[0]
	a, err := ask(s.ctl, s.url, q)
	if err != nil {
		return err
	}
	if a.Count != q.want || a.Generation != s.gen {
		return fmt.Errorf("first query: count %d generation %d, want %d generation %d", a.Count, a.Generation, q.want, s.gen)
	}
	return nil
}

var serveLine = regexp.MustCompile(`planner (\w+), (\d+) shards`)

// startServer launches fesiaserve with tracing off and default shards,
// slots and planner, and returns once both listeners answer. The start-up
// corpus is shrunk to a token size because each run swaps its own snapshot
// in. The load shedder is off: nproc connections cannot overload
// the tier, but the shedder reads a hot swap's latency spike as overload and
// refused 47 of 37,500 queries in one run with swaps under load, and a
// refused query is a failed operation.
func startServer(cfg config) (*service, error) {
	pub, err := freeAddr()
	if err != nil {
		return nil, err
	}
	adm, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logPath := filepath.Join(cfg.out, "fesiaserve.log")
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(cfg.server, "-addr", pub, "-admin", adm,
		"-tracesample", "0", "-slowlog", "0", "-shedtarget", "-1ns", "-docs", "2000", "-items", "2000")
	cmd.Stdout, cmd.Stderr = logf, logf
	p, err := startProc(cmd)
	if err != nil {
		return nil, fmt.Errorf("starting fesiaserve: %w", err)
	}
	s := &service{proc: p, url: "http://" + pub, swapURL: "http://" + adm + "/admin/swap",
		ctl: &http.Client{Timeout: 2 * time.Minute}}
	deadline := time.Now().Add(30 * time.Second)
	for !answers(s.ctl, s.url+"/") || !answers(s.ctl, "http://"+adm+"/metrics") {
		select {
		case <-s.exited:
			return nil, fmt.Errorf("fesiaserve exited during start-up, see %s", logPath)
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("fesiaserve did not start within 30s, see %s", logPath)
		}
	}
	s.env = map[string]string{"planner": "unknown", "shards": "unknown"}
	if b, err := os.ReadFile(logPath); err == nil {
		if m := serveLine.FindSubmatch(b); m != nil {
			s.env["planner"], s.env["shards"] = string(m[1]), string(m[2])
		}
	}
	return s, nil
}

func answers(c *http.Client, u string) bool {
	resp, err := c.Get(u)
	if err != nil {
		return false
	}
	_, _ = readAll(resp.Body)
	return resp.StatusCode == http.StatusOK
}

func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// refServeEnv, when set, makes the benchmark binary run as the reference
// service instead (see serveRef).
const refServeEnv = "FESIA_BENCH_REF_SERVE"

// startRef starts the benchmark binary as the reference service, with no
// corpus yet, and reads its address from its output.
func startRef() (*service, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self)
	cmd.Env = append(os.Environ(), refServeEnv+"=1")
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	p, err := startProc(cmd)
	if err != nil {
		return nil, fmt.Errorf("starting the reference service: %w", err)
	}
	addr, err := bufio.NewReader(out).ReadString('\n')
	if err != nil {
		p.stop()
		return nil, fmt.Errorf("starting the reference service: %w", err)
	}
	base := "http://" + strings.TrimSpace(addr)
	return &service{proc: p, url: base, swapURL: base + "/swap", ctl: &http.Client{Timeout: 2 * time.Minute}}, nil
}

// refCorpus is one generation of the reference's corpus.
type refCorpus struct {
	lists [][]uint32
	idx   *refIndex
	gen   uint64
}

// loadRef is the reference's load or hot swap: it reads a lists file written
// by writeLists and builds the reference index (buildIndex), so that loading
// does the kind of work fesiaserve's does; the queries use the lists. The
// result is the generation after prev, or the first if prev is nil.
func loadRef(path string, prev *refCorpus) (*refCorpus, error) {
	lists, err := readLists(path)
	if err != nil {
		return nil, err
	}
	next := &refCorpus{lists: lists, idx: buildIndex(lists), gen: 1}
	if prev != nil {
		next.gen = prev.gen + 1
	}
	return next, nil
}

// serveRef is the reference service. It serves /query like fesiaserve, with
// the scalar count over the corpus lists, and /swap?file= to load a lists
// file (loadRef), on a free loopback port whose address it prints, and
// returns on SIGTERM.
func serveRef() error {
	var cur atomic.Pointer[refCorpus]
	var swapMu sync.Mutex
	counters := sync.Pool{New: func() any { return new(scalar) }}
	mux := http.NewServeMux()
	mux.HandleFunc("/query", func(w http.ResponseWriter, r *http.Request) {
		c := cur.Load()
		if c == nil {
			http.Error(w, "no corpus loaded", http.StatusServiceUnavailable)
			return
		}
		var items []uint32
		var ls [][]uint32
		for _, f := range strings.Split(r.URL.Query().Get("items"), ",") {
			v, err := strconv.ParseUint(f, 10, 32)
			if err != nil || v >= uint64(len(c.lists)) {
				http.Error(w, "items must be comma-separated item ids", http.StatusBadRequest)
				return
			}
			items = append(items, uint32(v))
			ls = append(ls, c.lists[v])
		}
		start := time.Now()
		s := counters.Get().(*scalar)
		n := s.count(ls)
		counters.Put(s)
		writeJSON(w, map[string]any{
			"items":      items,
			"count":      n,
			"elapsed_us": time.Since(start).Microseconds(),
			"generation": c.gen,
		})
	})
	mux.HandleFunc("/swap", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		swapMu.Lock()
		defer swapMu.Unlock()
		next, err := loadRef(r.URL.Query().Get("file"), cur.Load())
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		cur.Store(next)
		writeJSON(w, map[string]any{"generation": next.gen})
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: mux}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		_ = srv.Close() // nothing is in flight once the benchmark stops the service
	}()
	fmt.Println(l.Addr())
	if err := srv.Serve(l); !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v) // a failed write shows as the client's error
}

// corpusFiles is one version of the search corpus as each service loads it:
// a fesia snapshot for fesiaserve and a lists file for the reference.
type corpusFiles struct {
	snap, lists string
}

func (f corpusFiles) remove() {
	os.Remove(f.snap)
	os.Remove(f.lists)
}

// writeCorpusFiles writes lists as both files under the output directory,
// and returns them and the built sets' bytes per element.
func writeCorpusFiles(cfg config, name string, lists [][]uint32) (corpusFiles, float64, error) {
	base := filepath.Join(cfg.out, fmt.Sprintf("corpus-%s-%d", name, os.Getpid()))
	f := corpusFiles{base + ".fesia", base + ".lists"}
	bpe, err := writeSnapshot(f.snap, lists)
	if err != nil {
		return f, 0, err
	}
	return f, bpe, writeLists(f.lists, lists)
}

// writeSnapshot builds lists into sets, writes them as a fesia snapshot and
// returns their bytes per element.
func writeSnapshot(path string, lists [][]uint32) (float64, error) {
	sets, err := fesia.BuildBatch(lists)
	if err != nil {
		return 0, err
	}
	return bytesPerElem(sets), fesia.WriteCorpusFile(path, sets)
}

func writeLists(path string, lists [][]uint32) error {
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(file)
	err = gob.NewEncoder(w).Encode(lists)
	if err == nil {
		err = w.Flush()
	}
	if cerr := file.Close(); err == nil {
		err = cerr
	}
	return err
}

func readLists(path string) ([][]uint32, error) {
	file, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer file.Close()
	var lists [][]uint32
	err = gob.NewDecoder(bufio.NewReader(file)).Decode(&lists)
	return lists, err
}

// startServices brings up fesiaserve and the reference service holding
// files, several times each in alternation, and times each from launch
// through loading the corpus to the first correct answer.
func startServices(cfg config, sc *searchCorpus, files corpusFiles) (sys, ref *service, su setups, err error) {
	release := func(isSys bool) {
		switch {
		case isSys && sys != nil:
			sys.stop()
			sys = nil
		case !isSys && ref != nil:
			ref.stop()
			ref = nil
		}
	}
	su, err = pairedSetups(release,
		func() error {
			if sys, err = startServer(cfg); err != nil {
				return err
			}
			return sys.load(files.snap, sc)
		},
		func() error {
			if ref, err = startRef(); err != nil {
				return err
			}
			return ref.load(files.lists, sc)
		})
	if err != nil {
		release(true)
		release(false)
		return nil, nil, setups{}, err
	}
	return sys, ref, su, nil
}

// answer is the part of a /query response the benchmark checks.
type answer struct {
	Count      int    `json:"count"`
	ElapsedUs  int64  `json:"elapsed_us"` // the server's own time for the query
	Generation uint64 `json:"generation"`
}

func newClient() *http.Client {
	conns := runtime.NumCPU()
	return &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

func ask(c *http.Client, base string, q *query) (answer, error) {
	resp, err := c.Get(base + "/query?items=" + q.param)
	if err != nil {
		return answer{}, err
	}
	body, err := readAll(resp.Body)
	if err != nil {
		return answer{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return answer{}, fmt.Errorf("status %d: %s", resp.StatusCode, body)
	}
	var a answer
	err = json.Unmarshal(body, &a)
	return a, err
}

// target is one service under load and where in the query trace its next
// request starts.
type target struct {
	svc *service
	off int
}

// sample is one request of an open loop; times are ns since the loop began.
type sample struct {
	query           int32
	due, sent, done float64
	serverNs        float64 // the server's own elapsed time
	ok              bool
}

// phase is one open-loop run.
type phase struct {
	samples           []sample  // in due order
	start             time.Time // when the samples' clock began
	lat, late, rtt    []float64 // ns from due, due to send, send to answer; sorted
	attempted, failed int
	goodput           float64 // correct answers within latLimit of their due time, per second
}

// openLoop offers rate queries per second from sc's trace to t until over
// reports true for a request's due time. Requests fall due on a fixed
// schedule whatever the server does, and nproc workers send them, so a slow
// server makes later requests late rather than fewer. It returns once every
// request sent has been answered.
func openLoop(c *http.Client, t *target, sc *searchCorpus, rate float64, over func(due time.Duration) bool) phase {
	conns := runtime.NumCPU()
	var next atomic.Int64
	per := make([][]sample, conns)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				due := time.Duration(float64(i) * 1e9 / rate)
				if i > 0 && over(due) {
					return
				}
				waitUntil(start.Add(due))
				qi := sc.trace[(t.off+int(i))%traceLen]
				sent := time.Since(start)
				a, err := ask(c, t.svc.url, &sc.queries[qi])
				done := time.Since(start)
				per[w] = append(per[w], sample{qi, float64(due), float64(sent), float64(done),
					float64(a.ElapsedUs * 1000), err == nil && a.Count == sc.queries[qi].want})
			}
		}(w)
	}
	wg.Wait()
	all := slices.Concat(per...)
	slices.SortFunc(all, func(a, b sample) int { return int(a.due - b.due) })
	t.off += len(all)

	p := phase{samples: all, start: start, attempted: len(all)}
	good := 0
	for _, x := range all {
		p.lat = append(p.lat, x.done-x.due)
		p.late = append(p.late, x.sent-x.due)
		p.rtt = append(p.rtt, x.done-x.sent)
		switch {
		case !x.ok:
			p.failed++
		case x.done-x.due <= float64(latLimit):
			good++
		}
	}
	slices.Sort(p.lat)
	slices.Sort(p.late)
	slices.Sort(p.rtt)
	// The requests fell due over len(all)/rate seconds.
	p.goodput = rate * float64(good) / float64(len(all))
	return p
}

// until returns an openLoop bound that ends the loop after d.
func until(d time.Duration) func(time.Duration) bool {
	return func(due time.Duration) bool { return due >= d }
}

// waitUntil sleeps until shortly before t and then yields until t: a sleep
// to t itself oversleeps by hundreds of microseconds on a small VM, which
// would read as server latency measured from the due time.
func waitUntil(t time.Time) {
	if d := time.Until(t) - spinWindow; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// saturate sends queries to t back to back from nproc workers for d and
// returns the throughput of correct answers. An open loop offered more than
// this rate builds a backlog that grows without bound, so it is the highest
// rate the server sustains through this many connections.
func saturate(c *http.Client, t *target, sc *searchCorpus, d time.Duration) (rate float64, attempted, failed int) {
	conns := runtime.NumCPU()
	var next atomic.Int64
	ok, bad := make([]int, conns), make([]int, conns)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Since(start) < d {
				qi := sc.trace[(t.off+int(next.Add(1)))%traceLen]
				if a, err := ask(c, t.svc.url, &sc.queries[qi]); err == nil && a.Count == sc.queries[qi].want {
					ok[w]++
				} else {
					bad[w]++
				}
			}
		}(w)
	}
	wg.Wait()
	el := time.Since(start)
	t.off += int(next.Load())
	for w := range ok {
		failed += bad[w]
		attempted += ok[w] + bad[w]
	}
	return float64(attempted-failed) / el.Seconds(), attempted, failed
}

// httpPair loads fesiaserve and the reference service in alternating
// slices. The system's attempts and failures accumulate in the result; a
// wrong answer from the reference is an error.
type httpPair struct {
	c        *http.Client
	sc       *searchCorpus
	sys, ref *target
}

// run alternates slices until done returns true. Each slice is httpSlice
// long: an open loop at rate or, with saturated, back-to-back requests.
func (h *httpPair) run(done func() bool, rate float64, saturated bool) (*paired, error) {
	var attempted, failed int
	p, err := alternate(done, func(isSys bool) (slice, error) {
		t := h.ref
		if isSys {
			t = h.sys
		}
		var s slice
		var n, bad int
		if saturated {
			s.rate, n, bad = saturate(h.c, t, h.sc, httpSlice)
		} else {
			ph := openLoop(h.c, t, h.sc, rate, until(httpSlice))
			s, n, bad = slice{ph.goodput, quantile(ph.lat, 0.5)}, ph.attempted, ph.failed
		}
		if !isSys && bad > 0 {
			return slice{}, fmt.Errorf("the HTTP reference answered %d of %d queries wrongly", bad, n)
		}
		if isSys {
			attempted += n
			failed += bad
		}
		return s, nil
	})
	if err != nil {
		return nil, err
	}
	p.attempted, p.failed = attempted, failed
	return p, nil
}

// runSearchHTTP loads fesiaserve over loopback HTTP, alternating with the
// reference service: open loops at a fixed 6000 queries/s for the median
// latency, then nproc connections back to back for the highest sustainable
// rate. It is the only workload crossing the http and serve layers, which
// dominate its latency.
func runSearchHTTP(cfg config) (*result, error) {
	sc, err := newSearchCorpus(cfg)
	if err != nil {
		return nil, err
	}
	files, bpe, err := writeCorpusFiles(cfg, "a", sc.lists)
	defer files.remove()
	if err != nil {
		return nil, err
	}
	sys, ref, su, err := startServices(cfg, sc, files)
	if err != nil {
		return nil, err
	}
	defer sys.stop()
	defer ref.stop()
	h := &httpPair{c: newClient(), sc: sc, sys: &target{svc: sys}, ref: &target{svc: ref}}
	defer h.c.CloseIdleConnections()
	quiesce()
	if _, err := h.run(forDur(cfg.dur(0.05)), steadyRate, false); err != nil { // warm-up
		return nil, err
	}
	// The median latency ratio holds within a few percent from fewer pairs
	// than the saturation ratio, so saturation gets the larger share.
	lat, err := h.run(forDur(cfg.dur(0.35)), steadyRate, false)
	if err != nil {
		return nil, err
	}
	rate, err := h.run(forDur(cfg.dur(0.5)), 0, true)
	if err != nil {
		return nil, err
	}
	r := &result{attempted: lat.attempted + rate.attempted, failed: lat.failed + rate.failed, env: sys.env}
	r.endToEnd(cfg, su, refSetupSecs["search-http"], rate, lat, bpe)
	return r, nil
}
