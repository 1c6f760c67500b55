// Command bench is the repository benchmark. It generates every input from
// a seed, drives one of five workloads through fesia's entry points, checks
// every result against a sorted-slice oracle, and prints the end-to-end
// metrics: set-up time and speed, each against a scalar reference run
// alternately beside the system, and memory. With -trace 1 it instead runs
// the layer ledger: the workload's operations timed at each layer from HTTP
// down to the SIMD routines. README.md describes the workloads and metrics.
//
// Run it through run.sh from the repository root, which builds it and keeps
// every file it writes under .bench_build/:
//
//	bash bench/run.sh --workload search-exec --seed 1 --seconds 15 --trace 0
//	bash bench/run.sh --workload pairs-skewed --seed 1 --seconds 15 --trace 1
//	bash bench/run.sh --calibrate 10 --seed 600
//
// The last line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics. Any wrong result makes the exit code 1.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"fesia"
)

// config is what one run needs besides the workload name.
type config struct {
	seed    int64
	seconds float64 // length of the measured phase
	scale   float64 // input size factor: 1 for the benchmark, smaller in tests
	out     string  // directory for snapshots, logs, spans and the server binary
	server  string  // fesiaserve binary used by search-http and the ledger
}

func (c config) dur(frac float64) time.Duration {
	return time.Duration(c.seconds * frac * float64(time.Second))
}

// scaled shrinks a benchmark size by the config's scale, keeping it >= min.
func (c config) scaled(n, min int) int {
	return max(min, int(float64(n)*c.scale))
}

// metric is one named measurement.
type metric struct {
	Name  string  `json:"-"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's outcome: the operations attempted, how many failed
// (wrong results, HTTP errors), the metrics BENCHMARK.json declares, and
// informational measurements that are printed but not gated.
type result struct {
	attempted, failed int
	metrics, info     []metric
	env               map[string]string // settings the run found, such as the server's
}

func (r *result) add(name string, value float64, unit string) {
	r.metrics = append(r.metrics, metric{name, value, unit})
}

// workloads maps each workload name to its untraced run. The traced run of
// every workload is the layer ledger (ledger.go).
var workloads = map[string]func(config) (*result, error){
	"search-http":  runSearchHTTP,
	"search-swap":  runSearchSwap,
	"search-exec":  runSearchExec,
	"pairs-skewed": runPairsSkewed,
	"triangles":    runTriangles,
}

// workloadOrder is the order "all" and -calibrate run them in.
var workloadOrder = []string{"search-http", "search-swap", "search-exec", "pairs-skewed", "triangles"}

func main() {
	if os.Getenv(refServeEnv) != "" {
		if err := serveRef(); err != nil {
			fatal(err)
		}
		return
	}
	workload := flag.String("workload", "all", "workload to run: "+strings.Join(workloadOrder, ", ")+" or all")
	seed := flag.Int64("seed", 1, "seed every input is generated from")
	seconds := flag.Float64("seconds", 15, "length of the measured phase in seconds")
	trace := flag.Int("trace", 0, "1 runs the layer ledger and prints the per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for snapshots, logs, spans, results and the server binary")
	server := flag.String("server", "", "fesiaserve binary (default: build fesia/cmd/fesiaserve into -out)")
	calibrate := flag.Int("calibrate", 0, "run every workload this many times, with seeds -seed, -seed+1, ..., and print each metric's spread")
	flag.Parse()

	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	cfg := config{seed: *seed, seconds: *seconds, scale: 1, out: *out, server: *server}
	if *calibrate > 0 {
		if err := runCalibrate(cfg, *calibrate, *workload); err != nil {
			fatal(err)
		}
		return
	}
	if *workload != "all" && workloads[*workload] == nil {
		fatal(fmt.Errorf("unknown workload %q", *workload))
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloadOrder
	}
	if cfg.server == "" {
		bin, err := buildServer(cfg.out)
		if err != nil {
			fatal(err)
		}
		cfg.server = bin
	}

	env := environment()
	total := &result{}
	var rows []row
	for _, name := range names {
		var res *result
		var err error
		if *trace != 0 {
			res, err = runLedger(cfg, name)
		} else {
			res, err = workloads[name](cfg)
		}
		if err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		for k, v := range res.env {
			env[k] = v
		}
		for _, m := range res.metrics {
			fmt.Printf("%s %s %s %s\n", name, m.Name, formatValue(m.Value), m.Unit)
			rows = append(rows, row{name, m.Name, m.Value, m.Unit, true})
		}
		errFrac := float64(res.failed) / float64(max(res.attempted, 1))
		for _, m := range append(res.info, metric{"err_frac", errFrac, "frac"}) {
			fmt.Printf("# %s %s %s %s\n", name, m.Name, formatValue(m.Value), m.Unit)
			rows = append(rows, row{name, m.Name, m.Value, m.Unit, false})
		}
		total.attempted += res.attempted
		total.failed += res.failed
		for _, m := range res.metrics {
			if len(names) > 1 {
				m.Name = name + "/" + m.Name
			}
			total.metrics = append(total.metrics, m)
		}
		quiesce()
	}
	var kv []string
	for k, v := range env {
		kv = append(kv, k+"="+v)
	}
	slices.Sort(kv)
	fmt.Println("# env", strings.Join(kv, " "))
	if err := writeRows(filepath.Join(cfg.out, "results.json"), env, rows); err != nil {
		fatal(err)
	}
	fmt.Println(summaryJSON(total))
	if total.failed > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// formatValue prints a value to six significant digits for the rows; the
// JSON line keeps every digit.
func formatValue(v float64) string { return fmt.Sprintf("%.6g", v) }

// summaryJSON renders the final line: correct, attempted, failed, metrics.
func summaryJSON(r *result) string {
	ms := make(map[string]metric, len(r.metrics))
	for _, m := range r.metrics {
		ms[m.Name] = m
	}
	b, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, ms})
	if err != nil {
		panic(err) // floats are finite and the keys are strings
	}
	return string(b)
}

type row struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Value    float64 `json:"value"`
	Unit     string  `json:"unit"`
	Gated    bool    `json:"gated"` // declared in BENCHMARK.json
}

func writeRows(path string, env map[string]string, rows []row) error {
	b, err := json.MarshalIndent(struct {
		Env  map[string]string `json:"env"`
		Rows []row             `json:"rows"`
	}{env, rows}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// buildServer compiles fesiaserve from source into dir.
func buildServer(dir string) (string, error) {
	bin, err := filepath.Abs(filepath.Join(dir, "fesiaserve"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "fesia/cmd/fesiaserve")
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("building fesiaserve: %w", err)
	}
	return bin, nil
}

// runCalibrate runs each workload n times, with seeds cfg.seed to
// cfg.seed+n-1, each in a fresh process, reversing the workload order from
// one seed to the next. It prints every metric's median, quartiles,
// interquartile spread and max/min spread as shares of the median.
func runCalibrate(cfg config, n int, workload string) error {
	names := workloadOrder
	if workload != "all" {
		names = []string{workload}
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if cfg.server == "" {
		if cfg.server, err = buildServer(cfg.out); err != nil {
			return err
		}
	}
	values := map[string]map[string][]float64{}
	for i := 0; i < n; i++ {
		seed := cfg.seed + int64(i)
		order := slices.Clone(names)
		if i%2 == 1 {
			slices.Reverse(order)
		}
		for _, name := range order {
			cmd := exec.Command(self, "-workload", name, "-seed", fmt.Sprint(seed),
				"-seconds", fmt.Sprint(cfg.seconds), "-out", cfg.out, "-server", cfg.server)
			cmd.Stderr = os.Stderr
			outb, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", name, seed, err)
			}
			var last struct {
				Metrics map[string]metric `json:"metrics"`
			}
			if err := json.Unmarshal(lastLine(outb), &last); err != nil {
				return fmt.Errorf("%s seed %d: %w", name, seed, err)
			}
			if values[name] == nil {
				values[name] = map[string][]float64{}
			}
			for m, v := range last.Metrics {
				values[name][m] = append(values[name][m], v.Value)
			}
		}
	}
	fmt.Printf("%-13s %-15s %12s %12s %12s %8s %8s\n", "workload", "metric", "median", "q1", "q3", "iqr/med", "rng/med")
	for _, name := range names {
		ms := make([]string, 0, len(values[name]))
		for m := range values[name] {
			ms = append(ms, m)
		}
		slices.Sort(ms)
		for _, m := range ms {
			v := slices.Clone(values[name][m])
			slices.Sort(v)
			q1, med, q3 := quantile(v, 0.25), quantile(v, 0.5), quantile(v, 0.75)
			fmt.Printf("%-13s %-15s %12.6g %12.6g %12.6g %8.3f %8.3f\n", name, m, med, q1, q3,
				(q3-q1)/med, (v[len(v)-1]-v[0])/med)
		}
	}
	return nil
}

func lastLine(b []byte) []byte {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = slices.Clone(sc.Bytes())
		}
	}
	return last
}

// environment records what the numbers depend on besides the code.
func environment() map[string]string {
	return map[string]string{
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"backend":    fesia.Backend(),
		"go":         runtime.Version(),
	}
}

// readAll drains and closes r, for response bodies read in full.
func readAll(r io.ReadCloser) ([]byte, error) {
	defer r.Close()
	return io.ReadAll(r)
}
