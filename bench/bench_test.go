package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"testing"

	"fesia"
)

// The tests run every workload and the ledger at toy scale and check them
// against BENCHMARK.json. search-http and the ledger need a fesiaserve
// binary, which TestMain builds; -short skips them.

var serverBin string

func TestMain(m *testing.M) {
	if os.Getenv(refServeEnv) != "" { // startRef runs this binary as the reference service
		if err := serveRef(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	flag.Parse()
	code := func() int {
		if !testing.Short() {
			dir, err := os.MkdirTemp("", "fesia-bench-test")
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			defer os.RemoveAll(dir)
			if serverBin, err = buildServer(dir); err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
		}
		return m.Run()
	}()
	os.Exit(code)
}

func toyConfig(t *testing.T) config {
	return config{seed: 7, seconds: 0.4, scale: 0.01, out: t.TempDir(), server: serverBin}
}

type declared struct {
	Name, Unit string
}

// benchmarkJSON reads the metric declarations of the repository's
// BENCHMARK.json.
func benchmarkJSON(t *testing.T) (workloads []string, endToEnd, perLayer []declared) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []declared              `json:"end_to_end"`
		PerLayer  []declared              `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		workloads = append(workloads, w.Name)
	}
	return workloads, spec.EndToEnd, spec.PerLayer
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// checkMetrics asserts that r carries exactly the declared metrics, each
// with its declared unit and a well-formed name, and no failures.
func checkMetrics(t *testing.T, r *result, want []declared) {
	t.Helper()
	if r.attempted == 0 || r.failed != 0 {
		t.Errorf("attempted %d, failed %d", r.attempted, r.failed)
	}
	got := map[string]string{}
	for _, m := range r.metrics {
		if !metricName.MatchString(m.Name) {
			t.Errorf("metric name %q is malformed", m.Name)
		}
		got[m.Name] = m.Unit
	}
	if len(got) != len(r.metrics) || len(got) != len(want) {
		t.Errorf("emitted %d metrics (%d distinct), BENCHMARK.json declares %d", len(r.metrics), len(got), len(want))
	}
	for _, d := range want {
		if u, ok := got[d.Name]; !ok {
			t.Errorf("metric %s not emitted", d.Name)
		} else if u != d.Unit {
			t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", d.Name, u, d.Unit)
		}
	}
}

func TestWorkloads(t *testing.T) {
	names, endToEnd, _ := benchmarkJSON(t)
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the benchmark has %d", len(names), len(workloads))
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			run := workloads[name]
			if run == nil {
				t.Fatalf("no workload %s", name)
			}
			if testing.Short() && name == "search-http" {
				t.Skip("needs fesiaserve")
			}
			r, err := run(toyConfig(t))
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, r, endToEnd)
		})
	}
}

func TestLedger(t *testing.T) {
	if testing.Short() {
		t.Skip("needs fesiaserve")
	}
	names, _, perLayer := benchmarkJSON(t)
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			r, err := runLedger(toyConfig(t), name)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, r, perLayer)
		})
	}
}

// TestOracleCatchesWrongCount adds one to every count the executor returns
// and checks that the paired loop reports each such operation as failed,
// while the reference passes the same oracle, and that the result line then
// reads incorrect.
func TestOracleCatchesWrongCount(t *testing.T) {
	cfg := toyConfig(t)
	sc, err := newSearchCorpus(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sets, err := fesia.BuildBatch(sc.lists)
	if err != nil {
		t.Fatal(err)
	}
	ex := fesia.NewExecutor()
	var ref scalar
	p, err := pairedLoop(cfg.dur(1), execSlice, 1,
		func(i int) bool {
			q := &sc.queries[i%len(sc.queries)]
			var qs []*fesia.Set
			for _, it := range q.items {
				qs = append(qs, sets[it])
			}
			return ex.IntersectCountK(qs...)+1 == q.want
		},
		func(i int) bool {
			q := &sc.queries[i%len(sc.queries)]
			return ref.count(postingsOf(sc.lists, q.items)) == q.want
		})
	if err != nil {
		t.Fatal(err)
	}
	if p.attempted == 0 || p.failed != p.attempted {
		t.Fatalf("failed %d of %d attempts, want all", p.failed, p.attempted)
	}
	r := &result{attempted: p.attempted, failed: p.failed}
	var line struct{ Correct bool }
	if err := json.Unmarshal([]byte(summaryJSON(r)), &line); err != nil || line.Correct {
		t.Fatalf("summary %s reports correct", summaryJSON(r))
	}
}

// TestQuantile pins the quantile rule to Python's statistics.quantiles,
// which the calibration mirrors.
func TestQuantile(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	q1, med, q3 := quantile(v, 0.25), quantile(v, 0.5), quantile(v, 0.75)
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
}
