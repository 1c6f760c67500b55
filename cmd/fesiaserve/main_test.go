package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"fesia/internal/serve"
)

func testServer(t *testing.T) *server {
	t.Helper()
	s, err := newServer(serverConfig{
		docs: 3_000, items: 6_000, meanLen: 25, seed: 7, timeout: 2 * time.Second,
		tier: serve.Config{},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.tier.Shutdown(context.Background()) })
	return s
}

// TestServeMetricsSmoke drives load through the serving tier and scrapes
// /metrics from the ADMIN mux — the acceptance check that the observability
// pipeline (tier executors -> global sink -> Prometheus writer -> HTTP)
// shows live histograms, including the new serving-tier series.
func TestServeMetricsSmoke(t *testing.T) {
	s := testServer(t)
	s.runQueries(rand.New(rand.NewSource(1)), 128)

	mux := http.NewServeMux()
	s.registerAdmin(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("GET /metrics: Content-Type = %q, want text/plain exposition format", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		`fesia_build_info{backend=`,
		`fesia_query_latency_seconds_bucket`,
		`fesia_kernel_dispatch_total{size_a=`,
		`fesia_serve_requests_total{outcome="admitted"}`,
		`fesia_serve_queue_depth`,
		`fesia_serve_swaps_total{outcome="ok"}`,
		`fesia_query_latency_seconds_bucket{strategy="serve"`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics output missing %q", want)
		}
	}
}

// TestServeQueryEndpoint checks /query answers on the PUBLIC mux match the
// tier directly, and that malformed requests are rejected.
func TestServeQueryEndpoint(t *testing.T) {
	s := testServer(t)
	mux := http.NewServeMux()
	s.registerServing(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	a, b := s.queryable[0], s.queryable[1]
	resp, err := http.Get(srv.URL + fmt.Sprintf("/query?items=%d,%d", a, b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /query: status %d", resp.StatusCode)
	}
	var got struct {
		Count      int    `json:"count"`
		Generation uint64 `json:"generation"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	want, err := s.tier.QueryCount(context.Background(), a, b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Count != want {
		t.Errorf("/query count = %d, want %d", got.Count, want)
	}

	// An items list with spaces around the IDs, and a rand= request.
	for _, good := range []string{fmt.Sprintf("/query?items=%d,%%20%d+", a, b), "/query?rand=2"} {
		resp, err := http.Get(srv.URL + good)
		if err != nil {
			t.Fatal(err)
		}
		var got struct {
			Count int `json:"count"`
		}
		err = json.NewDecoder(resp.Body).Decode(&got)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || err != nil {
			t.Fatalf("GET %s: status %d, decode error %v", good, resp.StatusCode, err)
		}
		if strings.Contains(good, "items=") && got.Count != want {
			t.Errorf("GET %s: count %d, want %d", good, got.Count, want)
		}
	}

	for _, bad := range []string{"/query", "/query?items=x", "/query?rand=99"} {
		resp, err := http.Get(srv.URL + bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET %s: status %d, want 400", bad, resp.StatusCode)
		}
	}
}

// TestServingMuxHidesAdminSurface pins the listener split: nothing
// operational is reachable through the public mux.
func TestServingMuxHidesAdminSurface(t *testing.T) {
	s := testServer(t)
	mux := http.NewServeMux()
	s.registerServing(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	for _, path := range []string{"/metrics", "/debug/vars", "/debug/pprof/", "/admin/swap"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s on public mux: status %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestDeadlineHeader checks the X-Fesia-Deadline-Ms override: valid values
// are honored, invalid ones are a 400 before any query runs.
func TestDeadlineHeader(t *testing.T) {
	s := testServer(t)
	mux := http.NewServeMux()
	s.registerServing(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	url := srv.URL + fmt.Sprintf("/query?items=%d", s.queryable[0])
	req, _ := http.NewRequest("GET", url, nil)
	req.Header.Set("X-Fesia-Deadline-Ms", "5000")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("valid deadline header: status %d, want 200", resp.StatusCode)
	}

	for _, bad := range []string{"0", "-5", "x", "600001"} {
		req, _ := http.NewRequest("GET", url, nil)
		req.Header.Set("X-Fesia-Deadline-Ms", bad)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("deadline header %q: status %d, want 400", bad, resp.StatusCode)
		}
	}
}

// TestStatusForError pins the tier-error -> HTTP mapping: overload and
// shutdown are retryable 503s, expired deadlines 504, everything else 500.
func TestStatusForError(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{&serve.OverloadError{Reason: serve.ReasonShed}, http.StatusServiceUnavailable},
		{&serve.OverloadError{Reason: serve.ReasonQueueFull}, http.StatusServiceUnavailable},
		{serve.ErrShuttingDown, http.StatusServiceUnavailable},
		{context.DeadlineExceeded, http.StatusGatewayTimeout},
		{context.Canceled, http.StatusGatewayTimeout},
		{errors.New("boom"), http.StatusInternalServerError},
	}
	for _, c := range cases {
		if got := statusForError(c.err); got != c.want {
			t.Errorf("statusForError(%v) = %d, want %d", c.err, got, c.want)
		}
	}
}

// TestOverloadFlavorsRoundTripHTTP drives each OverloadError flavor through
// the real /query handler over HTTP and checks it arrives as a distinct 503
// body with a flavor-appropriate jittered Retry-After.
func TestOverloadFlavorsRoundTripHTTP(t *testing.T) {
	s := testServer(t)
	var reject error
	s.queryOverride = func(ctx context.Context, items ...uint32) (int, error) {
		return 0, reject
	}
	mux := http.NewServeMux()
	s.registerServing(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	url := srv.URL + fmt.Sprintf("/query?items=%d", s.queryable[0])

	cases := []struct {
		reason   string
		wantBody string
		minRetry int
		maxRetry int // inclusive: base + jitter - 1
	}{
		{serve.ReasonShed, "serve: overloaded (shed)", 2, 4},
		{serve.ReasonQueueFull, "serve: overloaded (queue_full)", 1, 2},
		{serve.ReasonQueueWait, "serve: overloaded (queue_wait)", 1, 1},
	}
	for _, c := range cases {
		reject = &serve.OverloadError{Reason: c.reason}
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("%s: status %d, want 503", c.reason, resp.StatusCode)
		}
		if got := strings.TrimSpace(string(body)); got != c.wantBody {
			t.Errorf("%s: body %q, want %q", c.reason, got, c.wantBody)
		}
		ra := resp.Header.Get("Retry-After")
		sec, err := strconv.Atoi(ra)
		if err != nil || sec < c.minRetry || sec > c.maxRetry {
			t.Errorf("%s: Retry-After %q, want integer in [%d, %d]", c.reason, ra, c.minRetry, c.maxRetry)
		}
	}

	// Non-overload errors must not advertise a retry hint.
	reject = errors.New("boom")
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("plain error: status %d, want 500", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		t.Errorf("plain error: unexpected Retry-After %q", ra)
	}
}

// TestTraceHeaderReturnsBreakdown checks X-Fesia-Trace: 1 forces capture and
// the response carries the span breakdown, while untraced requests don't.
func TestTraceHeaderReturnsBreakdown(t *testing.T) {
	s, err := newServer(serverConfig{
		docs: 3_000, items: 6_000, meanLen: 25, seed: 7, timeout: 2 * time.Second,
		tier: serve.Config{TraceSample: 64, SlowQuery: time.Minute},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.tier.Shutdown(context.Background()) })
	mux := http.NewServeMux()
	s.registerServing(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	url := srv.URL + fmt.Sprintf("/query?items=%d,%d", s.queryable[0], s.queryable[1])

	req, _ := http.NewRequest("GET", url, nil)
	req.Header.Set("X-Fesia-Trace", "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("traced query: status %d", resp.StatusCode)
	}
	var got struct {
		Count int `json:"count"`
		Trace *struct {
			TraceID string `json:"trace_id"`
			Reason  string `json:"reason"`
			Spans   []struct {
				Kind  string `json:"kind"`
				DurNs uint64 `json:"dur_ns"`
			} `json:"spans"`
		} `json:"trace"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.Trace == nil {
		t.Fatal("traced response has no trace object")
	}
	if got.Trace.Reason != "forced" || got.Trace.TraceID == "" {
		t.Fatalf("trace metadata mismatch: %+v", got.Trace)
	}
	kinds := map[string]bool{}
	for _, sp := range got.Trace.Spans {
		kinds[sp.Kind] = true
	}
	for _, want := range []string{"query", "queue", "scatter", "shard"} {
		if !kinds[want] {
			t.Errorf("trace breakdown missing a %q span: %+v", want, got.Trace.Spans)
		}
	}

	// The admin mux now exposes the trace endpoints, and the forced trace
	// is visible there.
	amux := http.NewServeMux()
	s.registerAdmin(amux)
	asrv := httptest.NewServer(amux)
	defer asrv.Close()
	tresp, err := http.Get(asrv.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	tbody, _ := io.ReadAll(tresp.Body)
	tresp.Body.Close()
	if tresp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/traces: status %d", tresp.StatusCode)
	}
	if !strings.Contains(string(tbody), got.Trace.TraceID) {
		t.Errorf("/debug/traces does not list forced trace %s", got.Trace.TraceID)
	}

	// An untraced request must not carry a trace object.
	resp2, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var plain map[string]any
	if err := json.NewDecoder(resp2.Body).Decode(&plain); err != nil {
		t.Fatal(err)
	}
	if _, ok := plain["trace"]; ok {
		t.Error("untraced response carries a trace object")
	}
}

// TestAdminTraceEndpointsAbsentWhenDisabled pins that a tracing-off server
// does not mount the trace debug surface.
func TestAdminTraceEndpointsAbsentWhenDisabled(t *testing.T) {
	s := testServer(t)
	mux := http.NewServeMux()
	s.registerAdmin(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	for _, path := range []string{"/debug/traces", "/debug/slow"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s with tracing off: status %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestAdminSwapEndpoint hot-swaps via the admin endpoint and checks the
// generation advances and queries keep answering.
func TestAdminSwapEndpoint(t *testing.T) {
	s := testServer(t)
	mux := http.NewServeMux()
	s.registerAdmin(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	// GET is rejected.
	resp, err := http.Get(srv.URL + "/admin/swap?seed=9")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /admin/swap: status %d, want 405", resp.StatusCode)
	}

	resp, err = http.Post(srv.URL+"/admin/swap?seed=9", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST /admin/swap: status %d: %s", resp.StatusCode, body)
	}
	var got struct {
		Generation uint64 `json:"generation"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.Generation != 1 || s.tier.Generation() != 1 {
		t.Errorf("generation = %d / %d, want 1", got.Generation, s.tier.Generation())
	}
	if _, err := s.tier.QueryCount(context.Background(), s.queryable[0], s.queryable[1]); err != nil {
		t.Errorf("query after swap: %v", err)
	}

	// A swap from a missing snapshot file fails and leaves the tier serving.
	resp, err = http.Post(srv.URL+"/admin/swap?file=/nonexistent/corpus.fesia", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("POST /admin/swap bad file: status %d, want 500", resp.StatusCode)
	}
	if gen := s.tier.Generation(); gen != 1 {
		t.Errorf("failed swap moved generation to %d", gen)
	}
}
