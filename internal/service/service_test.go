package service

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"localmds/internal/core"
	"localmds/internal/gen"
	"localmds/internal/graph"
	"localmds/internal/graphio"
)

// startServer spins a service over httptest and tears both down with the
// test.
func startServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// postJSON posts v and decodes the response body into out (if non-nil),
// returning the HTTP status.
func postJSON(t *testing.T, url string, v any, out any) int {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("decode response %s: %v", data, err)
		}
	}
	return resp.StatusCode
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("decode response %s: %v", data, err)
		}
	}
	return resp.StatusCode
}

// stripTimings zeroes the measured (non-deterministic) stage fields so
// results compare modulo timings.
func stripTimings(res *core.Alg1Result) *core.Alg1Result {
	cp := *res
	cp.StageStats = append(core.StageStats(nil), res.StageStats...)
	for i := range cp.StageStats {
		cp.StageStats[i].Wall = 0
		cp.StageStats[i].Allocs = 0
	}
	return &cp
}

// TestSolveMatchesLibraryUnderConcurrency is the acceptance gate: for
// fixed seeds, the daemon's solve responses under 12 concurrent in-flight
// requests (mixed wire formats) are byte-equivalent — set, bounds, stage
// stats modulo timings — to running core.Alg1 directly, which is exactly
// what cmd/mdsrun prints. A second identical wave is served from cache
// without re-running the pipeline.
func TestSolveMatchesLibraryUnderConcurrency(t *testing.T) {
	s, ts := startServer(t, Config{Workers: 4})

	// Three distinct instances, each submitted four ways/times.
	specs := []GeneratorSpec{
		{Kind: "ding", N: 60, T: 5, Seed: 7},
		{Kind: "grid", N: 49, Seed: 1},
		{Kind: "cactus", N: 40, Seed: 3},
	}
	want := make([]*core.Alg1Result, len(specs))
	graphs := make([]*graph.CSR, len(specs))
	for i, spec := range specs {
		g, err := gen.FromKind(spec.Kind, spec.N, spec.T, spec.P, rand.New(rand.NewSource(spec.Seed)))
		if err != nil {
			t.Fatal(err)
		}
		graphs[i] = g
		res, err := core.Alg1CSR(g, core.PracticalParams(), core.PipelineOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = stripTimings(res)
	}

	// Encode each instance in every wire format.
	requests := make([]SolveRequest, 0, 12)
	expect := make([]int, 0, 12)
	for i, g := range graphs {
		var gj, el, dim bytes.Buffer
		if err := graphio.Write(&gj, g, graphio.FormatJSON); err != nil {
			t.Fatal(err)
		}
		if err := graphio.Write(&el, g, graphio.FormatEdgeList); err != nil {
			t.Fatal(err)
		}
		if err := graphio.Write(&dim, g, graphio.FormatDIMACS); err != nil {
			t.Fatal(err)
		}
		requests = append(requests,
			SolveRequest{Graph: gj.Bytes()},
			SolveRequest{Data: el.String()}, // format auto-detected
			SolveRequest{Data: dim.String(), Format: "dimacs"},
			SolveRequest{Generator: &specs[i]},
		)
		expect = append(expect, i, i, i, i)
	}

	run := func() []JobView {
		views := make([]JobView, len(requests))
		var wg sync.WaitGroup
		for k := range requests {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if code := postJSON(t, ts.URL+"/v1/solve", &requests[k], &views[k]); code != http.StatusOK {
					t.Errorf("request %d: status %d", k, code)
				}
			}()
		}
		wg.Wait()
		return views
	}

	views := run()
	for k, v := range views {
		if v.Status != StatusDone || v.SolveOutcome == nil {
			t.Fatalf("request %d: %+v", k, v)
		}
		if !v.Valid {
			t.Fatalf("request %d: solution reported invalid", k)
		}
		got, wanted := stripTimings(v.Result), want[expect[k]]
		if !reflect.DeepEqual(got, wanted) {
			t.Fatalf("request %d: result differs from direct core.Alg1:\n got %+v\nwant %+v", k, got, wanted)
		}
		if v.N != graphs[expect[k]].N() || v.M != graphs[expect[k]].M() {
			t.Fatalf("request %d: graph echo n=%d m=%d", k, v.N, v.M)
		}
	}
	// 12 requests, 3 distinct (graph, params) keys: at most 3 pipeline
	// runs (deduplication may fold concurrent identical ones further).
	if c := s.Computations(); c < 1 || c > 3 {
		t.Fatalf("computations after wave 1 = %d, want 1..3", c)
	}
	after := s.Computations()

	// Wave 2: identical requests — all served from cache, zero recompute.
	views = run()
	for k, v := range views {
		if v.Status != StatusDone || !v.Cached {
			t.Fatalf("wave 2 request %d not served from cache: %+v", k, v)
		}
		if !reflect.DeepEqual(stripTimings(v.Result), want[expect[k]]) {
			t.Fatalf("wave 2 request %d: cached result differs", k)
		}
	}
	if c := s.Computations(); c != after {
		t.Fatalf("cache hits recomputed: computations %d -> %d", after, c)
	}

	// The fingerprint is format-independent: all four encodings of one
	// instance share it.
	for i := 0; i < len(views); i += 4 {
		fp := views[i].Fingerprint
		for k := i; k < i+4; k++ {
			if views[k].Fingerprint != fp {
				t.Fatalf("fingerprint differs across formats: %s vs %s", views[k].Fingerprint, fp)
			}
		}
	}
}

func TestBatchAndJobEndpoints(t *testing.T) {
	_, ts := startServer(t, Config{Workers: 2})
	batch := BatchRequest{Requests: []SolveRequest{
		{Generator: &GeneratorSpec{Kind: "grid", N: 36, Seed: 1}},
		{Generator: &GeneratorSpec{Kind: "tree", N: 30, Seed: 2}},
		{Data: "0 -1\n"}, // malformed: fails at parse, not in the queue
	}}
	var out struct {
		Jobs []BatchEntry `json:"jobs"`
	}
	if code := postJSON(t, ts.URL+"/v1/batch", &batch, &out); code != http.StatusAccepted {
		t.Fatalf("batch status %d", code)
	}
	if len(out.Jobs) != 3 {
		t.Fatalf("batch entries = %d", len(out.Jobs))
	}
	// An oversized batch is rejected outright so no advertised job ID can
	// outlive the retention window before the client reads it.
	big := BatchRequest{Requests: make([]SolveRequest, maxBatchSize+1)}
	for i := range big.Requests {
		big.Requests[i] = SolveRequest{Generator: &GeneratorSpec{Kind: "grid", N: 9}}
	}
	var eb errorBody
	if code := postJSON(t, ts.URL+"/v1/batch", &big, &eb); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized batch: status %d (%+v)", code, eb)
	}
	if out.Jobs[2].Status != StatusFailed || !strings.Contains(out.Jobs[2].Error, "line 1") {
		t.Fatalf("malformed entry: %+v", out.Jobs[2])
	}
	for _, entry := range out.Jobs[:2] {
		if entry.JobID == "" {
			t.Fatalf("missing job id: %+v", entry)
		}
		deadline := time.Now().Add(10 * time.Second)
		for {
			var v JobView
			if code := getJSON(t, ts.URL+"/v1/jobs/"+entry.JobID, &v); code != http.StatusOK {
				t.Fatalf("job poll status %d", code)
			}
			if v.Status == StatusDone {
				if v.Result == nil || len(v.Result.StageStats) == 0 {
					t.Fatalf("done job missing stage table: %+v", v)
				}
				break
			}
			if v.Status == StatusFailed {
				t.Fatalf("job failed: %+v", v)
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s stuck in %s", entry.JobID, v.Status)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	if code := getJSON(t, ts.URL+"/v1/jobs/job-999999", nil); code != http.StatusNotFound {
		t.Fatalf("unknown job: status %d", code)
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := startServer(t, Config{Workers: 1})
	cases := []struct {
		name string
		req  SolveRequest
		want string
	}{
		{"no source", SolveRequest{}, "exactly one"},
		{"two sources", SolveRequest{Data: "0 1\n", Generator: &GeneratorSpec{Kind: "grid", N: 9}}, "exactly one"},
		{"bad edge list", SolveRequest{Data: "0 1\nx y\n"}, "line 2"},
		{"bad dimacs", SolveRequest{Data: "p edge 3 1\ne 1 9\n", Format: "dimacs"}, "out of range"},
		{"bad format", SolveRequest{Data: "0 1\n", Format: "xml"}, "unknown format"},
		{"bad generator", SolveRequest{Generator: &GeneratorSpec{Kind: "warp", N: 10}}, "warp"},
		{"bad params", SolveRequest{Generator: &GeneratorSpec{Kind: "grid", N: 9}, Params: &core.Params{R1: 0, R2: 1}}, "invalid radii"},
		{"oversized generator", SolveRequest{Generator: &GeneratorSpec{Kind: "grid", N: 2_000_001}}, "limit"},
		{"quadratic gnp", SolveRequest{Generator: &GeneratorSpec{Kind: "gnp", N: 2_000_000, P: 0.001}}, "limit"},
		{"quadratic cliquependants", SolveRequest{Generator: &GeneratorSpec{Kind: "cliquependants", N: 2_000_000}}, "limit"},
		{"oversized graph", SolveRequest{Graph: json.RawMessage(`{"n":2000000001,"edges":[]}`)}, "limit"},
		{"oversized edgelist", SolveRequest{Data: "2000000001\n0 1\n"}, "limit"},
		{"oversized dimacs", SolveRequest{Data: "p edge 2000000001 0\n", Format: "dimacs"}, "limit"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var eb errorBody
			code := postJSON(t, ts.URL+"/v1/solve", &c.req, &eb)
			if code != http.StatusBadRequest {
				t.Fatalf("status %d, want 400 (%+v)", code, eb)
			}
			if !strings.Contains(eb.Error, c.want) {
				t.Fatalf("error %q does not mention %q", eb.Error, c.want)
			}
		})
	}
	// A syntactically broken body is a 400 too.
	resp, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("broken body: status %d", resp.StatusCode)
	}
}

// TestQueueFullSheds stubs the solver to block so the 1-worker/1-slot
// queue saturates deterministically, then expects 503 load shedding.
func TestQueueFullSheds(t *testing.T) {
	s, ts := startServer(t, Config{Workers: 1, QueueDepth: 1})
	block := make(chan struct{})
	started := make(chan struct{}, 8)
	s.solve = func(ps *parsedSolve, hooks core.TraceHooks) (*core.Alg1Result, error) {
		started <- struct{}{}
		<-block
		return &core.Alg1Result{}, nil
	}

	// Distinct sizes: the grid generator is deterministic, so equal sizes
	// would content-address to one key and dedup onto one job.
	mk := func(n int) SolveRequest {
		return SolveRequest{Generator: &GeneratorSpec{Kind: "grid", N: n}}
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); postJSON(t, ts.URL+"/v1/solve", mk(25), nil) }() // occupies the worker
	<-started
	// Fill the single queue slot via batch (async), then a further
	// distinct solve must be shed with 503.
	var out struct {
		Jobs []BatchEntry `json:"jobs"`
	}
	postJSON(t, ts.URL+"/v1/batch", BatchRequest{Requests: []SolveRequest{mk(36)}}, &out)
	if out.Jobs[0].Status == StatusFailed {
		t.Fatalf("queue slot submission failed early: %+v", out.Jobs[0])
	}
	var eb errorBody
	if code := postJSON(t, ts.URL+"/v1/solve", mk(49), &eb); code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 (%+v)", code, eb)
	}
	if !strings.Contains(eb.Error, "queue full") {
		t.Fatalf("shed error %q", eb.Error)
	}
	close(block) // release the worker so the in-flight solves finish
	wg.Wait()
}

// TestJobTimeout stubs a stalling solver and expects 504 + a failed job,
// with the queue alive afterwards.
func TestJobTimeout(t *testing.T) {
	s, ts := startServer(t, Config{Workers: 1, JobTimeout: 20 * time.Millisecond})
	release := make(chan struct{})
	defer close(release)
	var stall atomic.Bool
	stall.Store(true)
	s.solve = func(ps *parsedSolve, hooks core.TraceHooks) (*core.Alg1Result, error) {
		if stall.Load() {
			<-release
		}
		return core.Alg1CSR(ps.csr, ps.params, core.PipelineOptions{Workers: 1})
	}
	var v JobView
	req := SolveRequest{Generator: &GeneratorSpec{Kind: "grid", N: 25, Seed: 1}}
	if code := postJSON(t, ts.URL+"/v1/solve", &req, &v); code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (%+v)", code, v)
	}
	if v.Status != StatusFailed || !strings.Contains(v.Error, "timed out") {
		t.Fatalf("job view %+v", v)
	}
	// The pathological job did not stall the daemon: a healthy request
	// still completes.
	stall.Store(false)
	req2 := SolveRequest{Generator: &GeneratorSpec{Kind: "grid", N: 16, Seed: 2}}
	if code := postJSON(t, ts.URL+"/v1/solve", &req2, &v); code != http.StatusOK || v.Status != StatusDone {
		t.Fatalf("post-timeout solve: %d %+v", code, v)
	}
}

// TestDrainFinishesAcceptedJobs: Drain must block until queued work
// completes — the SIGTERM contract.
func TestDrainFinishesAcceptedJobs(t *testing.T) {
	s, ts := startServer(t, Config{Workers: 2, QueueDepth: 8})
	var out struct {
		Jobs []BatchEntry `json:"jobs"`
	}
	batch := BatchRequest{Requests: []SolveRequest{
		{Generator: &GeneratorSpec{Kind: "ding", N: 50, T: 4, Seed: 1}},
		{Generator: &GeneratorSpec{Kind: "grid", N: 49, Seed: 2}},
		{Generator: &GeneratorSpec{Kind: "tree", N: 40, Seed: 3}},
	}}
	if code := postJSON(t, ts.URL+"/v1/batch", &batch, &out); code != http.StatusAccepted {
		t.Fatalf("batch status %d", code)
	}
	s.Drain()
	for _, entry := range out.Jobs {
		var v JobView
		getJSON(t, ts.URL+"/v1/jobs/"+entry.JobID, &v)
		if v.Status != StatusDone {
			t.Fatalf("after drain, job %s is %s", entry.JobID, v.Status)
		}
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	_, ts := startServer(t, Config{Workers: 1})
	req := SolveRequest{Generator: &GeneratorSpec{Kind: "grid", N: 25, Seed: 1}}
	postJSON(t, ts.URL+"/v1/solve", &req, nil)
	postJSON(t, ts.URL+"/v1/solve", &req, nil) // cache hit

	var hz map[string]any
	if code := getJSON(t, ts.URL+"/healthz", &hz); code != http.StatusOK {
		t.Fatalf("healthz status %d", code)
	}
	if hz["status"] != "ok" {
		t.Fatalf("healthz %+v", hz)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	text := string(data)
	for _, w := range []string{
		"mdsd_queue_depth 0",
		"mdsd_cache_hits_total 1",
		"mdsd_cache_misses_total 1",
		"mdsd_computations_total 1",
		"mdsd_inflight_dedup_total 0",
		`mdsd_jobs_total{status="done"} 2`,
		`mdsd_stage_duration_seconds_count{stage="Stitch"} 1`,
		`mdsd_stage_duration_seconds_sum{stage="TwinReduce"} `,
	} {
		if !strings.Contains(text, w) {
			t.Fatalf("metrics missing %q:\n%s", w, text)
		}
	}
	// The per-stage wall time and run count are the histogram's _sum and
	// _count; no second family repeats them.
	for _, gone := range []string{"mdsd_stage_wall_seconds_total", "mdsd_stage_runs_total"} {
		if strings.Contains(text, gone) {
			t.Fatalf("metrics still expose %s:\n%s", gone, text)
		}
	}
}
