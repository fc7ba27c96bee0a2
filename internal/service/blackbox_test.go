// Package service_test is the black-box saturation suite, modeled on
// podman's test/apiv2 harness: it boots a real daemon on a loopback TCP
// socket (no httptest shortcuts, no internal state), drives mixed
// cached/uncached/oversized/unauthorized traffic to queue saturation
// with a closed-loop load generator, and checks the daemon's degradation
// contract — deterministic 401/429/503 rejections, graceful drain with
// pollable jobs — from the outside. With MDSD_BENCH_OUT set it records
// throughput, p50/p95/p99 latency, and rejection counts as the
// BENCH_service.json perf snapshot (scripts/bench_service.sh).
package service_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"localmds/internal/service"
)

// daemon is one black-box instance: a real service behind a real socket.
type daemon struct {
	svc  *service.Server
	base string
	stop func()
}

func startDaemon(t *testing.T, cfg service.Config) *daemon {
	t.Helper()
	svc := service.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: svc.Handler(), ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = hs.Serve(ln) }()
	var once sync.Once
	d := &daemon{svc: svc, base: "http://" + ln.Addr().String()}
	d.stop = func() {
		once.Do(func() {
			_ = hs.Close()
			svc.Close()
		})
	}
	t.Cleanup(d.stop)
	return d
}

// benchClient shares a transport wide enough that connection churn does
// not masquerade as daemon latency.
var benchClient = &http.Client{
	Transport: &http.Transport{MaxIdleConnsPerHost: 64},
	Timeout:   30 * time.Second,
}

// solveBody builds a generator solve request.
func solveBody(kind string, n int, seed int64) []byte {
	return fmt.Appendf(nil, `{"generator": {"kind": %q, "n": %d, "seed": %d}}`, kind, n, seed)
}

// post issues one solve POST with an optional bearer token and returns
// the status code (0 on transport error).
func post(base, token string, body []byte) int {
	req, err := http.NewRequest("POST", base+"/v1/solve", bytes.NewReader(body))
	if err != nil {
		return 0
	}
	req.Header.Set("Content-Type", "application/json")
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := benchClient.Do(req)
	if err != nil {
		return 0
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

// obs is one observed request.
type obs struct {
	status int
	dur    time.Duration
}

// hammer runs a closed-loop load generator: `clients` goroutines each
// firing its next request the moment the previous one returns, until the
// deadline. fire receives the client index and a per-client sequence
// number and returns the HTTP status.
func hammer(clients int, duration time.Duration, fire func(client, seq int) int) []obs {
	results := make([][]obs, clients)
	deadline := time.Now().Add(duration)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seq := 0; time.Now().Before(deadline); seq++ {
				start := time.Now()
				status := fire(c, seq)
				results[c] = append(results[c], obs{status: status, dur: time.Since(start)})
			}
		}()
	}
	wg.Wait()
	var all []obs
	for _, r := range results {
		all = append(all, r...)
	}
	return all
}

// latencyMS summarizes a latency distribution in milliseconds.
type latencyMS struct {
	P50 float64 `json:"p50"`
	P95 float64 `json:"p95"`
	P99 float64 `json:"p99"`
}

// scenarioResult is one BENCH_service.json entry. The durability fields
// are only set by the restart/crash scenarios.
type scenarioResult struct {
	Name          string         `json:"name"`
	Clients       int            `json:"clients"`
	DurationS     float64        `json:"duration_s"`
	Requests      int            `json:"requests"`
	ThroughputRPS float64        `json:"throughput_rps"`
	Latency       latencyMS      `json:"latency_ms"`
	StatusCounts  map[string]int `json:"status_counts"`
	// WarmHitRate is the fraction of post-restart repeats served from the
	// persisted store (1.0 = zero recomputes).
	WarmHitRate float64 `json:"warm_hit_rate,omitempty"`
	// RestartToReadyMS is store scan + daemon boot + first healthy probe.
	RestartToReadyMS float64 `json:"restart_to_ready_ms,omitempty"`
	// Quarantined counts entries the post-crash scan refused to serve.
	Quarantined int64 `json:"quarantined,omitempty"`
	// DaemonSurvived records that the (restarted) daemon answered its
	// final health probe.
	DaemonSurvived bool `json:"daemon_survived,omitempty"`
}

func summarize(name string, clients int, duration time.Duration, all []obs) scenarioResult {
	counts := map[string]int{}
	durs := make([]time.Duration, 0, len(all))
	for _, o := range all {
		counts[fmt.Sprint(o.status)]++
		durs = append(durs, o.dur)
	}
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	pct := func(p float64) float64 {
		if len(durs) == 0 {
			return 0
		}
		i := int(p * float64(len(durs)-1))
		return float64(durs[i].Microseconds()) / 1e3
	}
	return scenarioResult{
		Name:          name,
		Clients:       clients,
		DurationS:     duration.Seconds(),
		Requests:      len(all),
		ThroughputRPS: float64(len(all)) / duration.Seconds(),
		Latency:       latencyMS{P50: pct(0.50), P95: pct(0.95), P99: pct(0.99)},
		StatusCounts:  counts,
	}
}

// benchDuration is the per-scenario load window: short by default so
// `go test ./...` stays fast, raised by scripts/bench_service.sh.
func benchDuration() time.Duration {
	if v := os.Getenv("MDSD_BENCH_DURATION"); v != "" {
		if d, err := time.ParseDuration(v); err == nil && d > 0 {
			return d
		}
	}
	return 500 * time.Millisecond
}

// TestSaturationBlackbox is the apiv2-style end-to-end gate. Every
// scenario boots a fresh daemon with a config tuned to saturate that
// path, so the expected rejection statuses appear deterministically.
func TestSaturationBlackbox(t *testing.T) {
	duration := benchDuration()
	var scenarios []scenarioResult

	// Scenario 1 — hot cache: identical requests, the steady state of a
	// well-shaped workload. Everything after the first compute is a
	// cache hit; throughput here is the service-layer ceiling.
	t.Run("hot_cache", func(t *testing.T) {
		d := startDaemon(t, service.Config{Workers: 2, QueueDepth: 16})
		body := solveBody("ding", 300, 42)
		if code := post(d.base, "", body); code != http.StatusOK {
			t.Fatalf("warm-up solve: status %d", code)
		}
		all := hammer(4, duration, func(_, _ int) int { return post(d.base, "", body) })
		res := summarize("hot_cache", 4, duration, all)
		scenarios = append(scenarios, res)
		if res.Requests == 0 {
			t.Fatal("no requests completed")
		}
		for status := range res.StatusCounts {
			if status != "200" {
				t.Fatalf("hot cache saw status %s: %+v", status, res.StatusCounts)
			}
		}
	})

	// Scenario 2 — queue saturation: eight closed-loop clients of
	// distinct uncached solves against one worker and a two-slot queue.
	// The daemon must shed the overflow with 503 + Retry-After and keep
	// serving the accepted fraction.
	t.Run("queue_saturation", func(t *testing.T) {
		d := startDaemon(t, service.Config{Workers: 1, QueueDepth: 2})
		all := hammer(8, duration, func(c, seq int) int {
			return post(d.base, "", solveBody("ding", 400, int64(c)<<32|int64(seq)))
		})
		res := summarize("queue_saturation", 8, duration, all)
		scenarios = append(scenarios, res)
		if res.StatusCounts["200"] == 0 {
			t.Fatalf("nothing served under saturation: %+v", res.StatusCounts)
		}
		if res.StatusCounts["503"] == 0 {
			t.Fatalf("no load shedding under 8x overload: %+v", res.StatusCounts)
		}
		// Sheds are fast-path rejections: the daemon stayed responsive.
		var hz map[string]any
		if err := getInto(d.base+"/healthz", &hz); err != nil || hz["status"] != "ok" {
			t.Fatalf("daemon unhealthy after saturation: %v %+v", err, hz)
		}
	})

	// Scenario 3 — adversarial mix: authenticated tenants under rate
	// limits and job quotas, plus unauthorized and oversized traffic.
	// Every rejection path must be deterministic: 400 oversized, 401
	// unauthenticated, 429 rate/quota, with 200s still flowing.
	t.Run("adversarial_mix", func(t *testing.T) {
		d := startDaemon(t, service.Config{
			Workers:          2,
			QueueDepth:       8,
			Tokens:           map[string]string{"alice": "bench-alice", "mallory": "bench-mallory"},
			RatePerSec:       200,
			RateBurst:        50,
			MaxJobsPerTenant: 1,
			JobTimeout:       10 * time.Second,
		})
		cached := solveBody("ding", 300, 7)
		oversized := solveBody("grid", 3_000_000, 0)
		all := hammer(8, duration, func(c, seq int) int {
			switch c {
			case 0, 1: // alice, well-behaved cached traffic
				return post(d.base, "bench-alice", cached)
			case 2, 3, 4: // mallory hammers uncached work into her quota
				return post(d.base, "bench-mallory", solveBody("ding", 400, int64(c)<<32|int64(seq)))
			case 5: // no credentials
				return post(d.base, "", cached)
			case 6: // stolen-looking wrong token
				return post(d.base, "wrong-token", cached)
			default: // alice trying an over-cap instance
				return post(d.base, "bench-alice", oversized)
			}
		})
		res := summarize("adversarial_mix", 8, duration, all)
		scenarios = append(scenarios, res)
		for _, want := range []string{"200", "400", "401", "429"} {
			if res.StatusCounts[want] == 0 {
				t.Fatalf("adversarial mix missing status %s: %+v", want, res.StatusCounts)
			}
		}
	})

	// Scenario 4 — drain under load: accepted jobs finish and stay
	// pollable while new work sheds with 503; the daemon answers to the
	// very end. This is the SIGTERM contract observed from outside.
	t.Run("drain_under_load", func(t *testing.T) {
		d := startDaemon(t, service.Config{Workers: 1, QueueDepth: 8})
		var batch struct {
			Jobs []struct {
				JobID  string `json:"job_id"`
				Status string `json:"status"`
			} `json:"jobs"`
		}
		reqs := make([]string, 4)
		for i := range reqs {
			reqs[i] = string(solveBody("ding", 3000, int64(100+i)))
		}
		body := `{"requests": [` + strings.Join(reqs, ",") + `]}`
		resp, err := benchClient.Post(d.base+"/v1/batch", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(resp.Body).Decode(&batch); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted || len(batch.Jobs) != 4 {
			t.Fatalf("batch: %d %+v", resp.StatusCode, batch)
		}

		d.svc.BeginDrain()
		if code := post(d.base, "", solveBody("ding", 500, 9)); code != http.StatusServiceUnavailable {
			t.Fatalf("solve during drain: status %d, want 503", code)
		}
		var poll struct {
			Status string `json:"status"`
		}
		if err := getInto(d.base+"/v1/jobs/"+batch.Jobs[0].JobID, &poll); err != nil {
			t.Fatalf("mid-drain poll failed: %v", err)
		}
		d.svc.Drain() // blocks until every accepted job is terminal
		for _, j := range batch.Jobs {
			if err := getInto(d.base+"/v1/jobs/"+j.JobID, &poll); err != nil || poll.Status != "done" {
				t.Fatalf("post-drain job %s: %v %+v", j.JobID, err, poll)
			}
		}
		var hz map[string]any
		if err := getInto(d.base+"/healthz", &hz); err != nil || hz["status"] != "draining" {
			t.Fatalf("post-drain healthz: %v %+v", err, hz)
		}
	})

	// Scenario 5 — restart on a warm store: a clean stop/start cycle on
	// the same -store-dir serves every repeat from disk, recomputing
	// nothing. Records warm-hit rate and restart-to-ready latency.
	t.Run("restart_warm", func(t *testing.T) {
		scenarios = append(scenarios, runRestartWarm(t, duration))
	})

	// Scenario 6 — kill -9 mid-load: a real daemon process dies without
	// drain, the log is wounded (torn tail, corrupt record), and the
	// restarted daemon must serve only checksum-valid entries with zero
	// recomputes for pre-kill completions.
	t.Run("kill9_recovery", func(t *testing.T) {
		scenarios = append(scenarios, runKill9Recovery(t, duration))
	})

	writeBenchReport(t, scenarios)
}

func getInto(url string, out any) error {
	resp, err := benchClient.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// benchReport is the BENCH_service.json document.
type benchReport struct {
	Generated      string           `json:"generated"`
	DurationS      float64          `json:"scenario_duration_s"`
	Scenarios      []scenarioResult `json:"scenarios"`
	DaemonSurvived bool             `json:"daemon_survived"`
}

// writeBenchReport emits BENCH_service.json when MDSD_BENCH_OUT is set.
// The load scenarios must all have run (the subtests above fail the test
// otherwise), and daemon_survived records that every daemon answered its
// final health probe.
func writeBenchReport(t *testing.T, scenarios []scenarioResult) {
	out := os.Getenv("MDSD_BENCH_OUT")
	if out == "" {
		return
	}
	if len(scenarios) < 3 {
		t.Fatalf("bench report with only %d scenarios", len(scenarios))
	}
	report := benchReport{
		Generated:      time.Now().UTC().Format(time.RFC3339),
		DurationS:      benchDuration().Seconds(),
		Scenarios:      scenarios,
		DaemonSurvived: !t.Failed(),
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", out)
}

// wireEvent is the subset of the /v1/events JSON payload the black-box
// ordering test cares about.
type wireEvent struct {
	Seq   uint64 `json:"seq"`
	Type  string `json:"type"`
	JobID string `json:"job_id"`
}

// TestEventsStreamUnderLoad checks the /v1/events contract from the
// outside, under concurrent traffic: one SSE subscriber attached before
// the load sees a strictly increasing seq, the full
// submitted→started→done lifecycle for every distinct job, and exactly
// one cached event per hot-cache repeat — no gaps, no reordering, no
// stray terminal states.
func TestEventsStreamUnderLoad(t *testing.T) {
	d := startDaemon(t, service.Config{Workers: 4, QueueDepth: 128, CacheEntries: 64})

	resp, err := benchClient.Get(d.base + "/v1/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content-type = %q, want text/event-stream", ct)
	}

	events := make(chan wireEvent, 256)
	go func() {
		defer close(events)
		sc := bufio.NewScanner(resp.Body)
		var data string
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "data: "):
				data = strings.TrimPrefix(line, "data: ")
			case line == "": // frame boundary
				if data == "" {
					continue
				}
				var ev wireEvent
				if err := json.Unmarshal([]byte(data), &ev); err == nil {
					events <- ev
				}
				data = ""
			}
		}
	}()

	// Cold wave: distinct graphs fired concurrently, each a full
	// submitted/started/done lifecycle.
	const distinct = 16
	var wg sync.WaitGroup
	for i := 0; i < distinct; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			if code := post(d.base, "", solveBody("ding", 60, seed)); code != http.StatusOK {
				t.Errorf("cold solve seed %d: status %d", seed, code)
			}
		}(int64(i + 1))
	}
	wg.Wait()
	// Hot wave: the same graphs again, each a pure cache hit.
	for i := 0; i < distinct; i++ {
		if code := post(d.base, "", solveBody("ding", 60, int64(i+1))); code != http.StatusOK {
			t.Errorf("hot solve seed %d: status %d", i+1, code)
		}
	}

	perJob := map[string][]string{}
	var cachedN, doneN int
	var lastSeq uint64
	deadline := time.After(30 * time.Second)
	for cachedN < distinct || doneN < distinct {
		select {
		case ev, ok := <-events:
			if !ok {
				t.Fatalf("stream closed early: %d done, %d cached", doneN, cachedN)
			}
			if ev.Seq <= lastSeq {
				t.Fatalf("seq went %d -> %d: events reordered or duplicated", lastSeq, ev.Seq)
			}
			lastSeq = ev.Seq
			if ev.Type == "cached" {
				cachedN++
				continue
			}
			perJob[ev.JobID] = append(perJob[ev.JobID], ev.Type)
			if ev.Type == "done" {
				doneN++
			}
		case <-deadline:
			t.Fatalf("timed out: %d/%d done, %d/%d cached, jobs %v",
				doneN, distinct, cachedN, distinct, perJob)
		}
	}

	if len(perJob) != distinct {
		t.Errorf("lifecycle events for %d jobs, want %d", len(perJob), distinct)
	}
	want := []string{"submitted", "started", "done"}
	for id, got := range perJob {
		if !slices.Equal(got, want) {
			t.Errorf("job %s lifecycle = %v, want %v", id, got, want)
		}
	}
}
