package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"localmds/internal/core"
	"localmds/internal/graphio"
)

// tinyScale shrinks every input and operation list so the self-test runs
// each workload in about a second.
const tinyScale = 10

func tinyConfig(t *testing.T, workload string, trace bool) *config {
	return &config{workload: workload, seed: 3, seconds: 1, trace: trace, scale: tinyScale,
		workDir: t.TempDir(), pinned: map[string]string{}}
}

// TestWorkloadsAtTinyScale runs every workload, untraced and traced, and
// checks that no operation fails and every contract metric is reported.
func TestWorkloadsAtTinyScale(t *testing.T) {
	for name, drive := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := tinyConfig(t, name, trace)
			rep, err := drive(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if rep.failed != 0 || rep.attempted == 0 {
				t.Fatalf("%s trace=%v: %d of %d operations failed", name, trace, rep.failed, rep.attempted)
			}
			if err := selectMetrics(rep, trace); err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			var out bytes.Buffer
			if err := emit(&out, cfg, rep); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct bool                       `json:"correct"`
				Metrics map[string]json.RawMessage `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil || !res.Correct {
				t.Fatalf("%s trace=%v: result line %q (%v)", name, trace, lines[len(lines)-1], err)
			}
			want := len(endToEnd)
			if trace {
				want = len(perLayer)
			}
			if len(res.Metrics) != want {
				t.Fatalf("%s trace=%v: %d metrics, want %d", name, trace, len(res.Metrics), want)
			}
			if !trace && rep.metrics["sol_over_lb"].Value < 1 {
				t.Fatalf("%s: sol_over_lb %v < 1: the lower bound exceeds an answer", name, rep.metrics["sol_over_lb"].Value)
			}
			if trace {
				hit := rep.metrics["service.cache_hit_ratio"].Value
				comps := rep.metrics["service.computations"].Value
				switch name {
				case "serve_hot":
					if hit != 1 || comps != 0 {
						t.Fatalf("serve_hot: hit ratio %v, computations %v; want 1 and 0", hit, comps)
					}
				case "serve_cold":
					entries := rep.metrics["store.entries"].Value
					if hit != 0 || comps != float64(rep.attempted) || entries != float64(rep.attempted) {
						t.Fatalf("serve_cold: hit ratio %v, computations %v, store entries %v; want 0, %d, %d",
							hit, comps, entries, rep.attempted, rep.attempted)
					}
				}
			}
		}
	}
}

// dropCritical returns s without a vertex whose removal leaves some
// vertex undominated.
func dropCritical(t *testing.T, o *oracle, s []int) []int {
	for i := range s {
		cut := append(append([]int(nil), s[:i]...), s[i+1:]...)
		if o.check(cut) != nil {
			return cut
		}
	}
	t.Fatal("every vertex of the answer is redundant")
	return nil
}

// TestSolveCheckRejectsCorruptAnswer: the solve workload's check fails on
// an answer with one vertex dropped.
func TestSolveCheckRejectsCorruptAnswer(t *testing.T) {
	ins, err := makeSolveInputs(5, tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	in := ins[0]
	in.prepare()
	g, err := graphio.Read(bytes.NewReader(in.text), graphio.FormatAuto)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Alg1Pipeline(g, core.PracticalParams(), core.PipelineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := in.or.check(res.S); err != nil {
		t.Fatalf("the correct answer fails the check: %v", err)
	}
	if err := in.or.check(dropCritical(t, in.or, res.S)); err == nil {
		t.Fatal("an answer with a vertex dropped passes the check")
	}
}

// TestServeChecksRejectWrongAnswers: the serve workloads' check fails on a
// corrupted answer, on a miss where a hit was expected and on a hit where
// a miss was expected.
func TestServeChecksRejectWrongAnswers(t *testing.T) {
	ins, err := makeHotInputs(5, tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	in := ins[0]
	in.prepare()
	srv, err := startServer("")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.close()
	c := newClient()
	body := requestBody(in)
	status, miss, _, err := post(c, srv.url, body)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := checkResponse(status, miss, in, false); err != nil {
		t.Fatalf("first request: %v", err)
	}
	status, hit, _, err := post(c, srv.url, body)
	if err != nil {
		t.Fatal(err)
	}
	v, err := checkResponse(status, hit, in, true)
	if err != nil {
		t.Fatalf("repeated request: %v", err)
	}
	if _, err := checkResponse(status, miss, in, true); err == nil {
		t.Fatal("a miss passes where a hit was expected")
	}
	if _, err := checkResponse(status, hit, in, false); err == nil {
		t.Fatal("a hit passes where a miss was expected")
	}
	var raw map[string]any
	if err := json.Unmarshal(hit, &raw); err != nil {
		t.Fatal(err)
	}
	raw["result"].(map[string]any)["s"] = dropCritical(t, in.or, v.Result.S)
	corrupt, err := json.Marshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := checkResponse(status, corrupt, in, true); err == nil {
		t.Fatal("an answer with a vertex dropped passes the check")
	}
	if _, err := checkResponse(500, hit, in, true); err == nil {
		t.Fatal("a non-200 response passes the check")
	}
}

// TestDigestMismatchFailsRun: every workload refuses to report when its
// generated inputs differ from the pinned digest, and accepts the right one.
func TestDigestMismatchFailsRun(t *testing.T) {
	for name, drive := range workloads {
		cfg := tinyConfig(t, name, false)
		cfg.pinned[pinKey(name, cfg.seed)] = "0123456789abcdef0123456789abcdef"
		if _, err := drive(cfg); err == nil || !strings.Contains(err.Error(), "digest") {
			t.Fatalf("%s: run with a wrong pinned digest: err = %v, want a digest mismatch", name, err)
		}
		cfg = tinyConfig(t, name, false)
		rep, err := drive(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg = tinyConfig(t, name, false)
		cfg.pinned[pinKey(name, cfg.seed)] = rep.manifest["input_digest"].(string)
		if _, err := drive(cfg); err != nil {
			t.Fatalf("%s: run with its own pinned digest: %v", name, err)
		}
	}
}

// TestTwoPackingIsALowerBound checks the oracle's bound on graphs with a
// known minimum dominating set: a path on 3k vertices needs k.
func TestTwoPackingIsALowerBound(t *testing.T) {
	for k := 1; k <= 6; k++ {
		var edges [][2]int32
		for v := 0; v+1 < 3*k; v++ {
			edges = append(edges, [2]int32{int32(v), int32(v + 1)})
		}
		o := newOracle(3*k, edges)
		if o.lb < 1 || o.lb > k {
			t.Fatalf("P_%d: 2-packing bound %d, want within [1,%d]", 3*k, o.lb, k)
		}
	}
}
