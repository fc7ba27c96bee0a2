package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// chromeDump is the shape -trace writes: the Chrome trace-event top-level
// object with complete ("X") events.
type chromeDump struct {
	TraceEvents []struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		TS   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		TID  int     `json:"tid"`
	} `json:"traceEvents"`
	Metadata struct {
		TraceID string `json:"trace_id"`
	} `json:"metadata"`
}

func readTrace(t *testing.T, path string) chromeDump {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var dump chromeDump
	if err := json.Unmarshal(data, &dump); err != nil {
		t.Fatalf("trace not valid JSON: %v\n%s", err, data)
	}
	return dump
}

// alg1Stages are Alg1CSR's stage spans; mvcStages are MVCAlg1's, which
// has no TwinReduce.
var (
	alg1Stages = []string{"solve", "TwinReduce", "Cuts", "Partition", "ComponentSolve", "Stitch"}
	mvcStages  = []string{"solve", "Cuts", "Partition", "ComponentSolve", "Stitch"}
)

func assertStagedTrace(t *testing.T, dump chromeDump, stages []string) {
	t.Helper()
	names := make(map[string]int)
	for _, ev := range dump.TraceEvents {
		if ev.Ph != "X" {
			t.Fatalf("event %q has phase %q, want X (complete)", ev.Name, ev.Ph)
		}
		names[ev.Name]++
	}
	for _, stage := range stages {
		if names[stage] == 0 {
			t.Errorf("trace missing a %q event; got %v", stage, names)
		}
	}
}

func TestRunTraceAlg1(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	var out strings.Builder
	if err := run([]string{"-graph", "cactus", "-n", "60", "-alg", "alg1", "-trace", path}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "wrote trace "+path) {
		t.Errorf("output missing trace confirmation:\n%s", out.String())
	}
	dump := readTrace(t, path)
	assertStagedTrace(t, dump, alg1Stages)
	if dump.Metadata.TraceID != "mdsrun" {
		t.Errorf("trace_id = %q, want mdsrun", dump.Metadata.TraceID)
	}
}

// TestRunTraceAlg1Huge traces -alg alg1 on a csrbin file, the large-graph
// input whose CSR is mmap'd: the span tree is the same as on a generated graph.
func TestRunTraceAlg1Huge(t *testing.T) {
	csrbinPath, _, _ := writeGrid(t)
	path := filepath.Join(t.TempDir(), "trace.json")
	var out strings.Builder
	if err := run([]string{"-in", csrbinPath, "-alg", "alg1", "-trace", path}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	assertStagedTrace(t, readTrace(t, path), alg1Stages)
}

func TestRunTraceMVCAlg1(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	var out strings.Builder
	if err := run([]string{"-graph", "ding", "-n", "60", "-alg", "mvc-alg1", "-trace", path}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	dump := readTrace(t, path)
	assertStagedTrace(t, dump, mvcStages)
	for _, ev := range dump.TraceEvents {
		if ev.Name == "TwinReduce" {
			t.Errorf("mvc-alg1 trace has a TwinReduce span")
		}
	}
}

func TestRunTraceRejectsUntracedAlgs(t *testing.T) {
	for _, alg := range []string{"greedy", "d2", "tree", "exact", "alg1-local", "mvc-d2"} {
		var out strings.Builder
		err := run([]string{"-graph", "cycle", "-n", "12", "-alg", alg, "-trace", "/tmp/nope.json"}, &out)
		if err == nil || !strings.Contains(err.Error(), "-trace requires -alg alg1 or mvc-alg1 (the staged drivers)") {
			t.Errorf("-alg %s -trace: err = %v, want the staged-drivers error", alg, err)
		}
	}
}
