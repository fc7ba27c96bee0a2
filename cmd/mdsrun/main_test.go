package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"localmds/internal/graph"
	"localmds/internal/graphio"
)

func TestRunCycleAlg1(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-graph", "cycle", "-n", "30", "-alg", "alg1"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	got := out.String()
	for _, want := range []string{
		"graph: Graph(n=30, m=30) (diameter 15)",
		"valid dominating set: true",
		"optimum: 10",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestRunDistributedReportsRounds(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-graph", "cycle", "-n", "24", "-alg", "d2-local"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "LOCAL rounds: ") {
		t.Errorf("distributed run did not report rounds:\n%s", out.String())
	}
}

func TestRunMVC(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-graph", "cycle", "-n", "18", "-alg", "mvc-d2"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "valid vertex cover: true") {
		t.Errorf("MVC run invalid:\n%s", out.String())
	}
}

// TestRunStagesTable checks that -stages prints the pipeline's per-stage
// table with every stage named, and that it is rejected for algorithms
// that do not run the staged pipeline.
func TestRunStagesTable(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-graph", "ding", "-n", "60", "-alg", "alg1", "-stages"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	got := out.String()
	for _, want := range []string{
		"pipeline stages:",
		"TwinReduce", "Cuts", "Partition", "ComponentSolve", "Stitch", "total",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("-stages output missing %q:\n%s", want, got)
		}
	}

	var plain strings.Builder
	if err := run([]string{"-graph", "ding", "-n", "60", "-alg", "alg1"}, &plain); err != nil {
		t.Fatalf("run: %v", err)
	}
	if strings.Contains(plain.String(), "pipeline stages:") {
		t.Error("stage table printed without -stages")
	}
}

// TestRunFromJSONDisconnected drives the generate → encode → solve
// round-trip and checks the disconnected-graph report: a 3-component
// graph must say so instead of printing a misleading bare "(diameter 1)".
func TestRunFromJSONDisconnected(t *testing.T) {
	g := graph.New(6)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	g.AddEdge(4, 5)
	path := filepath.Join(t.TempDir(), "g.json")
	if err := graphio.WriteFile(path, g.Freeze(), graphio.FormatJSON); err != nil {
		t.Fatal(err)
	}

	var out strings.Builder
	if err := run([]string{"-in", path, "-alg", "greedy"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	got := out.String()
	if !strings.Contains(got, "3 components") {
		t.Errorf("disconnected graph not reported as such:\n%s", got)
	}
	if !strings.Contains(got, "diameter 1 = max eccentricity over reachable pairs") {
		t.Errorf("disconnected diameter not labeled:\n%s", got)
	}
	if !strings.Contains(got, "valid dominating set: true") {
		t.Errorf("greedy solution invalid on disconnected graph:\n%s", got)
	}
}

func TestRunConnectedKeepsPlainDiameterLine(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-graph", "grid", "-n", "16", "-alg", "greedy"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "(diameter 6)\n") {
		t.Errorf("connected graph line changed:\n%s", out.String())
	}
}

func TestRunWritesDOT(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.dot")
	var out strings.Builder
	if err := run([]string{"-graph", "cycle", "-n", "12", "-dot", path}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("dot file: %v", err)
	}
	if !strings.HasPrefix(string(data), "graph ") {
		t.Errorf("dot file malformed: %q", string(data)[:20])
	}
}

func TestInvalidInputsErrorCleanly(t *testing.T) {
	cases := [][]string{
		{"-graph", "cycle", "-n", "0"},                               // zero size
		{"-graph", "cycle", "-n", "-3"},                              // negative size
		{"-graph", "cycle", "-n", "2"},                               // below the generator's minimum (panics in gen)
		{"-graph", "ding", "-t", "1"},                                // invalid K_{2,t} parameter
		{"-graph", "nosuch"},                                         // unknown generator
		{"-alg", "nosuch", "-graph", "cycle", "-n", "12"},            // unknown algorithm
		{"-r1", "-1", "-graph", "cycle", "-n", "12"},                 // negative radius
		{"-in", "/nonexistent/graph.json"},                           // missing input file
		{"-stages", "-alg", "greedy", "-graph", "cycle", "-n", "12"}, // -stages without the pipeline
		{"-stages", "-alg", "d2-local", "-graph", "cycle", "-n", "12"},
	}
	for _, args := range cases {
		var out strings.Builder
		err := func() (err error) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("run(%v) panicked: %v", args, r)
				}
			}()
			return run(args, &out)
		}()
		if err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

// TestUnknownAlgorithmFailsBeforeLoading: -alg is checked with the other
// flags, so an unknown algorithm is the error even when the input file
// does not exist.
func TestUnknownAlgorithmFailsBeforeLoading(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-alg", "nope", "-in", filepath.Join(t.TempDir(), "missing.edges")}, &out)
	if err == nil || err.Error() != `unknown algorithm "nope"` {
		t.Fatalf("err = %v, want the unknown algorithm", err)
	}
	if out.Len() != 0 {
		t.Fatalf("printed before failing:\n%s", out.String())
	}
}

// TestRunOptFlag checks that -opt forces the exact optimum: a 9x9 grid
// (beyond the old solver's practical reach) reports OPT 20, an instance
// over the solver cap is a clean error naming the cap, and the ratio line
// appears for approximation algorithms.
func TestRunOptFlag(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-graph", "grid", "-n", "81", "-alg", "greedy", "-opt"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	got := out.String()
	if !strings.Contains(got, "optimum: 20, ratio: ") {
		t.Errorf("-opt output missing exact optimum:\n%s", got)
	}
}

func TestRunOptFlagOverCapFailsCleanly(t *testing.T) {
	var out strings.Builder
	// -n 900 builds a 30x30 grid: over MaxExactMDSVertices, high treewidth.
	err := run([]string{"-graph", "grid", "-n", "900", "-alg", "greedy", "-opt"}, &out)
	if err == nil {
		t.Fatal("-opt on an over-cap instance should fail")
	}
	if !strings.Contains(err.Error(), "capped") {
		t.Errorf("error should name the solver cap, got: %v", err)
	}
	if strings.Contains(out.String(), "optimum:") {
		t.Errorf("no optimum line expected on failure:\n%s", out.String())
	}
}

// TestRunAlg1WorkersSameSolution checks that -workers reaches -alg alg1
// without changing the answer: one worker and three print the same report
// and write the same solution into the DOT file.
func TestRunAlg1WorkersSameSolution(t *testing.T) {
	var outs, dots [2]string
	path := filepath.Join(t.TempDir(), "out.dot") // one path, so the reports match
	for i, w := range []string{"1", "3"} {
		var out strings.Builder
		if err := run([]string{"-graph", "ding", "-n", "150", "-seed", "4", "-alg", "alg1", "-workers", w, "-dot", path}, &out); err != nil {
			t.Fatalf("-workers %s: %v", w, err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("dot file: %v", err)
		}
		outs[i], dots[i] = out.String(), string(data)
	}
	if !strings.Contains(outs[0], "valid dominating set: true") {
		t.Fatalf("-workers 1 output invalid:\n%s", outs[0])
	}
	if outs[0] != outs[1] || dots[0] != dots[1] {
		t.Errorf("-workers 1 and -workers 3 differ:\n%s\nvs\n%s", outs[0], outs[1])
	}
}

// TestRunMVCAlg1StagesAndWorkers checks that -stages and -workers reach
// -alg mvc-alg1: the stage table names its four stages (it has no
// TwinReduce), and one worker and three write the same report and the
// same cover into the DOT file.
func TestRunMVCAlg1StagesAndWorkers(t *testing.T) {
	var staged strings.Builder
	if err := run([]string{"-graph", "ding", "-n", "60", "-alg", "mvc-alg1", "-stages"}, &staged); err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, want := range []string{"pipeline stages:", "Cuts", "Partition", "ComponentSolve", "Stitch"} {
		if !strings.Contains(staged.String(), want) {
			t.Errorf("-stages output missing %q:\n%s", want, staged.String())
		}
	}
	if strings.Contains(staged.String(), "TwinReduce") {
		t.Errorf("mvc-alg1 stage table lists TwinReduce:\n%s", staged.String())
	}

	var outs, dots [2]string
	path := filepath.Join(t.TempDir(), "out.dot")
	for i, w := range []string{"1", "3"} {
		var out strings.Builder
		if err := run([]string{"-graph", "ding", "-n", "150", "-seed", "4", "-alg", "mvc-alg1", "-workers", w, "-dot", path}, &out); err != nil {
			t.Fatalf("-workers %s: %v", w, err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("dot file: %v", err)
		}
		outs[i], dots[i] = out.String(), string(data)
	}
	if !strings.Contains(outs[0], "valid vertex cover: true") {
		t.Fatalf("-workers 1 output invalid:\n%s", outs[0])
	}
	if outs[0] != outs[1] || dots[0] != dots[1] {
		t.Errorf("-workers 1 and -workers 3 differ:\n%s\nvs\n%s", outs[0], outs[1])
	}
}
