package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"localmds/internal/gen"
	"localmds/internal/graphio"
)

// writeTemp writes content into a temp file and returns its path.
func writeTemp(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunFromEdgeListAndDIMACS: -in auto-detects all three encodings of
// the same C6 and produces identical reports.
func TestRunFromEdgeListAndDIMACS(t *testing.T) {
	inputs := map[string]string{
		"c6.json":   `{"n":6,"edges":[[0,1],[1,2],[2,3],[3,4],[4,5],[0,5]]}`,
		"c6.txt":    "0 1\n1 2\n2 3\n3 4\n4 5\n5 0\n",
		"c6.dimacs": "c cycle on six vertices\np edge 6 6\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 5 6\ne 6 1\n",
	}
	var reports []string
	for name, content := range inputs {
		var out strings.Builder
		if err := run([]string{"-in", writeTemp(t, name, content), "-alg", "alg1"}, &out); err != nil {
			t.Fatalf("run(-in %s): %v", name, err)
		}
		if !strings.Contains(out.String(), "valid dominating set: true") {
			t.Fatalf("%s: %s", name, out.String())
		}
		reports = append(reports, out.String())
	}
	for i := 1; i < len(reports); i++ {
		if reports[i] != reports[0] {
			t.Fatalf("reports differ across input formats:\n%s\nvs\n%s", reports[0], reports[i])
		}
	}
}

// TestRunExplicitFormat: -format pins the parser even when detection
// would pick another.
func TestRunExplicitFormat(t *testing.T) {
	path := writeTemp(t, "p4.edges", "0 1\n1 2\n2 3\n")
	var out strings.Builder
	if err := run([]string{"-in", path, "-format", "edgelist", "-alg", "greedy"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "valid dominating set: true") {
		t.Fatal(out.String())
	}
}

// TestRunMalformedInputLineColumn: malformed text input fails with a
// line/column message and no panic — the no-panics hardening contract.
func TestRunMalformedInputLineColumn(t *testing.T) {
	cases := map[string]string{
		"bad.txt":    "0 1\n1 x\n",
		"bad.dimacs": "p edge 3 1\ne 1 9\n",
		"bad.json":   `{"n":2,"edges":[[0,5]]}`,
	}
	for name, content := range cases {
		var out strings.Builder
		err := run([]string{"-in", writeTemp(t, name, content), "-alg", "greedy"}, &out)
		if err == nil {
			t.Fatalf("%s: want error", name)
		}
		if strings.HasSuffix(name, ".json") {
			continue // JSON errors carry no line/col, just a clean message
		}
		if !strings.Contains(err.Error(), "line 2") {
			t.Fatalf("%s: error %q lacks line position", name, err)
		}
	}
}

// TestRunHugeMatchesAlg1: the huge driver solves the same instance as the
// staged pipeline — from a csrbin file (mmap path), the equivalent edge
// list (parallel text path), and the generator — with the same solution
// set, and validates against the CSR. It runs at the default radii: at
// R1 = 1 every vertex is a cut vertex and S = V, so matching sizes would
// prove only that each loader got n right.
func TestRunHugeMatchesAlg1(t *testing.T) {
	dir := t.TempDir()
	csrbinPath := filepath.Join(dir, "g.csrbin")
	edgesPath := filepath.Join(dir, "g.edges")
	g, err := gen.FromKind("grid", 100, 5, 0, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	if err := graphio.WriteCSRBinFile(csrbinPath, g.Freeze()); err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(edgesPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := graphio.WriteEdgeList(f, g); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var ref strings.Builder
	if err := run([]string{"-in", csrbinPath, "-alg", "alg1"}, &ref); err != nil {
		t.Fatalf("alg1 reference: %v", err)
	}
	refSize, refSet := sizeLine(t, ref.String()), digestLine(t, ref.String())
	if refSize == fmt.Sprintf("solution size: %d", g.N()) {
		t.Fatalf("reference solution is all of V (%s): the comparison would be vacuous", refSize)
	}

	for _, args := range [][]string{
		{"-in", csrbinPath, "-alg", "alg1-huge"}, // auto-sniffed mmap
		{"-in", csrbinPath, "-alg", "alg1-huge", "-format", "csrbin"},
		{"-in", edgesPath, "-alg", "alg1-huge", "-workers", "3"}, // parallel text
		{"-graph", "grid", "-n", "100", "-seed", "11", "-alg", "alg1-huge", "-stages"},
	} {
		var out strings.Builder
		if err := run(args, &out); err != nil {
			t.Fatalf("run(%v): %v", args, err)
		}
		if !strings.Contains(out.String(), "valid dominating set: true") {
			t.Fatalf("run(%v): %s", args, out.String())
		}
		if got := sizeLine(t, out.String()); got != refSize {
			t.Fatalf("run(%v): %q != alg1 reference %q", args, got, refSize)
		}
		if got := digestLine(t, out.String()); got != refSet {
			t.Fatalf("run(%v): %q != alg1 reference %q", args, got, refSet)
		}
	}
}

// digestLine extracts the "solution digest:" line from a report.
func digestLine(t *testing.T, report string) string {
	t.Helper()
	for _, line := range strings.Split(report, "\n") {
		if strings.HasPrefix(line, "solution digest:") {
			return line
		}
	}
	t.Fatalf("no solution digest line in %q", report)
	return ""
}

// sizeLine extracts the "solution size:" line from a report.
func sizeLine(t *testing.T, report string) string {
	t.Helper()
	for _, line := range strings.Split(report, "\n") {
		if strings.HasPrefix(line, "solution size:") {
			return line
		}
	}
	t.Fatalf("no solution size line in %q", report)
	return ""
}

// TestRunHugeRejectsOptAndDot: the huge path has no adjacency graph to
// probe or draw, so -opt and -dot are clean one-line errors.
func TestRunHugeRejectsOptAndDot(t *testing.T) {
	for _, extra := range [][]string{{"-opt"}, {"-dot", "out.dot"}} {
		args := append([]string{"-alg", "alg1-huge", "-graph", "cycle", "-n", "10"}, extra...)
		var out strings.Builder
		if err := run(args, &out); err == nil ||
			!strings.Contains(err.Error(), "alg1-huge does not support") {
			t.Fatalf("run(%v): want rejection, got %v", args, err)
		}
	}
}

// TestRunFromStdin: "-in -" reads the graph from stdin.
func TestRunFromStdin(t *testing.T) {
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdin
	os.Stdin = r
	defer func() { os.Stdin = old }()
	go func() {
		w.WriteString("0 1\n1 2\n2 0\n")
		w.Close()
	}()
	var out strings.Builder
	if err := run([]string{"-in", "-", "-alg", "greedy"}, &out); err != nil {
		t.Fatalf("run(-in -): %v", err)
	}
	if !strings.Contains(out.String(), "valid dominating set: true") {
		t.Fatal(out.String())
	}
}
