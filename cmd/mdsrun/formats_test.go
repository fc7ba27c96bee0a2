package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
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

// writeGrid writes the 10x10 grid that the loader tests share as a csrbin
// file and as an edge list, and returns both paths and the vertex count.
func writeGrid(t *testing.T) (csrbinPath, edgesPath string, n int) {
	t.Helper()
	dir := t.TempDir()
	csrbinPath = filepath.Join(dir, "g.csrbin")
	edgesPath = filepath.Join(dir, "g.edges")
	g, err := gen.FromKind("grid", 100, 5, 0, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	if err := graphio.WriteFile(csrbinPath, g, graphio.FormatCSRBin); err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(edgesPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := graphio.Write(f, g, graphio.FormatEdgeList); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return csrbinPath, edgesPath, g.N()
}

// TestRunAlg1LoadersAgree: every -alg chooses the same solution set
// whichever way the instance is loaded — a csrbin file (mmap'd, format
// sniffed or pinned), the equivalent edge list (chunked text parse at
// three workers) or the generator — and validates it; the *-local
// algorithms also report the same LOCAL rounds and messages. It runs at
// the default radii: at R1 = 1 every vertex is a cut vertex and alg1's
// S = V, so matching sets would prove only that each loader got n right.
func TestRunAlg1LoadersAgree(t *testing.T) {
	csrbinPath, edgesPath, n := writeGrid(t)
	for _, alg := range algorithms {
		t.Run(alg, func(t *testing.T) {
			var ref strings.Builder
			if err := run([]string{"-in", csrbinPath, "-alg", alg}, &ref); err != nil {
				t.Fatalf("csrbin reference: %v", err)
			}
			if !strings.Contains(ref.String(), "valid dominating set: true") && !strings.Contains(ref.String(), "valid vertex cover: true") {
				t.Fatalf("csrbin reference is not valid: %s", ref.String())
			}
			if runtime.GOOS == "linux" && !strings.Contains(ref.String(), "csr: mmap-backed") {
				t.Errorf("csrbin input was not mmap'd:\n%s", ref.String())
			}
			if alg == "alg1" && reportLine(t, ref.String(), "solution size:") == fmt.Sprintf("solution size: %d", n) {
				t.Fatalf("reference solution is all of V: the comparison would be vacuous")
			}
			prefixes := []string{"solution digest:"}
			if strings.HasSuffix(alg, "-local") {
				prefixes = append(prefixes, "LOCAL rounds:")
			}
			for _, args := range [][]string{
				{"-in", csrbinPath, "-alg", alg, "-format", "csrbin"},
				{"-in", edgesPath, "-alg", alg, "-workers", "3"},
				{"-graph", "grid", "-n", "100", "-seed", "11", "-alg", alg},
			} {
				var out strings.Builder
				if err := run(args, &out); err != nil {
					t.Fatalf("run(%v): %v", args, err)
				}
				for _, prefix := range prefixes {
					if got, want := reportLine(t, out.String(), prefix), reportLine(t, ref.String(), prefix); got != want {
						t.Fatalf("run(%v): %q != csrbin reference %q", args, got, want)
					}
				}
			}
		})
	}
}

// reportLine extracts the line starting with prefix from a report.
func reportLine(t *testing.T, report, prefix string) string {
	t.Helper()
	for _, line := range strings.Split(report, "\n") {
		if strings.HasPrefix(line, prefix) {
			return line
		}
	}
	t.Fatalf("no %q line in %q", prefix, report)
	return ""
}

// TestRunCSRBinOptAndDot: -opt and -dot work on a csrbin input (the DOT
// file is rendered from the mmap'd CSR) and match what the same graph
// gives as an edge list, for Algorithm 1, a baseline and the vertex-cover
// variant.
func TestRunCSRBinOptAndDot(t *testing.T) {
	csrbinPath, edgesPath, _ := writeGrid(t)
	for _, alg := range []string{"alg1", "greedy", "mvc-alg1"} {
		var opts, dots [2]string
		for i, in := range []string{csrbinPath, edgesPath} {
			dot := filepath.Join(t.TempDir(), "out.dot")
			var out strings.Builder
			if err := run([]string{"-in", in, "-alg", alg, "-opt", "-dot", dot}, &out); err != nil {
				t.Fatalf("run(-in %s -alg %s): %v", in, alg, err)
			}
			data, err := os.ReadFile(dot)
			if err != nil {
				t.Fatalf("dot file: %v", err)
			}
			opts[i], dots[i] = reportLine(t, out.String(), "optimum: "), string(data)
		}
		if opts[0] != opts[1] {
			t.Errorf("-alg %s: -opt lines differ: csrbin %q, edge list %q", alg, opts[0], opts[1])
		}
		if !strings.Contains(dots[0], "graph solution") || dots[0] != dots[1] {
			t.Errorf("-alg %s: -dot files differ:\n%s\nvs\n%s", alg, dots[0], dots[1])
		}
	}
}

// TestRunPicksMmapByMagic: with -format auto, -in maps a csrbin file by
// its magic bytes whatever it is called, and parses a text file as text
// even when it carries the .csrbin suffix; both give the same solution.
func TestRunPicksMmapByMagic(t *testing.T) {
	dir := t.TempDir()
	c, err := gen.FromKind("grids", 288, 5, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(dir, "g.bin")
	disguised := filepath.Join(dir, "t.csrbin")
	if err := graphio.WriteFile(bin, c, graphio.FormatCSRBin); err != nil {
		t.Fatal(err)
	}
	if err := graphio.WriteFile(disguised, c, graphio.FormatEdgeList); err != nil {
		t.Fatal(err)
	}

	// The default radii (R1 = R2 = 4) leave the 12x12 components whole;
	// at R1 = 1 every grid vertex is a local cut and S = V on any loader.
	var mapped, parsed strings.Builder
	if err := run([]string{"-in", bin, "-alg", "alg1"}, &mapped); err != nil {
		t.Fatalf("run(-in %s): %v", bin, err)
	}
	if runtime.GOOS == "linux" && !strings.Contains(mapped.String(), "csr: mmap-backed") {
		t.Fatalf("csrbin named %s was not mmap'd:\n%s", bin, mapped.String())
	}
	if reportLine(t, mapped.String(), "solution size:") == fmt.Sprintf("solution size: %d", c.N()) {
		t.Fatalf("csrbin solve took every vertex:\n%s", mapped.String())
	}
	if err := run([]string{"-in", disguised, "-alg", "alg1"}, &parsed); err != nil {
		t.Fatalf("run(-in %s): %v", disguised, err)
	}
	if strings.Contains(parsed.String(), "csr: mmap-backed") {
		t.Fatalf("edge list named %s was opened as csrbin:\n%s", disguised, parsed.String())
	}
	if !strings.Contains(parsed.String(), "valid dominating set: true") {
		t.Fatalf("text solve did not validate:\n%s", parsed.String())
	}
	for _, prefix := range []string{"solution size:", "solution digest:"} {
		if got, want := reportLine(t, parsed.String(), prefix), reportLine(t, mapped.String(), prefix); got != want {
			t.Fatalf("text solve %q does not match the csrbin solve %q", got, want)
		}
	}
}

// TestRunDamagedCSRBinNamesFile: a csrbin with one flipped data byte
// passes the header checks, so only the loader's verifying pass stands
// between it and the solver. It must fail with an error naming the file,
// not print a header or panic.
func TestRunDamagedCSRBinNamesFile(t *testing.T) {
	csrbinPath, _, _ := writeGrid(t)
	data, err := os.ReadFile(csrbinPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-5] ^= 0x10
	bad := filepath.Join(t.TempDir(), "bad.csrbin")
	if err := os.WriteFile(bad, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	err = func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("run panicked on a damaged csrbin: %v", r)
			}
		}()
		return run([]string{"-in", bad, "-alg", "alg1"}, &out)
	}()
	if err == nil || !strings.HasPrefix(err.Error(), bad+": ") {
		t.Fatalf("err = %v, want an error naming %s", err, bad)
	}
	if out.Len() != 0 {
		t.Fatalf("damaged input printed a report:\n%s", out.String())
	}
}

// TestRunLongCycleCapsHeaderDiameter: a long cycle is the worst case of
// the header's iFUB diameter (a BFS from about half the vertices), so a
// csrbin cycle of 10^5 vertices must print bounds around its diameter
// instead of settling it, and still solve.
func TestRunLongCycleCapsHeaderDiameter(t *testing.T) {
	const n = 100_000
	path := filepath.Join(t.TempDir(), "cycle.csrbin")
	if err := graphio.WriteFile(path, gen.Cycle(n).Freeze(), graphio.FormatCSRBin); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{"-in", path, "-alg", "alg1"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	header := fmt.Sprintf("graph: Graph(n=%d, m=%d) (diameter between %d and ", n, n, n/2)
	for _, want := range []string{header, "csr: mmap-backed", "valid dominating set: true"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("report lacks %q:\n%s", want, out.String())
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
