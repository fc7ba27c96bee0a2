package main

import (
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"localmds/internal/gen"
	"localmds/internal/graph"
	"localmds/internal/graphio"
)

// TestConvertBetweenFormats: generate once, then convert json → edgelist
// → dimacs → json through -in/-format and confirm the graph survives.
func TestConvertBetweenFormats(t *testing.T) {
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "g.json")
	var out strings.Builder
	if err := run([]string{"-kind", "grid", "-n", "20", "-o", jsonPath}, &out); err != nil {
		t.Fatalf("generate: %v", err)
	}
	elPath := filepath.Join(dir, "g.edges")
	if err := run([]string{"-in", jsonPath, "-format", "edgelist", "-o", elPath}, &out); err != nil {
		t.Fatalf("to edgelist: %v", err)
	}
	dimacsPath := filepath.Join(dir, "g.dimacs")
	if err := run([]string{"-in", elPath, "-format", "dimacs", "-o", dimacsPath}, &out); err != nil {
		t.Fatalf("to dimacs: %v", err)
	}
	var back strings.Builder
	if err := run([]string{"-in", dimacsPath, "-format", "json"}, &back); err != nil {
		t.Fatalf("back to json: %v", err)
	}
	orig, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(back.String()) != strings.TrimSpace(string(orig)) {
		t.Fatalf("round trip changed the graph:\n%s\nvs\n%s", orig, back.String())
	}
}

// TestEmitEdgeListAndDIMACS: the new output formats have the expected
// shapes.
func TestEmitEdgeListAndDIMACS(t *testing.T) {
	var el strings.Builder
	if err := run([]string{"-kind", "cycle", "-n", "5", "-format", "edgelist"}, &el); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(el.String(), "5\n0 1\n") {
		t.Fatalf("edge list shape: %q", el.String())
	}
	var dim strings.Builder
	if err := run([]string{"-kind", "cycle", "-n", "5", "-format", "dimacs"}, &dim); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(dim.String(), "p edge 5 5\ne 1 2\n") {
		t.Fatalf("dimacs shape: %q", dim.String())
	}
}

// TestCSRBinConvertRoundTrip: -format csrbin pre-bakes a binary file,
// and converting it back to JSON reproduces the directly-generated JSON —
// the pre-baking pipeline the huge solve path depends on.
func TestCSRBinConvertRoundTrip(t *testing.T) {
	dir := t.TempDir()
	binPath := filepath.Join(dir, "g.csrbin")
	var out strings.Builder
	if err := run([]string{"-kind", "grid", "-n", "30", "-format", "csrbin", "-o", binPath}, &out); err != nil {
		t.Fatalf("generate csrbin: %v", err)
	}
	var direct strings.Builder
	if err := run([]string{"-kind", "grid", "-n", "30", "-format", "json"}, &direct); err != nil {
		t.Fatal(err)
	}
	for _, informat := range []string{"auto", "csrbin"} {
		var back strings.Builder
		if err := run([]string{"-in", binPath, "-informat", informat, "-format", "json"}, &back); err != nil {
			t.Fatalf("csrbin back to json (-informat %s): %v", informat, err)
		}
		if back.String() != direct.String() {
			t.Fatalf("-informat %s: csrbin round trip changed the graph", informat)
		}
	}
}

// TestConvertMalformedErrorsCleanly: a broken input exits with a located
// error, never a panic.
func TestConvertMalformedErrorsCleanly(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.txt")
	if err := os.WriteFile(path, []byte("0 1\n2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	err := run([]string{"-in", path, "-format", "json"}, &out)
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("want line-located error, got %v", err)
	}
}

// TestOutputMatchesSourceFingerprint pins every parseable -format, for
// generated graphs and for -in inputs in each encoding: the output parses
// back to a CSR with the source's fingerprint.
func TestOutputMatchesSourceFingerprint(t *testing.T) {
	dir := t.TempDir()
	formats := []string{"json", "edgelist", "dimacs", "csrbin"}
	parse := func(path string) graph.Fingerprint {
		t.Helper()
		c, err := graphio.ParseCSRFile(path, graphio.FormatAuto, graphio.CSROptions{})
		if err != nil {
			t.Fatal(err)
		}
		return c.Fingerprint()
	}
	for _, kind := range []string{"ding", "grid", "cactus", "gnp"} {
		g, err := gen.FromKind(kind, 50, 5, 0.05, rand.New(rand.NewSource(3)))
		if err != nil {
			t.Fatal(err)
		}
		want := g.Fingerprint()
		for _, f := range formats {
			src := filepath.Join(dir, kind+"."+f)
			args := []string{"-kind", kind, "-n", "50", "-seed", "3", "-format", f, "-o", src}
			if err := run(args, io.Discard); err != nil {
				t.Fatalf("%v: %v", args, err)
			}
			if got := parse(src); got != want {
				t.Fatalf("generated %s as %s: fingerprint %s, want %s", kind, f, got, want)
			}
		}
		for _, in := range formats {
			for _, f := range formats {
				out := filepath.Join(dir, kind+"-from-"+in+"."+f)
				args := []string{"-in", filepath.Join(dir, kind+"."+in), "-format", f, "-o", out}
				if err := run(args, io.Discard); err != nil {
					t.Fatalf("%v: %v", args, err)
				}
				if got := parse(out); got != want {
					t.Fatalf("%s from %s as %s: fingerprint %s, want %s", kind, in, f, got, want)
				}
			}
		}
	}
}

// TestJSONGolden pins the JSON bytes: compact, edges u < v in canonical
// order, one trailing newline, and "edges":[] (never null) when there are
// no edges.
func TestJSONGolden(t *testing.T) {
	edgeless := filepath.Join(t.TempDir(), "e.edges")
	if err := os.WriteFile(edgeless, []byte("3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-kind", "cycle", "-n", "4"}, `{"n":4,"edges":[[0,1],[0,3],[1,2],[2,3]]}` + "\n"},
		{[]string{"-kind", "grid", "-n", "1"}, `{"n":1,"edges":[]}` + "\n"},
		{[]string{"-in", edgeless}, `{"n":3,"edges":[]}` + "\n"},
	} {
		var out strings.Builder
		if err := run(tc.args, &out); err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		if out.String() != tc.want {
			t.Errorf("%v = %q, want %q", tc.args, out.String(), tc.want)
		}
	}
}
