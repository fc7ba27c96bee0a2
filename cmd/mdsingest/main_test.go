package main

import (
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"localmds/internal/gen"
	"localmds/internal/graph"
	"localmds/internal/graphio"
)

// runJSON runs one mdsingest mode and decodes its JSON report.
func runJSON(t *testing.T, args ...string) report {
	t.Helper()
	var out strings.Builder
	if err := run(args, &out); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	var rep report
	if err := json.Unmarshal([]byte(out.String()), &rep); err != nil {
		t.Fatalf("run(%v) emitted invalid JSON %q: %v", args, out.String(), err)
	}
	return rep
}

// toCSRBin converts the text graph at in to a csrbin file at out, as
// graphgen -in in -format csrbin -o out does.
func toCSRBin(t *testing.T, in, out string) {
	t.Helper()
	c, err := graphio.ParseCSRFile(in, graphio.FormatAuto, graphio.CSROptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := graphio.WriteFile(out, c, graphio.FormatCSRBin); err != nil {
		t.Fatal(err)
	}
}

// writeGrids writes k disjoint 12x12 grids (graphgen -kind grids -n
// 144k) as an edge list at path and returns the graph.
func writeGrids(t *testing.T, path string, k int) *graph.CSR {
	t.Helper()
	c, err := gen.FromKind("grids", 144*k, 5, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := graphio.WriteFile(path, c, graphio.FormatEdgeList); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestPipelineEndToEnd drives both modes over one small grids instance:
// the parse at 1 and at 3 workers and the mmap load agree with the
// generated graph on n, m and the fingerprint.
func TestPipelineEndToEnd(t *testing.T) {
	dir := t.TempDir()
	edges := filepath.Join(dir, "g.edges")
	bin := filepath.Join(dir, "g.csrbin")
	c := writeGrids(t, edges, 4)

	seq := runJSON(t, "-mode", "parse", "-in", edges, "-workers", "1", "-fingerprint")
	par := runJSON(t, "-mode", "parse", "-in", edges, "-workers", "3", "-fingerprint")
	toCSRBin(t, edges, bin)
	load := runJSON(t, "-mode", "load", "-in", bin, "-fingerprint")
	if want := c.Fingerprint().String(); seq.Fingerprint != want || par.Fingerprint != want || load.Fingerprint != want {
		t.Fatalf("fingerprints diverge: seq=%s par=%s load=%s, generated %s",
			seq.Fingerprint, par.Fingerprint, load.Fingerprint, want)
	}
	for _, rep := range []report{seq, par, load} {
		if rep.N != c.N() || rep.M != c.M() {
			t.Fatalf("%s: n=%d m=%d, want %d/%d", rep.Mode, rep.N, rep.M, c.N(), c.M())
		}
	}
	if load.Mapped == nil {
		t.Fatalf("load did not report whether it mapped: %+v", load)
	}
}

// TestBadModeAndMissingArgs: argument errors are clean, not panics, and
// the removed modes are unknown.
func TestBadModeAndMissingArgs(t *testing.T) {
	var out strings.Builder
	for _, mode := range []string{"nope", "gen", "solve", "convert"} {
		err := run([]string{"-mode", mode, "-in", "x"}, &out)
		if err == nil || !strings.Contains(err.Error(), "unknown -mode") {
			t.Fatalf("-mode %s: want an unknown-mode error, got %v", mode, err)
		}
	}
	if err := run([]string{"-mode", "parse", "-in", filepath.Join(t.TempDir(), "missing.edges")}, &out); err == nil {
		t.Fatal("parse of a missing file accepted")
	}
}
