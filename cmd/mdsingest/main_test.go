package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

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
// graphgen -in in -oformat csrbin -o out does.
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

// TestPipelineEndToEnd drives every mode over one small instance: the
// generated component counts are exact, all three loading paths agree on
// the fingerprint, and the solve validates.
func TestPipelineEndToEnd(t *testing.T) {
	dir := t.TempDir()
	edges := filepath.Join(dir, "g.edges")
	bin := filepath.Join(dir, "g.csrbin")

	gen := runJSON(t, "-mode", "gen", "-edges", "1000", "-o", edges)
	// 1000 edges round up to 4 grid components.
	if gen.N != 4*gridVertices || gen.M != 4*gridEdgeCount {
		t.Fatalf("gen n=%d m=%d, want %d/%d", gen.N, gen.M, 4*gridVertices, 4*gridEdgeCount)
	}

	seq := runJSON(t, "-mode", "parse", "-in", edges, "-workers", "1", "-fingerprint")
	par := runJSON(t, "-mode", "parse", "-in", edges, "-workers", "3", "-fingerprint")
	toCSRBin(t, edges, bin)
	load := runJSON(t, "-mode", "load", "-in", bin, "-fingerprint")
	if seq.Fingerprint == "" || seq.Fingerprint != par.Fingerprint || seq.Fingerprint != load.Fingerprint {
		t.Fatalf("fingerprints diverge: seq=%s par=%s load=%s",
			seq.Fingerprint, par.Fingerprint, load.Fingerprint)
	}
	for _, rep := range []report{seq, par, load} {
		if rep.N != gen.N || rep.M != gen.M {
			t.Fatalf("%s: n=%d m=%d, want %d/%d", rep.Mode, rep.N, rep.M, gen.N, gen.M)
		}
	}

	// The default radii (core.PracticalParams) leave the 12x12 grid
	// components whole: a solution smaller than V shows the solve ran
	// Algorithm 1 rather than taking every vertex at R1 = 1.
	solve := runJSON(t, "-mode", "solve", "-in", bin, "-workers", "2")
	if solve.Valid == nil || !*solve.Valid {
		t.Fatalf("solve did not validate: %+v", solve)
	}
	if solve.SolutionSize < 1 || solve.SolutionSize >= solve.N {
		t.Fatalf("solution size %d outside [1, n=%d): %+v", solve.SolutionSize, solve.N, solve)
	}
}

// TestBadModeAndMissingArgs: argument errors are clean, not panics.
func TestBadModeAndMissingArgs(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-mode", "nope"}, &out); err == nil {
		t.Fatal("unknown mode accepted")
	}
	if err := run([]string{"-mode", "gen"}, &out); err == nil {
		t.Fatal("gen without -o accepted")
	}
	if err := run([]string{"-mode", "convert", "-in", "x", "-o", "y"}, &out); err == nil {
		t.Fatal("the removed convert mode accepted")
	}
}

// TestSolvePicksMmapByMagic: with -format auto, solve maps a csrbin file
// by its magic bytes whatever it is called, and parses a text file as
// text even when it carries the .csrbin suffix.
func TestSolvePicksMmapByMagic(t *testing.T) {
	dir := t.TempDir()
	edges := filepath.Join(dir, "g.edges")
	bin := filepath.Join(dir, "g.bin")
	runJSON(t, "-mode", "gen", "-edges", "500", "-o", edges)
	toCSRBin(t, edges, bin)

	// Radius 1 makes every grid vertex a local cut (S = V on any loader),
	// so the size comparison below runs at radius 4.
	solve := runJSON(t, "-mode", "solve", "-in", bin, "-r1", "4", "-r2", "4")
	if solve.Mapped == nil {
		t.Fatalf("csrbin named %s was not opened with OpenCSRBin: %+v", bin, solve)
	}

	text, err := os.ReadFile(edges)
	if err != nil {
		t.Fatal(err)
	}
	disguised := filepath.Join(dir, "t.csrbin")
	if err := os.WriteFile(disguised, text, 0o644); err != nil {
		t.Fatal(err)
	}
	parsed := runJSON(t, "-mode", "solve", "-in", disguised, "-r1", "4", "-r2", "4")
	if parsed.Mapped != nil {
		t.Fatalf("edge list named %s was opened as csrbin: %+v", disguised, parsed)
	}
	if solve.SolutionSize >= solve.N {
		t.Fatalf("csrbin solve took every vertex: %+v", solve)
	}
	if parsed.Valid == nil || !*parsed.Valid || parsed.SolutionSize != solve.SolutionSize {
		t.Fatalf("text solve %+v does not match the csrbin solve %+v", parsed, solve)
	}
}
